(** Query algorithms of the Wavelet Trie (Lemmas 3.2 and 3.3), written
    once over {!Node_view.S} and shared by the static, append-only and
    fully-dynamic variants.

    Each operation performs O(h_s) bitvector operations along the
    root-to-node path of the queried string [s] (or prefix [p]), plus the
    O(|s|) label comparisons of a Patricia Trie search. *)

module Bitstring = Wt_strings.Bitstring
module Probe = Wt_obs.Probe

module Make (N : Node_view.S) = struct
  (* Traversal telemetry: every operation below bumps its own counter on
     entry; the descent loops additionally record [Wt_nodes_visited] once
     per node examined and [Wt_bits_consumed] for the label bits compared
     plus, on a descent, the branching bit.  Early exits (e.g. [pos = 0]
     in rank) do not examine a node and are not counted. *)

  let access trie pos =
    if pos < 0 || pos >= N.length trie then invalid_arg "Wavelet_trie.access";
    Probe.hit Wt_access;
    let rec go node pos acc =
      Probe.hit Wt_nodes_visited;
      let label = N.label node in
      if N.is_leaf node then begin
        Probe.record Wt_bits_consumed (Bitstring.length label);
        Bitstring.concat (List.rev (label :: acc))
      end
      else begin
        Probe.record Wt_bits_consumed (Bitstring.length label + 1);
        let b, pos' = N.bv_access_rank node pos in
        go (N.child node b) pos' (Bitstring.of_bool_list [ b ] :: label :: acc)
      end
    in
    match N.root trie with None -> assert false | Some root -> go root pos []

  let rank trie s pos =
    if pos < 0 || pos > N.length trie then invalid_arg "Wavelet_trie.rank";
    Probe.hit Wt_rank;
    let rec go node off pos =
      if pos = 0 then 0
      else begin
        Probe.hit Wt_nodes_visited;
        let rest = Bitstring.length s - off and llen = N.label_length node in
        let l = N.label_lcp node s off in
        if N.is_leaf node then begin
          Probe.record Wt_bits_consumed l;
          if l = llen && l = rest then pos else 0
        end
        else if l < llen || l >= rest then begin
          Probe.record Wt_bits_consumed l;
          0
        end
        else begin
          Probe.record Wt_bits_consumed (l + 1);
          let b = Bitstring.get s (off + l) in
          go (N.child node b) (off + l + 1) (N.bv_rank node b pos)
        end
      end
    in
    match N.root trie with None -> 0 | Some root -> go root 0 pos

  (* Descend to the leaf spelling s, recording the (node, bit) trail;
     returns the occurrence count and the trail, deepest node first. *)
  let trail_of trie s =
    let rec go node off acc =
      Probe.hit Wt_nodes_visited;
      let rest = Bitstring.length s - off and llen = N.label_length node in
      let l = N.label_lcp node s off in
      if N.is_leaf node then begin
        Probe.record Wt_bits_consumed l;
        if l = llen && l = rest then Some (N.count node, acc) else None
      end
      else if l < llen || l >= rest then begin
        Probe.record Wt_bits_consumed l;
        None
      end
      else begin
        Probe.record Wt_bits_consumed (l + 1);
        let b = Bitstring.get s (off + l) in
        go (N.child node b) (off + l + 1) ((node, b) :: acc)
      end
    in
    match N.root trie with None -> None | Some root -> go root 0 []

  let select trie s idx =
    if idx < 0 then invalid_arg "Wavelet_trie.select";
    Probe.hit Wt_select;
    match trail_of trie s with
    | None -> None
    | Some (count, trail) ->
        if idx >= count then None
        else Some (List.fold_left (fun i (node, b) -> N.bv_select node b i) idx trail)

  let rank_prefix trie p pos =
    if pos < 0 || pos > N.length trie then invalid_arg "Wavelet_trie.rank_prefix";
    Probe.hit Wt_rank_prefix;
    let rec go node off pos =
      if pos = 0 then 0
      else begin
        Probe.hit Wt_nodes_visited;
        let rest = Bitstring.length p - off in
        if rest = 0 then pos
        else begin
          let l = N.label_lcp node p off in
          if l = rest then begin
            Probe.record Wt_bits_consumed l;
            pos
          end
          else if l < N.label_length node || N.is_leaf node then begin
            Probe.record Wt_bits_consumed l;
            0
          end
          else begin
            Probe.record Wt_bits_consumed (l + 1);
            let b = Bitstring.get p (off + l) in
            go (N.child node b) (off + l + 1) (N.bv_rank node b pos)
          end
        end
      end
    in
    match N.root trie with None -> 0 | Some root -> go root 0 pos

  (* Descend to the node np covering prefix p (Lemma 3.3). *)
  let prefix_trail trie p =
    let rec go node off acc =
      Probe.hit Wt_nodes_visited;
      let rest = Bitstring.length p - off in
      if rest = 0 then Some (node, acc)
      else begin
        let l = N.label_lcp node p off in
        if l = rest then begin
          Probe.record Wt_bits_consumed l;
          Some (node, acc)
        end
        else if l < N.label_length node || N.is_leaf node then begin
          Probe.record Wt_bits_consumed l;
          None
        end
        else begin
          Probe.record Wt_bits_consumed (l + 1);
          let b = Bitstring.get p (off + l) in
          go (N.child node b) (off + l + 1) ((node, b) :: acc)
        end
      end
    in
    match N.root trie with None -> None | Some root -> go root 0 []

  let select_prefix trie p idx =
    if idx < 0 then invalid_arg "Wavelet_trie.select_prefix";
    Probe.hit Wt_select_prefix;
    match prefix_trail trie p with
    | None -> None
    | Some (np, trail) ->
        if idx >= N.count np then None
        else Some (List.fold_left (fun i (node, b) -> N.bv_select node b i) idx trail)

  let distinct_count trie =
    let rec go node =
      if N.is_leaf node then 1 else go (N.child node false) + go (N.child node true)
    in
    match N.root trie with None -> 0 | Some root -> go root

  let to_array trie = Array.init (N.length trie) (access trie)

  (* Preorder dump of (α, β) pairs, for golden structure tests. *)
  let dump trie =
    let out = ref [] in
    let rec go node =
      if N.is_leaf node then
        out := (Bitstring.to_string (N.label node), None) :: !out
      else begin
        let m = N.count node in
        let next = N.iter_bits node 0 in
        let beta = String.init m (fun _ -> if next () then '1' else '0') in
        out := (Bitstring.to_string (N.label node), Some beta) :: !out;
        go (N.child node false);
        go (N.child node true)
      end
    in
    (match N.root trie with None -> () | Some root -> go root);
    List.rev !out

  (* Figure-2-style tree rendering. *)
  let pp_tree fmt trie =
    let label_str node =
      let l = Bitstring.to_string (N.label node) in
      if l = "" then "{e}" else l
    in
    let rec go fmt prefix node =
      if N.is_leaf node then
        Format.fprintf fmt "a=%s  (leaf x%d)" (label_str node) (N.count node)
      else begin
        let m = N.count node in
        let next = N.iter_bits node 0 in
        let beta =
          String.init (min m 64) (fun _ -> if next () then '1' else '0')
          ^ if m > 64 then "..." else ""
        in
        Format.fprintf fmt "a=%s  b=%s" (label_str node) beta;
        Format.fprintf fmt "@,%s+-0: " prefix;
        go fmt (prefix ^ "|    ") (N.child node false);
        Format.fprintf fmt "@,%s+-1: " prefix;
        go fmt (prefix ^ "     ") (N.child node true)
      end
    in
    match N.root trie with
    | None -> Format.pp_print_string fmt "<empty sequence>"
    | Some root ->
        Format.fprintf fmt "@[<v>";
        go fmt "" root;
        Format.fprintf fmt "@]"

  (* Generic space accounting (Stats).  [space_bits] supplies the
     variant's measured total (node overheads differ across variants). *)
  let stats ~space_bits trie : Stats.t =
    let bv_len = ref 0 in
    let bv_bits = ref 0 in
    let label_bits = ref 0 in
    let leaf_counts = ref [] in
    let nodes = ref 0 in
    let rec go node =
      incr nodes;
      label_bits := !label_bits + Bitstring.length (N.label node);
      if N.is_leaf node then leaf_counts := N.count node :: !leaf_counts
      else begin
        bv_len := !bv_len + N.count node;
        bv_bits := !bv_bits + N.bv_space_bits node;
        go (N.child node false);
        go (N.child node true)
      end
    in
    (match N.root trie with None -> () | Some root -> go root);
    let e = max 0 (!nodes - 1) in
    let trie_lb_bits =
      if !nodes = 0 then 0.
      else
        float_of_int (!label_bits + e)
        +. Wt_bits.Entropy.binomial_bound e (!label_bits + e)
    in
    let n = N.length trie in
    {
      n;
      distinct = List.length !leaf_counts;
      avg_height = (if n = 0 then 0. else float_of_int !bv_len /. float_of_int n);
      seq_h0_bits = Wt_bits.Entropy.sequence_h0_bits (Array.of_list !leaf_counts);
      trie_lb_bits;
      bv_bits = !bv_bits;
      label_bits = !label_bits;
      total_bits = space_bits trie;
    }
end
