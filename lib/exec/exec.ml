(** Batch query execution engine: the one implementation of every point
    op.  A scalar op is a batch of one ({!Wt_core.Indexed_sequence.Point}).

    A batch is executed level-by-level over the trie instead of one
    root-to-leaf walk per operation.  The downward operations (access /
    rank / rank_prefix) are sorted by position once at the root and
    carried as a frontier of [(node, item range)] groups; every visited
    node answers all of its items before its children are expanded.
    Each item still walks its own path as Lemmas 3.2–3.3 do: an access
    item reads its branch bit from β; a rank item compares the node's
    label with the rest of its binarized string (past the node's bit
    depth) by one [lcp], then branches or answers there.

    A node reached by several items answers them with one rank cursor
    ({!Wt_core.Node_view.CURSORED}): for a fixed bit [b], [rank b] is
    monotone in the position, so sorted positions stay sorted all the
    way down and every bitvector query after the first lands in (or just
    after) the cursor's cached block.  A node reached by one item ranks
    directly: a cold cursor's first query decodes a whole block, a
    direct rank only the bits up to the position.  Access items share
    their path prefix per node, and items on one leaf share one
    materialized bitstring.  The select family shares one descent per
    distinct string; each occurrence index pays one [bv_select] fold.

    The frontier is a few int arrays, double-buffered between levels,
    made only for the op families a batch holds.  Results, errors
    included, are exactly those of the §3 reference algorithms
    ({!Wt_core.Query}), and so are the traversal counters of a batch of
    one. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace
module Iseq = Wt_core.Indexed_sequence

(* [memo tbl f k]: [f k], computed once per key of [tbl]. *)
let memo tbl f k =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = f k in
      Hashtbl.add tbl k v;
      v

(* The bitstring-level engine, shared by the three variants. *)
module Make (N : Wt_core.Node_view.CURSORED) = struct
  type bitop =
    | Access of int
    | Rank of Bitstring.t * int
    | Rank_prefix of Bitstring.t * int
    | Select of Bitstring.t * int
    | Select_prefix of Bitstring.t * int

  type bitres =
    | Bits of Bitstring.t (* access *)
    | Count of int (* rank / rank_prefix *)
    | Found of int (* select: position *)
    | Missing of int (* select: how many occurrences exist *)

  (* Single-bit label pieces, shared by every access path. *)
  let bit0 = Bitstring.of_bool_list [ false ]
  let bit1 = Bitstring.of_bool_list [ true ]

  (* One step of a rank descent (Lemmas 3.2–3.3) for the string, or with
     [~prefix] the prefix, [s] at a node whose label of [llen] bits has
     the common prefix [l] with the rest of [s], [off] bits of [s]
     consumed: [all] when every string below the node matches (the
     answer is the position), [none] when none does, or else [l], after
     which the walk branches on bit [off + l] of [s]. *)
  let all = -1
  let none = -2

  let step ~prefix ~leaf ~llen l s off =
    let rest = Bitstring.length s - off in
    if prefix && rest = 0 then all
    else if prefix && l = rest then begin
      Probe.record Wt_bits_consumed l;
      all
    end
    else if leaf || l < llen || l >= rest then begin
      Probe.record Wt_bits_consumed l;
      if leaf && (not prefix) && l = llen && l = rest then all else none
    end
    else begin
      Probe.record Wt_bits_consumed (l + 1);
      l
    end

  (* The descent to the leaf spelling [s] or, with [~prefix], to the
     node covering it: that node's count and the (node, bit) trail,
     deepest node first. *)
  let trail trie ~prefix s =
    let rec go node off acc =
      Probe.hit Wt_nodes_visited;
      let llen = N.label_length node in
      let l = step ~prefix ~leaf:(N.is_leaf node) ~llen (N.label_lcp node s off) s off in
      if l = all then Some (N.count node, acc)
      else if l = none then None
      else
        let b = Bitstring.get s (off + l) in
        go (N.child node b) (off + l + 1) ((node, b) :: acc)
    in
    match N.root trie with None -> None | Some root -> go root 0 []

  (* Upward family: the selects grouped by string, then one descent per
     group, folded for each of its occurrence indices and dropped. *)
  let selects trie ops results =
    let groups = Hashtbl.create 8 in
    Array.iteri
      (fun i op ->
        match op with
        | Select (s, k) | Select_prefix (s, k) ->
            let key = ((match op with Select_prefix _ -> true | _ -> false), s) in
            Hashtbl.replace groups key
              ((i, k) :: Option.value (Hashtbl.find_opt groups key) ~default:[])
        | Access _ | Rank _ | Rank_prefix _ -> ())
      ops;
    Hashtbl.iter
      (fun (prefix, s) group ->
        let tr = trail trie ~prefix s in
        List.iter
          (fun (i, k) ->
            results.(i) <-
              (match tr with
              | None -> Missing 0
              | Some (cnt, _) when k >= cnt -> Missing cnt
              | Some (_, tr) ->
                  Found (List.fold_left (fun j (node, b) -> N.bv_select node b j) k tr)))
          group)
      groups

  (* Downward family.  An item is an op's index and its position in the
     node's subsequence, in parallel buffers.  A group is the items
     [lo, hi) of one node at bit depth [depth] (what a rank string
     reaching it has consumed), with its reversed access path if it
     holds an access item. *)
  type group = { node : N.node; path : Bitstring.t list; depth : int; lo : int; hi : int }

  type frontier = {
    ops : bitop array;
    results : bitres array;
    ids : int array array;  (** this level's buffer, the next level's *)
    poss : int array array;  (** likewise *)
    mutable cur : int;  (** which buffer is this level's *)
    mutable fill : int;  (** items in the next level's so far *)
  }

  (* Answer or route the items of [groups] ([ids]/[poss]) into the next
     level's buffers ([nids]/[nposs]) and groups ([acc]): per node the
     zeros go in place, the ones wait in the node's read slots and follow
     the zeros. *)
  let rec level f ids poss nids nposs groups acc =
    match groups with
    | [] -> acc
    | { node; path; depth; lo; hi } :: groups ->
        let leaf = N.is_leaf node in
        let llen = N.label_length node in
        (* A node of one rank item compares its label in place, as a
           scalar rank does; with more items, or an access item, the
           label is decoded once for all of them. *)
        let decoded =
          hi - lo > 1 || match f.ops.(ids.(lo)) with Access _ -> true | _ -> false
        in
        let label = if decoded then N.label node else Bitstring.empty in
        let cursor = if leaf || hi - lo = 1 then None else Some (N.bv_cursor node) in
        let visited = ref 0 and consumed = ref 0 in
        let zacc = ref false and oacc = ref false and full = ref None in
        let zlo = f.fill and ones = ref 0 in
        (* an item going on to child [b] at position [pos'] *)
        let go = ref false and b = ref false and pos' = ref 0 in
        for k = lo to hi - 1 do
          let id = ids.(k) and pos = poss.(k) in
          go := false;
          (match f.ops.(id) with
          | Access _ ->
              incr visited;
              if leaf then begin
                consumed := !consumed + llen;
                let s =
                  match !full with
                  | Some s -> s
                  | None ->
                      let s = Bitstring.concat (List.rev (label :: path)) in
                      full := Some s;
                      s
                in
                f.results.(id) <- Bits s
              end
              else begin
                consumed := !consumed + llen + 1;
                let bit, p =
                  match cursor with
                  | None -> N.bv_access_rank node pos
                  | Some c -> N.cursor_access_rank c pos
                in
                if bit then oacc := true else zacc := true;
                go := true;
                b := bit;
                pos' := p
              end
          | (Rank (s, _) | Rank_prefix (s, _)) as op ->
              if pos = 0 then f.results.(id) <- Count 0
              else begin
                incr visited;
                let prefix = match op with Rank_prefix _ -> true | _ -> false in
                let l =
                  if decoded then Bitstring.lcp_from label s depth else N.label_lcp node s depth
                in
                let l = step ~prefix ~leaf ~llen l s depth in
                if l = all then f.results.(id) <- Count pos
                else if l = none then f.results.(id) <- Count 0
                else begin
                  let bit = Bitstring.get s (depth + l) in
                  go := true;
                  b := bit;
                  pos' :=
                    (match cursor with
                    | None -> N.bv_rank node bit pos
                    | Some c -> N.cursor_rank c bit pos)
                end
              end
          | Select _ | Select_prefix _ -> assert false);
          if !go then begin
            let i = if !b then lo + !ones else f.fill in
            (if !b then ids else nids).(i) <- id;
            (if !b then poss else nposs).(i) <- !pos';
            if !b then incr ones else f.fill <- i + 1
          end
        done;
        Probe.record Wt_nodes_visited !visited;
        Probe.record Wt_bits_consumed !consumed;
        let zhi = f.fill and ones = !ones and depth = depth + llen + 1 in
        let acc =
          if zhi = zlo then acc
          else
            let path = if !zacc then bit0 :: label :: path else [] in
            { node = N.child node false; path; depth; lo = zlo; hi = zhi } :: acc
        in
        let acc =
          if ones = 0 then acc
          else begin
            for i = 0 to ones - 1 do
              nids.(zhi + i) <- ids.(lo + i);
              nposs.(zhi + i) <- poss.(lo + i)
            done;
            f.fill <- zhi + ones;
            let path = if !oacc then bit1 :: label :: path else [] in
            { node = N.child node true; path; depth; lo = zhi; hi = f.fill } :: acc
          end
        in
        level f ids poss nids nposs groups acc

  (* an int buffer; a batch of one makes its one-slot buffers inline *)
  let ints m = if m = 1 then [| 0 |] else Array.make m 0

  let position = function
    | Access p | Rank (_, p) | Rank_prefix (_, p) -> p
    | Select _ | Select_prefix _ -> assert false

  (* The [m] downward items of [ops] (positions at most [n]) from
     [root], sorted by position once (as the ints [position lsl w +
     op]), walked level by level. *)
  let descend root ops results m n =
    let ids = ints m and j = ref 0 and sorted = ref true in
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | (Access _ | Rank _ | Rank_prefix _) as op ->
          if !j > 0 && position op < position ops.(ids.(!j - 1)) then sorted := false;
          ids.(!j) <- i;
          incr j
      | Select _ | Select_prefix _ -> ()
    done;
    let rec width x = if x = 0 then 0 else 1 + width (x lsr 1) in
    let w = width (Array.length ops) in
    if not !sorted then begin
      assert (width n + w < Sys.int_size);
      Array.iteri (fun k id -> ids.(k) <- (position ops.(id) lsl w) lor id) ids;
      Array.sort Int.compare ids;
      Array.iteri (fun k key -> ids.(k) <- key land ((1 lsl w) - 1)) ids
    end;
    let poss = ints m in
    for k = 0 to m - 1 do
      poss.(k) <- position ops.(ids.(k))
    done;
    let f =
      let ids = [| ids; ints m |] and poss = [| poss; ints m |] in
      { ops; results; ids; poss; cur = 0; fill = 0 }
    in
    (* one level: this level's groups in, the next level's out *)
    let next_level groups =
      let c = f.cur in
      f.fill <- 0;
      f.cur <- 1 - c;
      level f f.ids.(c) f.poss.(c) f.ids.(1 - c) f.poss.(1 - c) groups []
    in
    let rec walk lvl groups =
      if groups != [] then
        walk (lvl + 1)
          (if Trace.enabled () then
             Trace.with_span
               ~args:[ ("level", lvl); ("groups", List.length groups) ]
               "exec.level"
               (fun () -> Probe.time Exec_level (fun () -> next_level groups))
           else if Probe.enabled () then Probe.time Exec_level (fun () -> next_level groups)
           else next_level groups)
    in
    walk 0 [ { node = root; path = []; depth = 0; lo = 0; hi = m } ]

  let batch trie ops results =
    let n = N.length trie in
    Probe.hit Exec_batch;
    Probe.record Exec_batch_ops (Array.length ops);
    let m = ref 0 and sel = ref false in
    for i = 0 to Array.length ops - 1 do
      let op = ops.(i) in
      if
        match op with
        | Access pos -> pos < 0 || pos >= n
        | Rank (_, pos) | Rank_prefix (_, pos) -> pos < 0 || pos > n
        | Select (_, k) | Select_prefix (_, k) -> k < 0
      then invalid_arg "Exec.run: position or occurrence index out of range";
      Probe.hit
        (match op with
        | Access _ -> Wt_access
        | Rank _ -> Wt_rank
        | Rank_prefix _ -> Wt_rank_prefix
        | Select _ -> Wt_select
        | Select_prefix _ -> Wt_select_prefix);
      match op with
      | Access _ | Rank _ | Rank_prefix _ -> incr m
      | Select _ | Select_prefix _ -> sel := true
    done;
    if !sel then selects trie ops results;
    match N.root trie with
    | Some root when !m > 0 -> descend root ops results !m n
    | _ -> ()

  let run trie (ops : bitop array) : bitres array =
    let nops = Array.length ops in
    let results = Array.make nops (Count 0) in
    if nops > 0 then
      if Trace.enabled () then
        Trace.with_span ~args:[ ("ops", nops) ] "exec.batch" (fun () -> batch trie ops results)
      else batch trie ops results;
    results
end

(* ------------------------------------------------------------------ *)
(* Byte-string wrapper: validates operations against the shared error
   type, binarizes each distinct string once, runs the engine, and maps
   results back.  Invalid operations become per-op [Error]s and are
   excluded from the engine batch — [query_batch] never raises. *)

module Make_string (N : Wt_core.Node_view.CURSORED) = struct
  module E = Make (N)

  (* A batch of several ops binarizes each distinct string, and decodes
     each leaf's access result (one bitstring per leaf), once. *)
  let shared nops f = if nops <= 1 then f else memo (Hashtbl.create 16) f

  let query_batch (trie : N.trie) (ops : Iseq.op array) :
      (Iseq.value, Iseq.error) result array =
    let n = N.length trie in
    let nops = Array.length ops in
    let encode = shared nops Wt_core.String_api.encode in
    let encode_prefix = shared nops Wt_core.String_api.encode_prefix in
    let out = Array.make nops (Ok (Iseq.Int 0)) in
    (* the valid ops, in order, as engine ops *)
    let bitops = Array.make nops (E.Access 0) and m = ref 0 in
    for i = 0 to nops - 1 do
      match Iseq.check n ops.(i) with
      | Some e -> out.(i) <- Error e
      | None ->
          bitops.(!m) <-
            (match ops.(i) with
            | Iseq.Access { pos } -> E.Access pos
            | Iseq.Rank { s; pos } -> E.Rank (encode s, pos)
            | Iseq.Select { s; count } -> E.Select (encode s, count)
            | Iseq.Rank_prefix { prefix; pos } -> E.Rank_prefix (encode_prefix prefix, pos)
            | Iseq.Select_prefix { prefix; count } ->
                E.Select_prefix (encode_prefix prefix, count));
          incr m
    done;
    let bitops = if !m = nops then bitops else Array.sub bitops 0 !m in
    let res = E.run trie bitops and decode = shared nops Binarize.to_bytes and j = ref 0 in
    for i = 0 to nops - 1 do
      if Result.is_ok out.(i) then begin
        out.(i) <-
          (match (res.(!j), bitops.(!j)) with
          | E.Bits bs, _ -> Ok (Iseq.Str (decode bs))
          | (E.Count c | E.Found c), _ -> Ok (Iseq.Int c)
          | E.Missing occ, (E.Select (_, k) | E.Select_prefix (_, k)) ->
              Error (Iseq.No_occurrence { count = k; occurrences = occ })
          | E.Missing _, _ -> assert false);
        incr j
      end
    done;
    out
end

module Static = Make_string (Wt_core.Flat_wt.Node)
module Append = Make_string (Wt_core.Append_wt.Node)
module Dynamic = Make_string (Wt_core.Dynamic_wt.Node)
