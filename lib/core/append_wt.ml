module Bitstring = Wt_strings.Bitstring
module Appendable = Wt_bitvector.Appendable
module Probe = Wt_obs.Probe
module Space = Wt_obs.Space

type node = { mutable label : Bitstring.t; mutable kind : kind }

and kind =
  | Leaf of { mutable count : int }
  | Internal of { bv : Appendable.t; mutable zero : node; mutable one : node }

type t = { mutable root : node option; mutable n : int }

let create () = { root = None; n = 0 }
let length t = t.n

let append t s =
  Probe.hit Wt_append;
  (match t.root with
  | None -> t.root <- Some { label = s; kind = Leaf { count = 1 } }
  | Some root ->
      (* Descend, appending the discriminating bit at every internal node;
         [cnt] is the length of the subsequence at the current node
         (before this append). *)
      let rec go node off cnt =
        let rest = Bitstring.drop s off in
        let label = node.label in
        let l = Bitstring.lcp label rest in
        if l < Bitstring.length label then begin
          if l = Bitstring.length rest then
            invalid_arg "Append_wt.append: string is a proper prefix of a stored string";
          (* Split: the new internal node's bitvector is Init(c, cnt)
             followed by the new string's bit b — realized as a left
             offset, O(1) (Section 4.1). *)
          Probe.hit Wt_node_split;
          let b = Bitstring.get rest l in
          let c = Bitstring.get label l in
          let old_half = { label = Bitstring.drop label (l + 1); kind = node.kind } in
          let new_leaf =
            { label = Bitstring.drop rest (l + 1); kind = Leaf { count = 1 } }
          in
          let bv = Appendable.init c cnt in
          Appendable.append bv b;
          node.label <- Bitstring.prefix label l;
          node.kind <-
            (if b then Internal { bv; zero = old_half; one = new_leaf }
             else Internal { bv; zero = new_leaf; one = old_half })
        end
        else begin
          match node.kind with
          | Leaf lf ->
              if l = Bitstring.length rest then lf.count <- lf.count + 1
              else
                invalid_arg
                  "Append_wt.append: a stored string is a proper prefix of the string"
          | Internal { bv; zero; one } ->
              if l = Bitstring.length rest then
                invalid_arg
                  "Append_wt.append: string is a proper prefix of a stored string";
              let b = Bitstring.get rest l in
              Appendable.append bv b;
              let cnt' = (if b then Appendable.ones bv else Appendable.zeros bv) - 1 in
              go (if b then one else zero) (off + l + 1) cnt'
        end
      in
      go root 0 t.n);
  t.n <- t.n + 1

(* Frozen copy for snapshot-isolated readers: a split rewrites a node's
   label and kind in place, so the node records are copied (O(#nodes));
   each bitvector is an {!Appendable.snapshot}, which shares every
   segment the writer no longer touches. *)
let snapshot t =
  let rec copy node =
    {
      label = node.label;
      kind =
        (match node.kind with
        | Leaf { count } -> Leaf { count }
        | Internal { bv; zero; one } ->
            Internal { bv = Appendable.snapshot bv; zero = copy zero; one = copy one });
    }
  in
  { root = Option.map copy t.root; n = t.n }

(* Bulk construction by recursive partitioning, each node's bits
   appended to its bitvector in one run — O(total bits). *)
let of_array strings =
  let n = Array.length strings in
  if n = 0 then create ()
  else
    let root =
      Partition.build strings
        ~not_prefix_free:"Append_wt.append: a stored string is a proper prefix of the string"
        ~leaf:(fun label count -> { label; kind = Leaf { count } })
        ~node:(fun label bits zero one ->
          { label; kind = Internal { bv = Appendable.of_bitbuf bits; zero; one } })
    in
    { root = Some root; n }

(* Batched append: route the whole array through the trie in one
   traversal.  At every node the branch bits of all strings passing
   through it are appended in sequence order before the children are
   visited, so the resulting structure is bit-for-bit the one produced
   by appending the strings one at a time — node splits included, since
   a split only depends on the node's subsequence length at the moment
   the diverging string arrives, which is preserved.  On
   [Invalid_argument] (a prefix-freeness violation mid-batch) the trie
   is left partially updated; treat the whole batch as failed. *)
let bulk_append t strings =
  let m = Array.length strings in
  if m > 0 then begin
    Probe.record Wt_append m;
    match t.root with
    | None ->
        let built = of_array strings in
        t.root <- built.root;
        t.n <- built.n
    | Some root ->
        (* Turn [node] into an internal node branching at bit [l] of its
           label, with the string [rbits] (the suffix past [off]) in the
           fresh leaf — the scalar split, with the subsequence length
           read off the node itself. *)
        let split node l rbits =
          Probe.hit Wt_node_split;
          let label = node.label in
          let cnt =
            match node.kind with
            | Leaf lf -> lf.count
            | Internal { bv; _ } -> Appendable.length bv
          in
          let b = Bitstring.get rbits l in
          let c = Bitstring.get label l in
          let old_half = { label = Bitstring.drop label (l + 1); kind = node.kind } in
          let new_leaf =
            { label = Bitstring.drop rbits (l + 1); kind = Leaf { count = 1 } }
          in
          let bv = Appendable.init c cnt in
          Appendable.append bv b;
          node.label <- Bitstring.prefix label l;
          node.kind <-
            (if b then Internal { bv; zero = old_half; one = new_leaf }
             else Internal { bv; zero = new_leaf; one = old_half })
        in
        (* [go node off idxs]: append [strings.(i)] for each [i] in
           [idxs] (in order) below [node]; all of them agree with the
           root-to-node path on their first [off] bits. *)
        let rec go node off idxs =
          match idxs with
          | [] -> ()
          | _ -> (
              match node.kind with
              | Leaf lf ->
                  let rec scan = function
                    | [] -> ()
                    | i :: rest ->
                        let label = node.label in
                        let rbits = Bitstring.drop strings.(i) off in
                        let l = Bitstring.lcp label rbits in
                        if l < Bitstring.length label then begin
                          if l = Bitstring.length rbits then
                            invalid_arg
                              "Append_wt.append: string is a proper prefix of a \
                               stored string";
                          split node l rbits;
                          (* the node is internal now: reroute the rest *)
                          go node off rest
                        end
                        else if l = Bitstring.length rbits then begin
                          lf.count <- lf.count + 1;
                          scan rest
                        end
                        else
                          invalid_arg
                            "Append_wt.append: a stored string is a proper prefix \
                             of the string"
                  in
                  scan idxs
              | Internal { bv; zero; one } ->
                  let zeros_acc = ref [] and ones_acc = ref [] in
                  let flush () =
                    let coff = off + Bitstring.length node.label + 1 in
                    go zero coff (List.rev !zeros_acc);
                    go one coff (List.rev !ones_acc)
                  in
                  let rec scan = function
                    | [] -> flush ()
                    | i :: rest ->
                        let label = node.label in
                        let rbits = Bitstring.drop strings.(i) off in
                        let l = Bitstring.lcp label rbits in
                        if l < Bitstring.length label then begin
                          if l = Bitstring.length rbits then
                            invalid_arg
                              "Append_wt.append: string is a proper prefix of a \
                               stored string";
                          (* the accumulated strings belong to the old
                             children: push them down before splitting *)
                          flush ();
                          split node l rbits;
                          go node off rest
                        end
                        else if l = Bitstring.length rbits then
                          invalid_arg
                            "Append_wt.append: string is a proper prefix of a \
                             stored string"
                        else begin
                          let b = Bitstring.get rbits l in
                          Appendable.append bv b;
                          let acc = if b then ones_acc else zeros_acc in
                          acc := i :: !acc;
                          scan rest
                        end
                  in
                  scan idxs)
        in
        go root 0 (List.init m Fun.id);
        t.n <- t.n + m
  end

(* ------------------------------------------------------------------ *)

module Node = struct
  type trie = t
  type nonrec node = node

  let root (trie : trie) = trie.root
  let length (trie : trie) = trie.n
  let label node = node.label
  let label_length node = Bitstring.length (label node)
  let label_lcp node s off = Bitstring.lcp_from (label node) s off
  let is_leaf node = match node.kind with Leaf _ -> true | Internal _ -> false

  let count node =
    match node.kind with Leaf { count } -> count | Internal { bv; _ } -> Appendable.length bv

  let child node b =
    match node.kind with
    | Leaf _ -> invalid_arg "Append_wt.Node.child: leaf"
    | Internal { zero; one; _ } -> if b then one else zero

  let bv_of node =
    match node.kind with
    | Leaf _ -> invalid_arg "Append_wt.Node: leaf has no bitvector"
    | Internal { bv; _ } -> bv

  let bv_rank node b pos = Appendable.rank (bv_of node) b pos
  let bv_select node b k = Appendable.select (bv_of node) b k
  let bv_access node pos = Appendable.access (bv_of node) pos

  let bv_access_rank node pos = Appendable.access_rank (bv_of node) pos

  let iter_bits node pos =
    let it = Appendable.Iter.create (bv_of node) pos in
    fun () -> Appendable.Iter.next it

  let bv_space_bits node = Appendable.space_bits (bv_of node)

  type cursor = Appendable.Cursor.t

  let bv_cursor node = Appendable.Cursor.create (bv_of node)
  let cursor_rank = Appendable.Cursor.rank
  let cursor_access_rank = Appendable.Cursor.access_rank
end

module Q = Query.Make (Node)

let access = Q.access
let rank = Q.rank
let select = Q.select
let rank_prefix = Q.rank_prefix
let select_prefix = Q.select_prefix
let distinct_count = Q.distinct_count
let to_array = Q.to_array
let dump = Q.dump
let pp = Q.pp_tree

let space_bits t =
  let rec go node =
    Bitstring.length node.label
    +
    match node.kind with
    | Leaf _ -> Space.mutable_leaf_bits
    | Internal { bv; zero; one } ->
        Appendable.space_bits bv + Space.mutable_internal_bits + go zero + go one
  in
  (match t.root with None -> 0 | Some root -> go root) + Space.root_bits

let stats t = Q.stats ~space_bits t

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let rec go node =
    match node.kind with
    | Leaf { count } ->
        if count <= 0 then fail "leaf with count %d" count;
        count
    | Internal { bv; zero; one } ->
        Appendable.check_invariants bv;
        let cz = go zero and co = go one in
        if Appendable.zeros bv <> cz then
          fail "zero-child count %d but bv has %d zeros" cz (Appendable.zeros bv);
        if Appendable.ones bv <> co then
          fail "one-child count %d but bv has %d ones" co (Appendable.ones bv);
        cz + co
  in
  match t.root with
  | None -> if t.n <> 0 then fail "empty root but n = %d" t.n
  | Some root ->
      let c = go root in
      if c <> t.n then fail "root count %d but n = %d" c t.n
