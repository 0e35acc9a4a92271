module Bitstring = Wt_strings.Bitstring
module Dyn_rle = Wt_bitvector.Dyn_rle
module Probe = Wt_obs.Probe
module Space = Wt_obs.Space

type node = { mutable label : Bitstring.t; mutable kind : kind }

and kind =
  | Leaf of { mutable count : int }
  | Internal of { bv : Dyn_rle.t; mutable zero : node; mutable one : node }

type t = { mutable root : node option; mutable n : int }

let create () = { root = None; n = 0 }
let length t = t.n

let insert t pos s =
  if pos < 0 || pos > t.n then invalid_arg "Dynamic_wt.insert: position out of range";
  Probe.hit Wt_insert;
  (match t.root with
  | None -> t.root <- Some { label = s; kind = Leaf { count = 1 } }
  | Some root ->
      (* [cnt] is the subsequence length at the current node before this
         insertion; [pos] is the insertion point inside that
         subsequence. *)
      let rec go node off pos cnt =
        let rest = Bitstring.drop s off in
        let label = node.label in
        let l = Bitstring.lcp label rest in
        if l < Bitstring.length label then begin
          if l = Bitstring.length rest then
            invalid_arg "Dynamic_wt.insert: string is a proper prefix of a stored string";
          (* Split (Figure 3): the new internal node starts with the
             constant bitvector Init(c, cnt) — O(log n) on RLE+γ — and the
             new string's bit b is inserted at [pos]. *)
          Probe.hit Wt_node_split;
          let b = Bitstring.get rest l in
          let c = Bitstring.get label l in
          let old_half = { label = Bitstring.drop label (l + 1); kind = node.kind } in
          let new_leaf =
            { label = Bitstring.drop rest (l + 1); kind = Leaf { count = 1 } }
          in
          let bv = Dyn_rle.init c cnt in
          Dyn_rle.insert bv pos b;
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
                  "Dynamic_wt.insert: a stored string is a proper prefix of the string"
          | Internal { bv; zero; one } ->
              if l = Bitstring.length rest then
                invalid_arg
                  "Dynamic_wt.insert: string is a proper prefix of a stored string";
              let b = Bitstring.get rest l in
              Dyn_rle.insert bv pos b;
              let pos' = Dyn_rle.rank bv b pos in
              let cnt' = (if b then Dyn_rle.ones bv else Dyn_rle.zeros bv) - 1 in
              go (if b then one else zero) (off + l + 1) pos' cnt'
        end
      in
      go root 0 pos t.n);
  t.n <- t.n + 1

(* Counts under both [Wt_append] and, via [insert], [Wt_insert]. *)
let append t s =
  Probe.hit Wt_append;
  insert t t.n s

let delete t pos =
  if pos < 0 || pos >= t.n then invalid_arg "Dynamic_wt.delete: position out of range";
  Probe.hit Wt_delete;
  let rec go node pos =
    match node.kind with
    | Leaf lf -> lf.count <- lf.count - 1
    | Internal { bv; zero; one } ->
        let b, pos' = Dyn_rle.access_rank bv pos in
        go (if b then one else zero) pos';
        Dyn_rle.delete bv pos;
        (* Last occurrence removed: one side is empty, merge with the
           surviving sibling (the label gains the branch bit and the
           sibling's label, as in the dynamic Patricia Trie). *)
        if Dyn_rle.length bv > 0 && Dyn_rle.is_constant bv then begin
          Probe.hit Wt_node_merge;
          let sbit = Dyn_rle.ones bv > 0 in
          let survivor = if sbit then one else zero in
          node.label <-
            Bitstring.concat
              [ node.label; Bitstring.of_bool_list [ sbit ]; survivor.label ];
          node.kind <- survivor.kind
        end
  in
  (match t.root with
  | None -> assert false
  | Some root ->
      go root pos;
      if t.n = 1 then t.root <- None);
  t.n <- t.n - 1

(* Frozen copy for snapshot-isolated readers: the Patricia skeleton's
   node records are mutable and must be copied (O(#nodes)), but each
   node's bitvector is an O(1) [Dyn_rle.snapshot] — the chunk tree is
   persistent under its root, so the dominant state is shared, not
   duplicated.  The copy is a full-featured trie: queries on it are
   oblivious to later [insert]/[delete]/[append] on the original (and
   vice versa). *)
let snapshot t =
  let rec copy node =
    {
      label = node.label;
      kind =
        (match node.kind with
        | Leaf { count } -> Leaf { count }
        | Internal { bv; zero; one } ->
            Internal { bv = Dyn_rle.snapshot bv; zero = copy zero; one = copy one });
    }
  in
  { root = Option.map copy t.root; n = t.n }

(* Bulk construction: one recursive partition pass (as in the static
   variant) with Dyn_rle bitvectors built from explicit bit arrays —
   O(total bits) instead of n separate O(|s| + h log n) inserts. *)
let of_array strings =
  let n = Array.length strings in
  if n = 0 then create ()
  else begin
    let rec build (idxs : int array) off =
      let m = Array.length idxs in
      let first = strings.(idxs.(0)) in
      let alpha_len = ref (Bitstring.length first - off) in
      for k = 1 to m - 1 do
        let l =
          Bitstring.lcp (Bitstring.drop first off) (Bitstring.drop strings.(idxs.(k)) off)
        in
        if l < !alpha_len then alpha_len := l
      done;
      let alpha = Bitstring.sub first off !alpha_len in
      let stop = off + !alpha_len in
      let ends = ref 0 in
      for k = 0 to m - 1 do
        if Bitstring.length strings.(idxs.(k)) = stop then incr ends
      done;
      if !ends = m then { label = alpha; kind = Leaf { count = m } }
      else if !ends > 0 then
        invalid_arg "Dynamic_wt.insert: a stored string is a proper prefix of the string"
      else begin
        let bits = Array.make m false in
        let ones = ref 0 in
        for k = 0 to m - 1 do
          let b = Bitstring.get strings.(idxs.(k)) stop in
          bits.(k) <- b;
          if b then incr ones
        done;
        let zeros_idx = Array.make (m - !ones) 0 in
        let ones_idx = Array.make !ones 0 in
        let zi = ref 0 and oi = ref 0 in
        for k = 0 to m - 1 do
          if bits.(k) then begin
            ones_idx.(!oi) <- idxs.(k);
            incr oi
          end
          else begin
            zeros_idx.(!zi) <- idxs.(k);
            incr zi
          end
        done;
        {
          label = alpha;
          kind =
            Internal
              {
                bv = Dyn_rle.of_bits bits;
                zero = build zeros_idx (stop + 1);
                one = build ones_idx (stop + 1);
              };
        }
      end
    in
    { root = Some (build (Array.init n Fun.id) 0); n }
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
    match node.kind with Leaf { count } -> count | Internal { bv; _ } -> Dyn_rle.length bv

  let child node b =
    match node.kind with
    | Leaf _ -> invalid_arg "Dynamic_wt.Node.child: leaf"
    | Internal { zero; one; _ } -> if b then one else zero

  let bv_of node =
    match node.kind with
    | Leaf _ -> invalid_arg "Dynamic_wt.Node: leaf has no bitvector"
    | Internal { bv; _ } -> bv

  let bv_rank node b pos = Dyn_rle.rank (bv_of node) b pos
  let bv_select node b k = Dyn_rle.select (bv_of node) b k
  let bv_access node pos = Dyn_rle.access (bv_of node) pos

  let bv_access_rank node pos = Dyn_rle.access_rank (bv_of node) pos

  let iter_bits node pos =
    let it = Dyn_rle.Iter.create (bv_of node) pos in
    fun () -> Dyn_rle.Iter.next it

  let bv_space_bits node = Dyn_rle.space_bits (bv_of node)

  type cursor = Dyn_rle.Cursor.t

  let bv_cursor node = Dyn_rle.Cursor.create (bv_of node)
  let cursor_rank = Dyn_rle.Cursor.rank
  let cursor_access_rank = Dyn_rle.Cursor.access_rank
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
        Dyn_rle.space_bits bv + Space.mutable_internal_bits + go zero + go one
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
        Dyn_rle.check_invariants bv;
        if Dyn_rle.is_constant bv then fail "constant internal bitvector (unmerged node)";
        let cz = go zero and co = go one in
        if Dyn_rle.zeros bv <> cz then
          fail "zero-child count %d but bv has %d zeros" cz (Dyn_rle.zeros bv);
        if Dyn_rle.ones bv <> co then
          fail "one-child count %d but bv has %d ones" co (Dyn_rle.ones bv);
        cz + co
  in
  match t.root with
  | None -> if t.n <> 0 then fail "empty root but n = %d" t.n
  | Some root ->
      let c = go root in
      if c <> t.n then fail "root count %d but n = %d" c t.n
