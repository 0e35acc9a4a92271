module Bitstring = Wt_strings.Bitstring
module Bitbuf = Wt_bits.Bitbuf
module Rrr = Wt_bitvector.Rrr
module Entropy = Wt_bits.Entropy
module Space = Wt_obs.Space

type node =
  | Leaf of { label : Bitstring.t; count : int }
  | Node of { label : Bitstring.t; bv : Rrr.t; zero : node; one : node }

type t = { root : node option; n : int }

let length t = t.n

(* ------------------------------------------------------------------ *)
(* Construction (Definition 3.1).

   The recursion works on an array of sequence indices plus the uniform
   number of consumed bits [off]: all strings reaching a node share their
   first [off] bits (the root-to-node path), so suffixes never need to be
   materialized. *)

let of_array strings =
  let n = Array.length strings in
  let rec build (idxs : int array) off =
    let m = Array.length idxs in
    let first = strings.(idxs.(0)) in
    (* α = lcp of all suffixes; each comparison only needs to reach the
       running α length, never the ends of the strings *)
    let alpha_len = ref (Bitstring.length first - off) in
    let k = ref 1 in
    while !k < m && !alpha_len > 0 do
      let s = strings.(idxs.(!k)) in
      let cap = min !alpha_len (Bitstring.length s - off) in
      let l = Bitstring.lcp (Bitstring.sub first off cap) (Bitstring.sub s off cap) in
      if l < !alpha_len then alpha_len := l;
      incr k
    done;
    let alpha = Bitstring.sub first off !alpha_len in
    let stop = off + !alpha_len in
    (* Constant subsequence <=> every string ends exactly at [stop]. *)
    let ends = ref 0 in
    for k = 0 to m - 1 do
      if Bitstring.length strings.(idxs.(k)) = stop then incr ends
    done;
    if !ends = m then Leaf { label = alpha; count = m }
    else if !ends > 0 then
      invalid_arg "Wavelet_trie.of_array: string set is not prefix-free"
    else begin
      let bits = Bitbuf.create ~capacity_bits:m () in
      let ones = ref 0 in
      for k = 0 to m - 1 do
        let b = Bitstring.get strings.(idxs.(k)) stop in
        Bitbuf.add bits b;
        if b then incr ones
      done;
      let zeros_idx = Array.make (m - !ones) 0 in
      let ones_idx = Array.make !ones 0 in
      let zi = ref 0 and oi = ref 0 in
      for k = 0 to m - 1 do
        if Bitbuf.get bits k then begin
          ones_idx.(!oi) <- idxs.(k);
          incr oi
        end
        else begin
          zeros_idx.(!zi) <- idxs.(k);
          incr zi
        end
      done;
      Node
        {
          label = alpha;
          bv = Rrr.of_bitbuf bits;
          zero = build zeros_idx (stop + 1);
          one = build ones_idx (stop + 1);
        }
    end
  in
  if n = 0 then { root = None; n = 0 }
  else { root = Some (build (Array.init n Fun.id) 0); n }

let of_list l = of_array (Array.of_list l)

(* ------------------------------------------------------------------ *)

module Node = struct
  type trie = t
  type nonrec node = node

  let root (trie : trie) = trie.root
  let length (trie : trie) = trie.n
  let label = function Leaf { label; _ } -> label | Node { label; _ } -> label
  let label_length node = Bitstring.length (label node)
  let label_lcp node s off = Bitstring.lcp_from (label node) s off
  let is_leaf = function Leaf _ -> true | Node _ -> false
  let count = function Leaf l -> l.count | Node nd -> Rrr.length nd.bv

  let child node b =
    match node with
    | Leaf _ -> invalid_arg "Wavelet_trie.Node.child: leaf"
    | Node { zero; one; _ } -> if b then one else zero

  let bv_of = function
    | Leaf _ -> invalid_arg "Wavelet_trie.Node: leaf has no bitvector"
    | Node { bv; _ } -> bv

  let bv_rank node b pos = Rrr.rank (bv_of node) b pos
  let bv_select node b k = Rrr.select (bv_of node) b k
  let bv_access node pos = Rrr.access (bv_of node) pos

  let bv_access_rank node pos = Rrr.access_rank (bv_of node) pos

  let iter_bits node pos =
    let it = Rrr.Iter.create (bv_of node) pos in
    fun () -> Rrr.Iter.next it

  let bv_space_bits node = Rrr.space_bits (bv_of node)

  type cursor = Rrr.Cursor.t

  let bv_cursor node = Rrr.Cursor.create (bv_of node)
  let cursor_rank = Rrr.Cursor.rank
  let cursor_access_rank = Rrr.Cursor.access_rank
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

(* ------------------------------------------------------------------ *)
(* Space accounting *)

let space_bits t =
  let rec go = function
    | Leaf { label; _ } -> Bitstring.length label + Space.static_leaf_bits
    | Node { label; bv; zero; one } ->
        Bitstring.length label + Rrr.space_bits bv + Space.static_internal_bits + go zero
        + go one
  in
  (match t.root with None -> 0 | Some root -> go root) + Space.root_bits

let stats t = Q.stats ~space_bits t
