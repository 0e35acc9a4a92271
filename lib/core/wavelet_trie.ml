module Bitstring = Wt_strings.Bitstring
module Rrr = Wt_bitvector.Rrr
module Space = Wt_obs.Space

type node =
  | Leaf of { label : Bitstring.t; count : int }
  | Node of { label : Bitstring.t; bv : Rrr.t; zero : node; one : node }

type t = { root : node option; n : int }

let length t = t.n

(* ------------------------------------------------------------------ *)
(* Construction (Definition 3.1), each β coded as a blob *)

let of_array strings =
  let n = Array.length strings in
  if n = 0 then { root = None; n = 0 }
  else
    let root =
      Partition.build strings ~not_prefix_free:"Wavelet_trie.of_array: string set is not prefix-free"
        ~leaf:(fun label count -> Leaf { label; count })
        ~node:(fun label bits zero one -> Node { label; bv = Rrr.of_bitbuf bits; zero; one })
    in
    { root = Some root; n }

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
