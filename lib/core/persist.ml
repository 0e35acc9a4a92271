(* Index files, format v2, read-only: the checksummed container of
   {!Wt_durable.Container} around the Marshal encoding of each variant.
   Every section (header, payload, footer) carries a CRC32C, so any bit
   flip or truncation raises [Format_error] before a byte reaches
   [Marshal].  Nothing writes this format any more. *)

module Bitbuf = Wt_bits.Bitbuf
module Bitstring = Wt_strings.Bitstring
module Rrr = Wt_bitvector.Rrr
module Container = Wt_durable.Container

exception Format_error = Container.Format_error

let fail fmt = Printf.ksprintf (fun m -> raise (Format_error m)) fmt

(* ------------------------------------------------------------------ *)
(* The layouts format v2 marshalled: verbatim copies of the record
   types of the pointer RRR coder, the append-only bitvector and the
   static and append-only tries as the format wrote them, so the live
   types are free to change.  Only [Marshal] builds these values. *)

module V2 = struct
  [@@@warning "-37-69"]

  module Rrr = struct
    type t = {
      len : int;
      total_ones : int;
      classes : Bitbuf.t; (* 6 bits per block *)
      offsets : Bitbuf.t; (* variable-width offsets, concatenated *)
      sb_ones : int array; (* cumulative ones before each superblock *)
      sb_off : int array; (* offset-stream bit position at superblock start *)
    }

    module Builder = struct
      type t = {
        src : Bitbuf.t;
        len : int;
        nblocks : int;
        nsb : int;
        classes : Bitbuf.t;
        offsets : Bitbuf.t;
        sb_ones : int array;
        sb_off : int array;
        mutable blk : int; (* next block to encode *)
        mutable total : int; (* ones so far *)
      }
    end
  end

  module Appendable = struct
    type pending = {
      raw : Bitbuf.t;
      raw_cum : int array; (* ones before each 56-bit word *)
      raw_ones : int;
      builder : Rrr.Builder.t;
    }

    type t = {
      offset_bit : bool; (* virtual constant prefix: Init's "left offset" *)
      offset_len : int;
      mutable segments : Rrr.t array; (* frozen segments of exactly seg_bits *)
      mutable nsegs : int;
      mutable cum_ones : int array; (* ones before segment i; length >= nsegs+1 *)
      mutable pending : pending option;
      mutable tail : Bitbuf.t;
      mutable tail_ones : int;
      mutable tail_cum : int array; (* ones before each 56-bit tail word; grows *)
    }
  end

  module Wavelet_trie = struct
    type node =
      | Leaf of { label : Bitstring.t; count : int }
      | Node of { label : Bitstring.t; bv : Rrr.t; zero : node; one : node }

    type t = { root : node option; n : int }
  end

  module Append_wt = struct
    type node = { mutable label : Bitstring.t; mutable kind : kind }

    and kind =
      | Leaf of { mutable count : int }
      | Internal of { bv : Appendable.t; mutable zero : node; mutable one : node }

    type t = { mutable root : node option; mutable n : int }
  end
end

(* ------------------------------------------------------------------ *)
(* Decoding a v2 trie to the sequence it stores *)

(* Bits of the pointer coder's bitvector [r], appended to [out]: every
   block, the last one included, was coded over 62 positions. *)
let decode_rrr (r : V2.Rrr.t) out =
  let nblocks = (r.len + 61) / 62 in
  if r.len < 0 || Bitbuf.length r.classes < 6 * nblocks then
    fail "RRR bitvector of %d bits with %d class bits" r.len (Bitbuf.length r.classes);
  let off = ref 0 and ones = ref 0 in
  for blk = 0 to nblocks - 1 do
    let m = Int.min 62 (r.len - (62 * blk)) and c = Bitbuf.get_bits r.classes (6 * blk) 6 in
    let w = Rrr.offset_width (Int.min c 62) in
    if c > m || !off + w > Bitbuf.length r.offsets then fail "RRR block %d: class %d" blk c;
    let bits = Rrr.decode_full_block c (Bitbuf.get_bits r.offsets !off w) in
    if bits lsr m <> 0 then fail "RRR block %d decodes past its %d bits" blk m;
    Bitbuf.add_bits out m bits;
    off := !off + w;
    ones := !ones + c
  done;
  if !ones <> r.total_ones then fail "RRR bitvector of %d ones holds %d" r.total_ones !ones

(* An append-only bitvector: its virtual constant prefix, the frozen
   segments, the pending segment's raw bits and the tail. *)
let decode_appendable (a : V2.Appendable.t) =
  if a.offset_len < 0 || a.nsegs < 0 || a.nsegs > Array.length a.segments then
    fail "append-only bitvector of %d segments" a.nsegs;
  let out = Bitbuf.create () in
  Bitbuf.add_run out a.offset_bit a.offset_len;
  for i = 0 to a.nsegs - 1 do
    if a.segments.(i).len <> 4096 then fail "segment %d of %d bits" i a.segments.(i).len;
    decode_rrr a.segments.(i) out
  done;
  Option.iter (fun (p : V2.Appendable.pending) -> Bitbuf.append out p.raw) a.pending;
  Bitbuf.append out a.tail;
  out

(* Both tries decode to this shape: a label, then a leaf's count or an
   internal node's β and children. *)
type tree = Leaf of Bitstring.t * int | Node of Bitstring.t * Bitbuf.t * tree * tree

let rec static_tree : V2.Wavelet_trie.node -> tree = function
  | Leaf { label; count } -> Leaf (label, count)
  | Node { label; bv; zero; one } ->
      let bits = Bitbuf.create () in
      decode_rrr bv bits;
      Node (label, bits, static_tree zero, static_tree one)

let rec append_tree (node : V2.Append_wt.node) =
  match node.kind with
  | Leaf { count } -> Leaf (node.label, count)
  | Internal { bv; zero; one } ->
      Node (node.label, decode_appendable bv, append_tree zero, append_tree one)

(* The decoder: the [n] binarized strings a trie stores, in order.  Each
   node yields the leaf of each position of its subsequence, merged from
   its children's by its β; each leaf's string is built once. *)
let strings ~n root =
  let leaves = ref [] and nleaves = ref 0 in
  let rec go path = function
    | Leaf (label, count) ->
        if count < 0 then fail "leaf of count %d" count;
        leaves := Bitstring.append path label :: !leaves;
        incr nleaves;
        Array.make count (!nleaves - 1)
    | Node (label, bits, zero, one) ->
        let path = Bitstring.append path label in
        let z = go (Bitstring.snoc path false) zero and o = go (Bitstring.snoc path true) one in
        let len = Bitbuf.length bits and zi = ref 0 and oi = ref 0 in
        if Array.length o <> Bitbuf.pop_count bits 0 len || Array.length z + Array.length o <> len
        then fail "β of %d bits over children of %d and %d" len (Array.length z) (Array.length o);
        Array.init len (fun i ->
            let side, k = if Bitbuf.get bits i then (o, oi) else (z, zi) in
            incr k;
            side.(!k - 1))
  in
  let ids = match root with None -> [||] | Some root -> go Bitstring.empty root in
  if Array.length ids <> n then fail "trie of length %d holds %d strings" n (Array.length ids);
  let leaves = Array.of_list (List.rev !leaves) in
  Array.map (fun id -> leaves.(id)) ids

let unmarshal : type a. string -> a =
 fun payload ->
  (* The payload is checksum-verified, so Marshal failures here mean a
     marshalling-incompatible compiler, not disk corruption — but they
     still must fail loudly, not crash. *)
  match (Marshal.from_string payload 0 : a) with
  | v -> v
  | exception (Failure _ | Invalid_argument _ | End_of_file) ->
      fail "index payload does not unmarshal (incompatible build?)"

let load tag path = unmarshal (Container.read ~expect_tag:tag path)

let load_static path =
  let (t : V2.Wavelet_trie.t) = load "static" path in
  Wavelet_trie.of_array (strings ~n:t.n (Option.map static_tree t.root))

let append_trie { V2.Append_wt.root; n } =
  Append_wt.of_array (strings ~n (Option.map append_tree root))

let load_append path = append_trie (load "append" path)
let load_dynamic path : Dynamic_wt.t = load "dynamic" path

let append_snapshot payload =
  let (generation, t) : int * V2.Append_wt.t = unmarshal payload in
  (generation, append_trie t)

let is_index_file = Container.is_container
