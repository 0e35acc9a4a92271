module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword

(* The backing buffer is never mutated after construction; [off]/[len]
   delimit the view, so sub/drop/prefix are O(1). *)
type t = { buf : Bitbuf.t; off : int; len : int }

let empty = { buf = Bitbuf.create ~capacity_bits:8 (); off = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitstring.get: out of bounds";
  Bitbuf.get t.buf (t.off + i)

let get_bits t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Bitstring.get_bits: out of bounds";
  Bitbuf.get_bits t.buf (t.off + pos) len

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitstring.sub";
  { t with off = t.off + pos; len }

let drop t n = sub t n (t.len - n)
let prefix t n = sub t 0 n

let of_bitbuf buf = { buf = Bitbuf.copy buf; off = 0; len = Bitbuf.length buf }

let unsafe_of_bitbuf buf = { buf; off = 0; len = Bitbuf.length buf }

let append_to_bitbuf t out = Bitbuf.blit t.buf t.off out t.len

let concat ts =
  let total = List.fold_left (fun acc t -> acc + t.len) 0 ts in
  let out = Bitbuf.create ~capacity_bits:total () in
  List.iter (fun t -> append_to_bitbuf t out) ts;
  { buf = out; off = 0; len = total }

let append a b = concat [ a; b ]

let of_bool_list bits =
  let out = Bitbuf.create ~capacity_bits:(List.length bits) () in
  List.iter (Bitbuf.add out) bits;
  { buf = out; off = 0; len = List.length bits }

let cons b t =
  let out = Bitbuf.create ~capacity_bits:(t.len + 1) () in
  Bitbuf.add out b;
  append_to_bitbuf t out;
  { buf = out; off = 0; len = t.len + 1 }

let snoc t b =
  let out = Bitbuf.create ~capacity_bits:(t.len + 1) () in
  append_to_bitbuf t out;
  Bitbuf.add out b;
  { buf = out; off = 0; len = t.len + 1 }

(* A loop, not a local recursive function: a closure per call would
   allocate on every label comparison of a trie walk. *)
let lcp_from a b off =
  let n = Int.min a.len (b.len - off) in
  let pos = ref 0 and l = ref n in
  while !pos < !l do
    let chunk = Int.min 56 (n - !pos) in
    let wa = Bitbuf.get_bits a.buf (a.off + !pos) chunk in
    let wb = Bitbuf.get_bits b.buf (b.off + off + !pos) chunk in
    let x = wa lxor wb in
    if x <> 0 then l := !pos + Broadword.lowest_bit x;
    pos := !pos + chunk
  done;
  !l

let lcp a b = lcp_from a b 0

let is_prefix ~prefix t = prefix.len <= t.len && lcp prefix t = prefix.len

let compare a b =
  let l = lcp a b in
  if l = a.len && l = b.len then 0
  else if l = a.len then -1
  else if l = b.len then 1
  else if get a l then 1
  else -1

let equal a b = a.len = b.len && lcp a b = a.len

let hash t =
  (* FNV-style over 56-bit chunks of the view. *)
  let h = ref 0x1505 in
  let pos = ref 0 in
  while !pos < t.len do
    let chunk = Int.min 56 (t.len - !pos) in
    let w = Bitbuf.get_bits t.buf (t.off + !pos) chunk in
    h := (((!h lsl 5) + !h) lxor w) land max_int;
    pos := !pos + chunk
  done;
  (((!h lsl 5) + !h) lxor t.len) land max_int

let of_string s =
  let out = Bitbuf.of_string s in
  { buf = out; off = 0; len = Bitbuf.length out }

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let to_bool_list t = List.init t.len (get t)

let pp fmt t = Format.pp_print_string fmt (to_string t)
