(* Block-sampled fixed-width offsets (arena versions 2 and 3, read
   only).

     headers   ceil (k / 32) records of wa + wp + 6 bits:
               first value (wa = bit_width u bits), bit position of the
               block's differences within the differences area
               (wp = bit_width (31 * wa * blocks) bits), and the block's
               difference width w (6 bits)
     diffs     per block, its values 1 .. 31 minus value 0, w bits each

   Both header widths follow from [count] and [universe], so a header is
   addressed by multiplication. *)

module Broadword = Wt_bits.Broadword
module Membuf = Wt_bits.Membuf

let block = 32

type t = {
  mb : Membuf.t;
  k : int;
  wa : int;
  wp : int;
  headers_bit : int;
  diffs_bit : int;
}

let blocks count = (count + block - 1) / block
let widths ~count ~universe =
  let wa = Broadword.bit_width universe in
  (wa, Broadword.bit_width (31 * wa * blocks count))

let headers_bits ~count ~universe =
  let wa, wp = widths ~count ~universe in
  blocks count * (wa + wp + 6)

let of_membuf mb ~bit ~count ~universe =
  let wa, wp = widths ~count ~universe in
  {
    mb;
    k = count;
    wa;
    wp;
    headers_bit = bit;
    diffs_bit = bit + headers_bits ~count ~universe;
  }

let length t = t.k

let header t b = t.headers_bit + (b * (t.wa + t.wp + 6))

(* The header at bit [h] as (first value, differences position, width):
   one read when the three fields fit 56 bits, as they do below 2^25
   values. *)
let read_header t h =
  let hw = t.wa + t.wp + 6 in
  if hw <= 56 then begin
    let x = Membuf.get_bits t.mb h hw in
    (x land ((1 lsl t.wa) - 1), (x lsr t.wa) land ((1 lsl t.wp) - 1), x lsr (t.wa + t.wp))
  end
  else
    ( Membuf.get_bits t.mb h t.wa,
      Membuf.get_bits t.mb (h + t.wa) t.wp,
      Membuf.get_bits t.mb (h + t.wa + t.wp) 6 )

let diff t ptr w j = if j = 0 then 0 else Membuf.get_bits t.mb (t.diffs_bit + ptr + ((j - 1) * w)) w

let get t i =
  if i < 0 || i >= t.k then invalid_arg "Flat_offsets.get: out of bounds";
  let first, ptr, w = read_header t (header t (i / block)) in
  first + diff t ptr w (i mod block)

let get2 t i =
  if i < 0 || i + 1 >= t.k then invalid_arg "Flat_offsets.get2: out of bounds";
  let b = i / block and j = i mod block in
  let first, ptr, w = read_header t (header t b) in
  if j + 1 < block then
    if j > 0 && 2 * w <= 56 then begin
      (* both differences in one read *)
      let x = Membuf.get_bits t.mb (t.diffs_bit + ptr + ((j - 1) * w)) (2 * w) in
      (first + (x land ((1 lsl w) - 1)), first + (x lsr w))
    end
    else (first + diff t ptr w j, first + diff t ptr w (j + 1))
  else
    let next, _, _ = read_header t (header t (b + 1)) in
    (first + diff t ptr w j, next)
