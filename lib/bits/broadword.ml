(* Byte-table implementations, except [popcount].  The classic 64-bit
   SWAR constants (0x5555_5555_5555_5555 etc.) do not fit in OCaml's
   63-bit int literals; [popcount] only takes non-negative ints (62
   data bits), for which the constants truncated to 62 bits do. *)

let popcount_table =
  let t = Bytes.create 256 in
  for i = 0 to 255 do
    let rec count x = if x = 0 then 0 else (x land 1) + count (x lsr 1) in
    Bytes.unsafe_set t i (Char.unsafe_chr (count i))
  done;
  t

(* [select_table.((b lsl 3) lor k)] is the position of the [k]-th set bit of
   byte [b], or 8 when [b] has at most [k] set bits. *)
let select_table =
  let t = Bytes.create (256 * 8) in
  for b = 0 to 255 do
    let k = ref 0 in
    for pos = 0 to 7 do
      if b land (1 lsl pos) <> 0 then begin
        Bytes.unsafe_set t ((b lsl 3) lor !k) (Char.unsafe_chr pos);
        incr k
      end
    done;
    for k = !k to 7 do
      Bytes.unsafe_set t ((b lsl 3) lor k) '\008'
    done
  done;
  t

let popcount_byte b =
  Char.code (Bytes.unsafe_get popcount_table (b land 0xff))

(* SWAR over 62 bits: pair, nibble and byte sums, then one multiply
   gathers the byte sums in bits 56..62 (the total, at most 62, fits in
   the 7 bits the 63-bit product keeps there). *)
let[@inline] popcount x =
  if x < 0 then invalid_arg "Broadword.popcount: negative argument";
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Broadword select (after Vigna, "Broadword implementation of
   rank/select queries", 2008): byte popcounts as in [popcount], their
   prefix sums in one multiply (byte i holds the ones in bytes 0..i, at
   most 62, so no byte carries and the top byte fits its 7 bits), the
   number of bytes whose prefix is at most [k] — the byte holding the
   [k]-th one — by one byte-parallel subtraction of the prefixes from
   [k + 64] (bit 6 of each difference is set iff prefix <= k), then one
   table lookup inside that byte. *)
let l8 = 0x0101_0101_0101_0101

let[@inline] select_in_word x k =
  if k < 0 then invalid_arg "Broadword.select_in_word: negative index";
  if x < 0 then invalid_arg "Broadword.select_in_word: negative word";
  let s = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let s = (s land 0x3333_3333_3333_3333) + ((s lsr 2) land 0x3333_3333_3333_3333) in
  let s = (s + (s lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  let prefix = s * l8 in
  if k >= prefix lsr 56 then invalid_arg "Broadword.select_in_word: index out of range";
  (* bytes 0..6 only: the top byte's prefix, the total, exceeds k *)
  let le = (((k + 64) * l8) - prefix) land 0x0040_4040_4040_4040 in
  let i = ((le lsr 6) * l8) lsr 56 in
  let before = ((prefix lsl 8) lsr (8 * i)) land 0xff in
  (8 * i)
  + Char.code (Bytes.unsafe_get select_table ((((x lsr (8 * i)) land 0xff) lsl 3) lor (k - before)))

let mask n =
  if n < 0 || n > 62 then invalid_arg "Broadword.mask"
  else if n = 62 then (1 lsl 62) - 1
  else (1 lsl n) - 1

let select0_in_word x len k =
  if len < 0 || len > 62 then invalid_arg "Broadword.select0_in_word: bad len";
  select_in_word (lnot x land mask len) k

let lowest_bit x =
  if x = 0 then invalid_arg "Broadword.lowest_bit: zero argument";
  let rec go x base =
    if x land 0xff <> 0 then
      base + Char.code (Bytes.unsafe_get select_table ((x land 0xff) lsl 3))
    else go (x lsr 8) (base + 8)
  in
  go x 0

let highest_bit x =
  if x <= 0 then invalid_arg "Broadword.highest_bit: non-positive argument";
  let rec go x acc = if x > 0xff then go (x lsr 8) (acc + 8) else acc in
  let base = go x 0 in
  let b = x lsr base in
  let rec top i = if b lsr i <> 0 then i else top (i - 1) in
  base + top 7

let bit_width x = if x = 0 then 0 else highest_bit x + 1

let reverse_bits x len =
  if len < 0 || len > 62 then invalid_arg "Broadword.reverse_bits";
  let rec go i acc =
    if i >= len then acc
    else go (i + 1) (acc lor (((x lsr i) land 1) lsl (len - 1 - i)))
  in
  go 0 0
