(* Read-only byte-addressed view over a char Bigarray.

   The flat static trie (format v3) queries its on-disk arena in place;
   a [Membuf.t] is the bounds-checked window it reads through, backed
   either by a private copy ([of_string]) or directly by an [mmap]ed
   file ([of_bigarray]).  Every read validates its range, so a corrupt
   arena offset surfaces as [Invalid_argument] — never a segfault —
   whichever backing is in use.

   Bit numbering matches {!Bitbuf}: within byte [i], bit [j] of the
   stream lives at bit [j] (LSB-first), so a bit stream serialized byte
   by byte with [Bitbuf.get_bits bb (8*i) 8] reads back identically
   here. *)

type ba = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { ba : ba; len : int }

let length t = t.len

let of_bigarray (ba : ba) = { ba; len = Bigarray.Array1.dim ba }

external unsafe_set64 : ba -> int -> int64 -> unit = "%caml_bigstring_set64u"

(* Eight bytes per store, then the rest one at a time. *)
let of_string s =
  let n = String.length s in
  let ba = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  let words = n / 8 * 8 in
  let i = ref 0 in
  while !i < words do
    unsafe_set64 ba !i (String.get_int64_ne s !i);
    i := !i + 8
  done;
  for i = words to n - 1 do
    Bigarray.Array1.unsafe_set ba i (String.unsafe_get s i)
  done;
  { ba; len = n }

let to_string t = String.init t.len (fun i -> Bigarray.Array1.unsafe_get t.ba i)

let outside t off n what =
  invalid_arg (Printf.sprintf "Membuf.%s: [%d, %d) outside [0, %d)" what off (off + n) t.len)

(* Inlined, so a read in bounds pays two comparisons and no call. *)
let[@inline] check t off n what = if off < 0 || n < 0 || off > t.len - n then outside t off n what

let sub t off len =
  check t off len "sub";
  { ba = Bigarray.Array1.sub t.ba off len; len }

let get t i =
  check t i 1 "get";
  Char.code (Bigarray.Array1.unsafe_get t.ba i)

let get_u32 t off =
  check t off 4 "get_u32";
  let b i = Char.code (Bigarray.Array1.unsafe_get t.ba (off + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* 64-bit little-endian, rejected when it does not fit a non-negative
   OCaml int (top two bits of the last byte): a corrupt length field
   must fail here, not wrap around in later arithmetic. *)
let get_u64 t off =
  check t off 8 "get_u64";
  let b i = Char.code (Bigarray.Array1.unsafe_get t.ba (off + i)) in
  let top = b 7 in
  if top land 0xC0 <> 0 then invalid_arg "Membuf.get_u64: value exceeds 62 bits";
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) lor (b 4 lsl 32)
  lor (b 5 lsl 40) lor (b 6 lsl 48) lor (top lsl 56)

let get_bit t pos =
  let byte = pos lsr 3 in
  check t byte 1 "get_bit";
  Char.code (Bigarray.Array1.unsafe_get t.ba byte) land (1 lsl (pos land 7)) <> 0

(* Unaligned native-endian 64-bit load; the caller bounds-checks. *)
external unsafe_get64 : ba -> int -> int64 = "%caml_bigstring_get64u"

(* The reads [get_bits] leaves out of line: a bad length, one outside
   the window (which raises), and one ending within eight bytes of the
   window's end or on a big-endian host, accumulated in <= 8-bit chunks
   so no intermediate shift exceeds 61 (OCaml ints are 63-bit). *)
let get_bits_slow t pos len =
  if len < 0 || len > 62 then invalid_arg "Membuf.get_bits: len outside [0, 62]";
  if len = 0 then 0
  else begin
    let first_byte = pos lsr 3 in
    let last_byte = (pos + len - 1) lsr 3 in
    check t first_byte (last_byte - first_byte + 1) "get_bits";
    let sh = pos land 7 in
    let take = Int.min len (8 - sh) in
    let acc = ref ((Char.code (Bigarray.Array1.unsafe_get t.ba first_byte) lsr sh)
                   land ((1 lsl take) - 1)) in
    let got = ref take in
    let byte = ref (first_byte + 1) in
    while !got < len do
      let take = Int.min 8 (len - !got) in
      let v = Char.code (Bigarray.Array1.unsafe_get t.ba !byte) land ((1 lsl take) - 1) in
      acc := !acc lor (v lsl !got);
      got := !got + take;
      incr byte
    done;
    !acc
  end

(* [get_bits t pos len] reads [len <= 62] bits starting at bit [pos],
   LSB-first, mirroring [Bitbuf.get_bits].  When the eight bytes from
   the first one lie inside the window (and the host is little-endian)
   one 64-bit load covers a read of up to 64 - (pos mod 8) bits — every
   read of at most 56 — and a longer one adds the ninth byte.  That path
   is inlined into the caller. *)
let[@inline] get_bits t pos len =
  let first_byte = pos lsr 3 in
  if len <= 0 || len > 62 || first_byte > t.len - 8
     || (pos + len - 1) lsr 3 >= t.len || Sys.big_endian
  then get_bits_slow t pos len
  else
    let sh = pos land 7 in
    let x = Int64.to_int (Int64.shift_right_logical (unsafe_get64 t.ba first_byte) sh) in
    if len <= 64 - sh then x land ((1 lsl len) - 1)
    else
      (x lor (Char.code (Bigarray.Array1.unsafe_get t.ba (first_byte + 8)) lsl (64 - sh)))
      land ((1 lsl len) - 1)

(* Popcount of a non-negative value below 2^56: byte sums, then one
   multiply gathers them in bits 48..55 (at most 56, no carries). *)
let[@inline] pop56 x =
  let x = x - ((x lsr 1) land 0x55_5555_5555_5555) in
  let x = (x land 0x33_3333_3333_3333) + ((x lsr 2) land 0x33_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f_0f0f_0f0f_0f0f in
  ((x * 0x01_0101_0101_0101) lsr 48) land 0xff

(* [popcount t pos n]: the set bits among bits [pos, pos + n), 56 per
   load.  One bounds check covers every load when the range ends at
   least eight bytes before the window does (each load reads eight
   bytes from its first); closer to the end, each chunk goes through
   [get_bits]. *)
let popcount t pos n =
  if n < 0 || pos < 0 then invalid_arg "Membuf.popcount: negative position or length";
  let acc = ref 0 and p = ref pos and rest = ref n in
  if n > 0 && ((pos + n - 1) lsr 3) + 8 <= t.len && not Sys.big_endian then begin
    while !rest > 0 do
      let x = Int64.to_int (Int64.shift_right_logical (unsafe_get64 t.ba (!p lsr 3)) (!p land 7)) in
      let k = Int.min 56 !rest in
      acc := !acc + pop56 (x land ((1 lsl k) - 1));
      p := !p + 56;
      rest := !rest - 56
    done
  end
  else
    while !rest > 0 do
      let k = Int.min 56 !rest in
      acc := !acc + pop56 (get_bits t !p k);
      p := !p + k;
      rest := !rest - k
    done;
  !acc
