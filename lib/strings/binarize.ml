module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword

(* Byte [c]'s 9-bit code as an LSB-first bit group: the [1] marker, then
   the data bits MSB first (MSB first preserves byte order under
   bit-lexicographic compare). *)
let code = Array.init 256 (fun c -> 1 lor (Broadword.reverse_bits c 8 lsl 1))

(* The inverse of the data bits: 8 stream bits back to the byte. *)
let byte_of_bits = String.init 256 (fun v -> Char.chr (Broadword.reverse_bits v 8))

let code_at s i = code.(Char.code (String.unsafe_get s i))

let of_bytes s =
  let n = String.length s in
  (* 63 bits of slack past the terminator: reads near the end take the
     one-load path of [Bitbuf.get_bits] too *)
  let out = Bitbuf.create ~capacity_bits:((9 * n) + 64) () in
  let i = ref 0 in
  (* six codes (54 bits) per append *)
  while !i + 6 <= n do
    let p = !i in
    Bitbuf.add_bits out 54
      (code_at s p
      lor (code_at s (p + 1) lsl 9)
      lor (code_at s (p + 2) lsl 18)
      lor (code_at s (p + 3) lsl 27)
      lor (code_at s (p + 4) lsl 36)
      lor (code_at s (p + 5) lsl 45));
    i := p + 6
  done;
  while !i < n do
    Bitbuf.add_bits out 9 (code_at s !i);
    incr i
  done;
  Bitbuf.add out false;
  Bitstring.unsafe_of_bitbuf out

(* Codes whose six markers (bits 0, 9, ..., 45 of a 54-bit read) are all
   set decode without further checks. *)
let markers6 = 1 lor (1 lsl 9) lor (1 lsl 18) lor (1 lsl 27) lor (1 lsl 36) lor (1 lsl 45)

let to_bytes bs =
  let n = Bitstring.length bs in
  let out = Bytes.create (n / 9) in
  let rec go pos k =
    let w = if n - pos >= 54 then Bitstring.get_bits bs pos 54 else 0 in
    if w land markers6 = markers6 then begin
      for j = 0 to 5 do
        Bytes.unsafe_set out (k + j) byte_of_bits.[(w lsr ((9 * j) + 1)) land 0xff]
      done;
      go (pos + 54) (k + 6)
    end
    else if pos >= n then invalid_arg "Binarize.to_bytes: missing terminator"
    else if not (Bitstring.get bs pos) then
      if pos + 1 = n then Bytes.sub_string out 0 k
      else invalid_arg "Binarize.to_bytes: trailing bits"
    else if pos + 9 > n then invalid_arg "Binarize.to_bytes: truncated byte"
    else begin
      Bytes.unsafe_set out k byte_of_bits.[Bitstring.get_bits bs (pos + 1) 8];
      go (pos + 9) (k + 1)
    end
  in
  go 0 0

let of_int_msb ~width v =
  if width < 1 || width > 62 then invalid_arg "Binarize.of_int_msb: bad width";
  if v < 0 || (width < 62 && v >= 1 lsl width) then
    invalid_arg "Binarize.of_int_msb: value out of range";
  let out = Bitbuf.create ~capacity_bits:width () in
  Bitbuf.add_bits out width (Broadword.reverse_bits v width);
  Bitstring.of_bitbuf out

let to_int_msb bs =
  let w = Bitstring.length bs in
  if w < 1 || w > 62 then invalid_arg "Binarize.to_int_msb: bad width";
  Broadword.reverse_bits (Bitstring.get_bits bs 0 w) w

let of_int_lsb ~width v =
  if width < 1 || width > 62 then invalid_arg "Binarize.of_int_lsb: bad width";
  if v < 0 || (width < 62 && v >= 1 lsl width) then
    invalid_arg "Binarize.of_int_lsb: value out of range";
  let out = Bitbuf.create ~capacity_bits:width () in
  Bitbuf.add_bits out width v;
  Bitstring.of_bitbuf out

let to_int_lsb bs =
  let w = Bitstring.length bs in
  if w < 1 || w > 62 then invalid_arg "Binarize.to_int_lsb: bad width";
  Bitstring.get_bits bs 0 w

(* ------------------------------------------------------------------ *)
(* Leaf labels without their marker bits.  In an encoded string every
   bit at a position p = 0 (mod 9) is fixed by p alone: a 1 before
   each byte, the terminator 0 after the last.  A trie leaf's label is
   its string's bits from the leaf's bit depth to the end, so those
   bits can be dropped and restored from the depth. *)

(* Positions = 0 (mod 9) in [depth, depth + len). *)
let markers ~depth len = ((depth + len + 8) / 9) - ((depth + 8) / 9)

let unpacked_length ~depth stored =
  let phase = depth mod 9 in
  if phase = 0 then if stored land 7 = 0 then stored + (stored lsr 3) + 1 else -1
  else if stored = 0 then if phase = 1 then 0 else -1
  else
    let head = 9 - phase in
    if stored >= head && (stored - head) land 7 = 0 then stored + ((stored - head) lsr 3) + 1
    else -1

let pack_bits out ~depth len v =
  let v = ref v and pos = ref depth and rest = ref len in
  let kept = ref 0 and nkept = ref 0 and dropped = ref 0 and ndropped = ref 0 in
  while !rest > 0 do
    (* data bits before the next position = 0 (mod 9) *)
    let gap = 8 - ((!pos + 8) mod 9) in
    if gap = 0 then begin
      dropped := !dropped lor ((!v land 1) lsl !ndropped);
      incr ndropped;
      v := !v lsr 1;
      incr pos;
      decr rest
    end
    else begin
      let take = Int.min gap !rest in
      kept := !kept lor ((!v land ((1 lsl take) - 1)) lsl !nkept);
      nkept := !nkept + take;
      v := !v lsr take;
      pos := !pos + take;
      rest := !rest - take
    end
  done;
  Bitbuf.add_bits out !nkept !kept;
  !dropped

(* Six data bytes (48 stream bits) with their markers put back. *)
let spread6 w =
  let r = ref markers6 in
  for j = 0 to 5 do
    r := !r lor (((w lsr (8 * j)) land 0xff) lsl ((9 * j) + 1))
  done;
  !r

let unpack mb bit ~depth ~stored out =
  if unpacked_length ~depth stored < 0 then
    invalid_arg "Binarize.unpack: the stored length ends no encoded string";
  if stored > 0 || depth mod 9 = 0 then begin
    let phase = depth mod 9 in
    let p = ref (if phase = 0 then 0 else 9 - phase) in
    if !p > 0 then Bitbuf.add_bits out !p (Wt_bits.Membuf.get_bits mb bit !p);
    while !p + 48 <= stored do
      Bitbuf.add_bits out 54 (spread6 (Wt_bits.Membuf.get_bits mb (bit + !p) 48));
      p := !p + 48
    done;
    while !p < stored do
      Bitbuf.add_bits out 9 (1 lor (Wt_bits.Membuf.get_bits mb (bit + !p) 8 lsl 1));
      p := !p + 8
    done;
    Bitbuf.add_bits out 1 0
  end
