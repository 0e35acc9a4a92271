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
   bits can be dropped and restored from the depth.  Each byte whose
   eight data bits all lie in the label is then stored as its rank in
   the byte set B of the arena's strings, in w bits; a first byte cut
   by the depth keeps its data bits. *)

(* B as a 256-bit set, bit [b land 7] of byte [b lsr 3] for byte b, and
   its code both ways.  A stored code is the rank, most significant bit
   first, so the set of all 256 bytes codes each byte as its data bits. *)
type code = {
  set : string;
  size : int; (* |B| *)
  width : int; (* w = max 1 (bit_width (|B| - 1)) *)
  enc : int array; (* by a byte's data bits as read: its stored code, -1 outside B *)
  dec : int array; (* by a stored code: the byte's 9-bit group, -1 for a rank >= |B| *)
}

let set_bytes = 32
let mem set b = Char.code set.[b lsr 3] land (1 lsl (b land 7)) <> 0

let code_of_set set =
  if String.length set <> set_bytes then invalid_arg "Binarize.code_of_set: not a 256-bit set";
  let size = ref 0 in
  for b = 0 to 255 do
    if mem set b then incr size
  done;
  let size = !size in
  let width = Int.max 1 (Broadword.bit_width (Int.max 0 (size - 1))) in
  let enc = Array.make 256 (-1) and dec = Array.make (1 lsl width) (-1) in
  let r = ref 0 in
  for b = 0 to 255 do
    if mem set b then begin
      let g = Broadword.reverse_bits !r width in
      enc.(Broadword.reverse_bits b 8) <- g;
      dec.(g) <- code.(b);
      incr r
    end
  done;
  { set; size; width; enc; dec }

let full_set = String.make set_bytes '\xff'
let empty_set = String.make set_bytes '\000'
let code_set c = c.set
let code_size c = c.size
let code_width c = c.width

(* A 256-bit set from per-byte flags. *)
let set_of_flags seen =
  String.init set_bytes (fun i ->
      let v = ref 0 in
      for j = 0 to 7 do
        if Bytes.unsafe_get seen ((8 * i) + j) <> '\000' then v := !v lor (1 lsl j)
      done;
      Char.chr !v)

let byte_set strings =
  let seen = Bytes.make 256 '\000' in
  for i = 0 to Array.length strings - 1 do
    let s = Array.unsafe_get strings i in
    for j = 0 to String.length s - 1 do
      Bytes.unsafe_set seen (Char.code (String.unsafe_get s j)) '\001'
    done
  done;
  set_of_flags seen

let add_set seen set =
  for b = 0 to 255 do
    if mem set b then Bytes.set seen b '\001'
  done

let label_bytes seen ~depth len v part =
  let v = ref v and pos = ref depth and rest = ref len in
  let part = ref (part land 0xff) and fresh = ref 0 in
  while !rest > 0 do
    let phase = !pos mod 9 in
    if phase = 0 then begin
      part := 0;
      v := !v lsr 1;
      incr pos;
      decr rest
    end
    else begin
      let take = Int.min (9 - phase) !rest in
      part := !part lor ((!v land ((1 lsl take) - 1)) lsl (phase - 1));
      v := !v lsr take;
      pos := !pos + take;
      rest := !rest - take;
      if phase + take = 9 then begin
        let b = Char.code (String.unsafe_get byte_of_bits !part) in
        if Bytes.get seen b = '\000' then begin
          Bytes.set seen b '\001';
          fresh := 256
        end;
        part := 0
      end
    end
  done;
  !part lor !fresh

(* Positions = 0 (mod 9) in [depth, depth + len). *)
let markers ~depth len = ((depth + len + 8) / 9) - ((depth + 8) / 9)

(* A label from depth d stores: at d = 2..8 (mod 9) the cut byte's
   9 - d data bits, then w bits per byte; at d = 1 (mod 9) its first
   byte lost only its marker, so it is coded too. *)
let unpacked_length c ~depth stored =
  let w = c.width in
  match depth mod 9 with
  | 0 -> if stored mod w = 0 then (9 * (stored / w)) + 1 else -1
  | 1 -> if stored mod w = 0 then 9 * (stored / w) else -1
  | phase ->
      let head = 9 - phase in
      if stored >= head && (stored - head) mod w = 0 then head + (9 * ((stored - head) / w)) + 1
      else -1

let pack_bits c out ~depth len v =
  let v = ref v and pos = ref depth and rest = ref len in
  let kept = ref 0 and nkept = ref 0 and dropped = ref 0 and ndropped = ref 0 in
  while !rest > 0 do
    match !pos mod 9 with
    | 0 ->
        dropped := !dropped lor ((!v land 1) lsl !ndropped);
        incr ndropped;
        v := !v lsr 1;
        incr pos;
        decr rest
    | 1 ->
        if !rest < 8 then invalid_arg "Binarize.pack_bits: a byte cut by the bits' end";
        let g = c.enc.(!v land 0xff) in
        if g < 0 then invalid_arg "Binarize.pack_bits: a byte outside the code's set";
        kept := !kept lor (g lsl !nkept);
        nkept := !nkept + c.width;
        v := !v lsr 8;
        pos := !pos + 8;
        rest := !rest - 8
    | phase ->
        (* the data bits of a byte cut by the label's depth *)
        let take = Int.min (9 - phase) !rest in
        kept := !kept lor ((!v land ((1 lsl take) - 1)) lsl !nkept);
        nkept := !nkept + take;
        v := !v lsr take;
        pos := !pos + take;
        rest := !rest - take
  done;
  Bitbuf.add_bits out !nkept !kept;
  !dropped

let bad_code () = invalid_arg "Binarize.unpack: a byte code past the byte set"

let unpack c mb bit ~depth ~stored out =
  if unpacked_length c ~depth stored < 0 then
    invalid_arg "Binarize.unpack: the stored length ends no encoded string";
  let phase = depth mod 9 in
  if stored > 0 || phase = 0 then begin
    let w = c.width and dec = c.dec in
    let mask = (1 lsl w) - 1 in
    let p = ref 0 in
    if phase = 1 then begin
      (* the first byte's marker lies above the leaf *)
      let g = dec.(Wt_bits.Membuf.get_bits mb bit w) in
      if g < 0 then bad_code ();
      Bitbuf.add_bits out 8 (g lsr 1);
      p := w
    end
    else if phase > 1 then begin
      p := 9 - phase;
      Bitbuf.add_bits out !p (Wt_bits.Membuf.get_bits mb bit !p)
    end;
    (* six bytes per read *)
    while !p + (6 * w) <= stored do
      let x = Wt_bits.Membuf.get_bits mb (bit + !p) (6 * w) in
      let g0 = Array.unsafe_get dec (x land mask)
      and g1 = Array.unsafe_get dec ((x lsr w) land mask)
      and g2 = Array.unsafe_get dec ((x lsr (2 * w)) land mask)
      and g3 = Array.unsafe_get dec ((x lsr (3 * w)) land mask)
      and g4 = Array.unsafe_get dec ((x lsr (4 * w)) land mask)
      and g5 = Array.unsafe_get dec ((x lsr (5 * w)) land mask) in
      if g0 lor g1 lor g2 lor g3 lor g4 lor g5 < 0 then bad_code ();
      Bitbuf.add_bits out 54
        (g0 lor (g1 lsl 9) lor (g2 lsl 18) lor (g3 lsl 27) lor (g4 lsl 36) lor (g5 lsl 45));
      p := !p + (6 * w)
    done;
    while !p < stored do
      let g = dec.(Wt_bits.Membuf.get_bits mb (bit + !p) w) in
      if g < 0 then bad_code ();
      Bitbuf.add_bits out 9 g;
      p := !p + w
    done;
    Bitbuf.add_bits out 1 0
  end
