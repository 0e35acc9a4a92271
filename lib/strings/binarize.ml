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
(* Labels without their marker bits.  In an encoded string every bit
   at a position p = 0 (mod 9) is fixed by p alone: a 1 before each
   byte, the terminator 0 after the last.  A trie node's label is a run
   of its strings' bits from the node's bit depth, so those bits can be
   dropped and restored from the depth: inside an internal label each
   is a 1, and a leaf's label ends with the terminator.  Each byte whose
   eight data bits all lie in the label is then stored as its rank in
   the byte set B of the arena's strings, in w bits; a first byte cut by
   the depth, and a last byte cut by the label's end, keep their data
   bits.  A leaf's stored length says where its label ends; an internal
   label's says it up to a few end states, so an end field follows its
   bits. *)

(* B as a 256-bit set, bit [b land 7] of byte [b lsr 3] for byte b, and
   its code both ways.  A stored code is the rank, most significant bit
   first, so the set of all 256 bytes codes each byte as its data bits.
   The label tables are indexed by [phase * 9 + m]: the labels from a
   depth of that phase (mod 9) whose end, the depth after their last
   bit, has phase [m], their end state.  The shortest is [l0] bits long
   and stored in [s0]; nine bits more store [s1], and each nine after
   that w more. *)
type code = {
  set : string;
  size : int; (* |B| *)
  width : int; (* w = max 1 (bit_width (|B| - 1)) *)
  enc : int array; (* by a byte's data bits as read: its stored code, -1 outside B *)
  dec : int array; (* by a stored code: the byte's 9-bit group, -1 for a rank >= |B| *)
  l0 : int array;
  s0 : int array;
  s1 : int array;
  ends : int array;
      (* by phase and stored length ([ends_index]): the count of end
         states that length admits in 4 bits, then the states, 4 bits
         each in increasing order *)
  end_bits : int; (* the end field's width *)
}

(* Positions = 0 (mod 9) in [depth, depth + len). *)
let markers ~depth len = ((depth + len + 8) / 9) - ((depth + 8) / 9)

(* The stored bits of a label of [len] bits from [depth]: its data bits,
   less 8 - w for each byte whose data bits [9j + 1, 9j + 9) lie in it. *)
let stored_bits ~width ~depth len =
  let whole = Int.max 0 (((depth + len) / 9) - ((depth + 7) / 9)) in
  len - markers ~depth len - ((8 - width) * whole)

(* A stored length of 16 or more is past every [s0] (at most 8) and
   [s1] (at most 16), so the end states it admits depend on it only
   mod w. *)
let ends_index c phase stored =
  (phase * (16 + c.width))
  + if stored < 16 then stored else 16 + ((stored - 16) mod c.width)

(* The length of the label of [stored] bits from a depth of phase
   [phase] with end state [m], or -1 when there is none. *)
let length_at c phase stored m =
  let i = (phase * 9) + m in
  let s1 = Array.unsafe_get c.s1 i in
  if stored = Array.unsafe_get c.s0 i then Array.unsafe_get c.l0 i
  else if stored >= s1 && (stored - s1) mod c.width = 0 then
    Array.unsafe_get c.l0 i + 9 + (9 * ((stored - s1) / c.width))
  else -1

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
  let l0 = Array.init 81 (fun i -> ((i mod 9) - (i / 9) + 9) mod 9) in
  let s0 = Array.init 81 (fun i -> stored_bits ~width ~depth:(i / 9) l0.(i)) in
  let s1 = Array.init 81 (fun i -> stored_bits ~width ~depth:(i / 9) (l0.(i) + 9)) in
  let c = { set; size; width; enc; dec; l0; s0; s1; ends = [||]; end_bits = 0 } in
  let ends =
    Array.init (9 * (16 + width)) (fun i ->
        let phase = i / (16 + width) and stored = i mod (16 + width) in
        let e = ref 0 and count = ref 0 in
        for m = 0 to 8 do
          if length_at c phase stored m >= 0 then begin
            incr count;
            e := !e lor (m lsl (4 * !count))
          end
        done;
        !e lor !count)
  in
  let most = Array.fold_left (fun acc e -> Int.max acc (e land 15)) 0 ends in
  { c with ends; end_bits = Broadword.bit_width (most - 1) }

let full_set = String.make set_bytes '\xff'
let empty_set = String.make set_bytes '\000'
let code_set c = c.set
let code_size c = c.size
let code_width c = c.width
let end_width c = c.end_bits
let stored_length c ~depth len = stored_bits ~width:c.width ~depth len

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

(* A leaf's label ends with the terminator, at a position = 0 (mod 9):
   its end state is 1. *)
let unpacked_length c ~depth stored = if stored < 0 then -1 else length_at c (depth mod 9) stored 1

let internal_length c ~depth ~stored field =
  if stored < 0 then -1
  else
    let phase = depth mod 9 in
    let e = Array.unsafe_get c.ends (ends_index c phase stored) in
    if field < 0 || field >= e land 15 then -1
    else length_at c phase stored ((e lsr (4 * (field + 1))) land 15)

let end_field c ~depth len =
  let phase = depth mod 9 and m = (depth + len) mod 9 in
  let e = c.ends.(ends_index c phase (stored_length c ~depth len)) in
  let i = ref 0 in
  while !i < e land 15 && (e lsr (4 * (!i + 1))) land 15 <> m do
    incr i
  done;
  if !i = e land 15 then invalid_arg "Binarize.end_field: negative length";
  !i

(* No closure here or in [walk]: a ref a closure captures is boxed,
   and both run once per label. *)
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
    | 1 when !rest >= 8 ->
        let g = c.enc.(!v land 0xff) in
        if g < 0 then invalid_arg "Binarize.pack_bits: a byte outside the code's set";
        kept := !kept lor (g lsl !nkept);
        nkept := !nkept + c.width;
        v := !v lsr 8;
        pos := !pos + 8;
        rest := !rest - 8
    | phase ->
        (* the data bits of a byte cut by the label's depth or end *)
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

(* [out] of a comparing walk: never written *)
let no_out = Bitbuf.create ~capacity_bits:0 ()

(* Piece [v] of [k <= 54] bits at logical bit [q] of a label: appended
   to [out], or, when [out] is [no_out], compared with the bits of [s]
   from [off + q].  The common prefix when it ends within the piece (at
   a bit that differs, or at the end of [s]), else -1. *)
let piece out s off q k v =
  if out != no_out then begin
    Bitbuf.add_bits out k v;
    -1
  end
  else
    let k' = Int.min k (Bitstring.length s - off - q) in
    let x = (v lxor Bitstring.get_bits s (off + q) k') land ((1 lsl k') - 1) in
    if x <> 0 then q + Broadword.lowest_bit x else if k' < k then q + k' else -1

(* The [len] logical bits of a label whose stored bits start at bit
   [bit] of [mb], from bit depth [depth] (every marker a 1, but for a
   leaf's last bit, its terminator), piece by piece through [piece]:
   their common prefix with the bits of [s] from [off], or [len]. *)
let walk c mb bit ~depth len ~leaf out s off =
  let w = c.width and dec = c.dec in
  let phase = depth mod 9 in
  let p = ref 0 and q = ref 0 and l = ref (-1) in
  if phase = 1 && len >= 8 then begin
    (* a whole first byte: its marker lies above the label *)
    let g = dec.(Wt_bits.Membuf.get_bits mb bit w) in
    if g < 0 then bad_code ();
    l := piece out s off 0 8 (g lsr 1);
    p := w;
    q := 8
  end
  else if phase >= 1 then begin
    (* a first byte cut by the depth, or by the label's end *)
    let take = Int.min (9 - phase) len in
    l := piece out s off 0 take (Wt_bits.Membuf.get_bits mb bit take);
    p := take;
    q := take
  end;
  (* the rest starts at a marker: up to six whole bytes per read *)
  let mask = (1 lsl w) - 1 in
  while !l < 0 && len - !q >= 9 do
    let k = Int.min 6 ((len - !q) / 9) in
    let x = Wt_bits.Membuf.get_bits mb (bit + !p) (k * w) in
    let v = ref 0 and bad = ref 0 in
    for j = 0 to k - 1 do
      let g = Array.unsafe_get dec ((x lsr (j * w)) land mask) in
      bad := !bad lor g;
      v := !v lor (g lsl (9 * j))
    done;
    if !bad < 0 then bad_code ();
    l := piece out s off !q (9 * k) !v;
    p := !p + (k * w);
    q := !q + (9 * k)
  done;
  if !l < 0 && len > !q then begin
    (* a marker, then the data bits of a byte cut by the label's end *)
    let take = len - !q - 1 in
    l :=
      piece out s off !q (take + 1)
        (Bool.to_int (not leaf) lor (Wt_bits.Membuf.get_bits mb (bit + !p) take lsl 1))
  end;
  if !l < 0 then len else !l

let decode c mb bit ~depth len ~leaf out =
  ignore (walk c mb bit ~depth len ~leaf out Bitstring.empty 0 : int)

let unpack c mb bit ~depth ~stored out =
  let len = unpacked_length c ~depth stored in
  if len < 0 then invalid_arg "Binarize.unpack: the stored length ends no encoded string";
  decode c mb bit ~depth len ~leaf:true out

let unpack_internal c mb bit ~depth len out = decode c mb bit ~depth len ~leaf:false out

let lcp c mb bit ~depth len ~leaf s off = walk c mb bit ~depth len ~leaf no_out s off
