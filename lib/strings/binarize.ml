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
   eight data bits all lie in the label is then stored as its codeword
   in a canonical prefix code over bytes; a first byte cut by the depth,
   and a last byte cut by the label's end, keep their data bits.  A
   leaf's codewords say where its label ends; an internal label's say
   it up to a few end states, so an end field follows its bits. *)

let max_code_length = 12

external get16 : string -> int -> int = "%caml_string_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* A canonical prefix code over bytes: codewords go to the bytes in
   order of length, then of byte, each read most significant bit first,
   so a code whose bytes all take w bits codes the r-th of them as r.
   [dec] has a 16-bit entry for each value of the next [longest] stored
   bits (the first at bit 0): the length of the codeword they start,
   times 512, plus its byte's 9-bit group (the marker 1, then the data
   bits as read), or plus 0 when they start none — such bits count as a
   codeword of [longest] bits that names no byte. *)
type code = {
  lengths : string; (* by byte: its codeword's length, 0 when not coded *)
  bytes : int; (* bytes coded *)
  shortest : int;
  longest : int;
  enc : int array;
      (* by a byte's data bits as read: its codeword as stored, times
         16, plus its length; -1 when not coded *)
  dec : string;
  end_bits : int; (* an internal label's end field *)
}

(* The code of [lengths], its codewords at most [longest] bits long and
   their Kraft sum at most 1 (checked by the callers). *)
let make lengths ~longest =
  let count = Array.make (max_code_length + 1) 0 in
  String.iter (fun l -> count.(Char.code l) <- count.(Char.code l) + 1) lengths;
  let shortest = ref longest in
  for l = longest downto 1 do
    if count.(l) > 0 then shortest := l
  done;
  (* the first codeword of each length *)
  let next = Array.make (max_code_length + 1) 0 in
  for l = 2 to max_code_length do
    next.(l) <- (next.(l - 1) + count.(l - 1)) lsl 1
  done;
  let enc = Array.make 256 (-1) and dec = Bytes.create (2 lsl longest) in
  for i = 0 to (1 lsl longest) - 1 do
    set16 dec (2 * i) (longest lsl 9)
  done;
  for b = 0 to 255 do
    let l = Char.code lengths.[b] in
    if l > 0 then begin
      let g = Broadword.reverse_bits next.(l) l in
      next.(l) <- next.(l) + 1;
      enc.(Broadword.reverse_bits b 8) <- (g lsl 4) lor l;
      for j = 0 to (1 lsl (longest - l)) - 1 do
        set16 dec (2 * (g lor (j lsl l))) ((l lsl 9) lor code.(b))
      done
    end
  done;
  {
    lengths;
    bytes = 256 - count.(0);
    shortest = !shortest;
    longest;
    enc;
    dec = Bytes.unsafe_to_string dec;
    end_bits = Broadword.bit_width ((7 / !shortest) + 1);
  }

let set_bytes = 32
let mem set b = Char.code set.[b lsr 3] land (1 lsl (b land 7)) <> 0

let set_size set =
  let n = ref 0 in
  for b = 0 to 255 do
    if mem set b then incr n
  done;
  !n

let fixed_code set =
  if String.length set <> set_bytes then invalid_arg "Binarize.fixed_code: not a 256-bit set";
  let w = Int.max 1 (Broadword.bit_width (Int.max 0 (set_size set - 1))) in
  make (String.init 256 (fun b -> Char.chr (if mem set b then w else 0))) ~longest:w

let code_of_lengths lengths =
  if String.length lengths <> 256 then invalid_arg "Binarize.code_of_lengths: not 256 lengths";
  let kraft = ref 0 and longest = ref 0 in
  String.iter
    (fun l ->
      let l = Char.code l in
      if l > max_code_length then invalid_arg "Binarize.code_of_lengths: a codeword too long";
      if l > 0 then kraft := !kraft + (1 lsl (max_code_length - l));
      longest := Int.max !longest l)
    lengths;
  if !kraft > 1 lsl max_code_length then
    invalid_arg "Binarize.code_of_lengths: lengths past the Kraft inequality";
  (* a code of no byte reads every 8 bits as a codeword naming none *)
  make lengths ~longest:(if !longest = 0 then 8 else !longest)

(* Huffman's lengths (two queues: the leaves by count, then byte, and
   the merged nodes as made; a leaf first on a tie), then, past
   [max_code_length], the deepest leaves moved up two by two as JPEG's
   Annex K.3 does, and the lengths handed out again shortest first to
   the most frequent bytes, the smaller byte first on a tie. *)
let huffman_lengths counts =
  if Array.length counts <> 256 then invalid_arg "Binarize.huffman_lengths: not 256 counts";
  let coded = List.filter (fun b -> counts.(b) > 0) (List.init 256 Fun.id) in
  let syms = Array.of_list (List.stable_sort (fun a b -> compare counts.(a) counts.(b)) coded) in
  let n = Array.length syms in
  let lengths = Bytes.make 256 '\000' in
  if n = 1 then Bytes.set lengths syms.(0) '\001'
  else if n >= 2 then begin
    let weight = Array.make ((2 * n) - 1) 0 and parent = Array.make ((2 * n) - 1) 0 in
    Array.iteri (fun i b -> weight.(i) <- counts.(b)) syms;
    let leaf = ref 0 and node = ref n in
    let pick made =
      if !leaf < n && (!node >= made || weight.(!leaf) <= weight.(!node)) then begin
        incr leaf;
        !leaf - 1
      end
      else begin
        incr node;
        !node - 1
      end
    in
    for made = n to (2 * n) - 2 do
      let a = pick made in
      let b = pick made in
      weight.(made) <- weight.(a) + weight.(b);
      parent.(a) <- made;
      parent.(b) <- made
    done;
    let depth = Array.make ((2 * n) - 1) 0 and per = Array.make n 0 in
    for i = (2 * n) - 3 downto 0 do
      depth.(i) <- depth.(parent.(i)) + 1;
      if i < n then per.(depth.(i)) <- per.(depth.(i)) + 1
    done;
    for l = n - 1 downto max_code_length + 1 do
      while per.(l) > 0 do
        let j = ref (l - 2) in
        while per.(!j) = 0 do
          decr j
        done;
        per.(l) <- per.(l) - 2;
        per.(l - 1) <- per.(l - 1) + 1;
        per.(!j + 1) <- per.(!j + 1) + 2;
        per.(!j) <- per.(!j) - 1
      done
    done;
    let l = ref 1 in
    List.iter
      (fun b ->
        while per.(!l) = 0 do
          incr l
        done;
        per.(!l) <- per.(!l) - 1;
        Bytes.set lengths b (Char.chr !l))
      (List.stable_sort (fun a b -> compare counts.(b) counts.(a)) coded)
  end;
  Bytes.to_string lengths

let full_set = String.make set_bytes '\xff'
let empty_set = String.make set_bytes '\000'
let code_length c b = Char.code c.lengths.[b]
let code_bytes c = c.bytes
let shortest c = c.shortest
let longest c = c.longest
let end_width c = c.end_bits

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

let label_bytes seen counts ~start ~depth len v part =
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
        if !pos - 8 >= start then counts.(b) <- counts.(b) + 1;
        part := 0
      end
    end
  done;
  !part lor !fresh

let count_bytes counts s ~from ~upto =
  for j = (from + 7) / 9 to (upto / 9) - 1 do
    let b = Char.code (String.unsafe_get byte_of_bits (Bitstring.get_bits s ((9 * j) + 1) 8)) in
    counts.(b) <- counts.(b) + 1
  done

(* Positions = 0 (mod 9) in [depth, depth + len). *)
let markers ~depth len = ((depth + len + 8) / 9) - ((depth + 8) / 9)

(* Bytes whose data bits [9j + 1, 9j + 9) lie in [depth, depth + len). *)
let whole_bytes ~depth len = Int.max 0 (((depth + len) / 9) - ((depth + 7) / 9))

(* The stored bits before the first codeword: a first byte's cut by the
   depth; at phase 1 a whole first byte is a codeword, its marker above
   the label. *)
let head phase = if phase >= 2 then 9 - phase else 0

(* The codewords of the [r] stored bits from bit [bit] of [src] (read
   through [get], [Membuf.get_bits] or [Bitbuf.get_bits], and never past
   them), read in turn from a marker position while one ends within
   them: their count k, times 256, plus bit t (t <= 7) for each t such
   that the start or a codeword's end lies t bits before the end.  The
   i-th of those bits from the lowest is the end of codeword k - i. *)
let scan get src c bit r =
  let dec = c.dec and longest = c.longest in
  let mask = (1 lsl longest) - 1 in
  let p = ref 0 and k = ref 0 and ends = ref (if r <= 7 then 1 lsl r else 0) in
  let x = ref 0 and nx = ref 0 and go = ref (r > 0) in
  while !go do
    let avail = r - !p in
    if !nx < longest && !nx < avail then begin
      nx := Int.min 56 avail;
      x := get src (bit + !p) !nx
    end;
    let l = get16 dec (2 * (!x land mask)) lsr 9 in
    if l > avail then go := false
    else begin
      p := !p + l;
      incr k;
      x := !x lsr l;
      nx := !nx - l;
      if r - !p <= 7 then ends := !ends lor (1 lsl (r - !p));
      go := !p < r
    end
  done;
  (!k lsl 8) lor !ends

(* An internal label's end states are the phases mod 9 of the position
   after its last bit that its stored bits admit, in increasing order:
   0 when its last codeword ends them (a whole last byte), and 1 + t
   when t <= 7 raw bits follow a codeword or the head (a marker, then a
   last byte cut after t data bits).  The length of the label from a
   depth of phase [phase] whose codewords [scan] read as [sc], in the
   end state of index [field], or -1 when there is none. *)
let state_length phase sc field =
  let k = sc lsr 8 and ends = sc land 0xff in
  let base = if phase = 1 then -1 else head phase in
  let zero = ends land 1 <> 0 && base + (9 * k) >= 0 in
  if zero && field = 0 then base + (9 * k)
  else
    let f = field - Bool.to_int zero in
    if f < 0 || f >= Broadword.popcount ends then -1
    else base + (9 * (k - f)) + 1 + Broadword.select_in_word ends f

let leaf_length c mb bit ~depth ~stored =
  let phase = depth mod 9 in
  let h = head phase in
  if stored < h then -1
  else
    let sc = scan Wt_bits.Membuf.get_bits mb c (bit + h) (stored - h) in
    (* the terminator follows the last codeword *)
    if sc land 1 = 0 then -1 else (if phase = 1 then -1 else h) + (9 * (sc lsr 8)) + 1

(* A label shorter than its head: its raw bits, one end state. *)
let internal_length c mb bit ~depth ~stored field =
  let phase = depth mod 9 in
  let h = head phase in
  if stored < 0 then -1
  else if stored < h then if field = 0 then stored else -1
  else state_length phase (scan Wt_bits.Membuf.get_bits mb c (bit + h) (stored - h)) field

let end_field c buf bit ~depth ~stored len =
  let phase = depth mod 9 in
  let h = head phase in
  let no_state () = invalid_arg "Binarize.end_field: no end state gives the label's length" in
  if stored < h then if stored = len then 0 else no_state ()
  else begin
    let sc = scan Bitbuf.get_bits buf c (bit + h) (stored - h) in
    let f = ref 0 and l = ref (state_length phase sc 0) in
    while !l <> len && !l >= 0 do
      incr f;
      l := state_length phase sc !f
    done;
    if !l < 0 then no_state ();
    !f
  end

(* No closure here or in [walk]: a ref a closure captures is boxed,
   and both run once per label. *)
let pack_bits c out ~depth len v =
  let v = ref v and pos = ref depth and rest = ref len in
  let kept = ref 0 and nkept = ref 0 and dropped = ref 0 and ndropped = ref 0 in
  while !rest > 0 do
    if !nkept > 50 then begin
      Bitbuf.add_bits out !nkept !kept;
      kept := 0;
      nkept := 0
    end;
    match !pos mod 9 with
    | 0 ->
        dropped := !dropped lor ((!v land 1) lsl !ndropped);
        incr ndropped;
        v := !v lsr 1;
        incr pos;
        decr rest
    | 1 when !rest >= 8 ->
        let e = c.enc.(!v land 0xff) in
        if e < 0 then invalid_arg "Binarize.pack_bits: a byte the code does not hold";
        kept := !kept lor ((e lsr 4) lsl !nkept);
        nkept := !nkept + (e land 15);
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

let corrupt what = invalid_arg ("Binarize: " ^ what)

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

(* The [len] logical bits of a label whose [stored] bits start at bit
   [bit] of [mb], from bit depth [depth] (every marker a 1, but for a
   leaf's last bit, its terminator), piece by piece through [piece]:
   their common prefix with the bits of [s] from [off], or [len].
   Codewords are read from [x], which holds the [nx] stored bits from
   [p] on, refilled up to 56 at a time but never past [stored]. *)
let walk c mb bit ~depth ~stored len ~leaf out s off =
  let dec = c.dec and longest = c.longest in
  let mask = (1 lsl longest) - 1 in
  let phase = depth mod 9 in
  let p = ref 0 and q = ref 0 and l = ref (-1) and x = ref 0 and nx = ref 0 in
  (* at phase 1 a whole first byte's marker lies above the label *)
  let drop = ref 0 in
  if phase = 1 && len >= 8 then drop := 1
  else if phase >= 1 then begin
    (* a first byte cut by the depth, or by the label's end *)
    let take = Int.min (9 - phase) len in
    if take > stored then corrupt "a label's bits past its stored ones";
    l := piece out s off 0 take (Wt_bits.Membuf.get_bits mb bit take);
    p := take;
    q := take
  end;
  (* then whole bytes, each a marker and a codeword: six per piece *)
  while !l < 0 && len - !q + !drop >= 9 do
    let k = Int.min 6 ((len - !q + !drop) / 9) in
    let v = ref 0 in
    for j = 0 to k - 1 do
      if !nx < longest && !nx < stored - !p then begin
        nx := Int.min 56 (stored - !p);
        x := Wt_bits.Membuf.get_bits mb (bit + !p) !nx
      end;
      let e = get16 dec (2 * (!x land mask)) in
      let cl = e lsr 9 in
      if cl > !nx || e land 1 = 0 then corrupt "a codeword that names no byte";
      v := !v lor ((e land 511) lsl (9 * j));
      x := !x lsr cl;
      nx := !nx - cl;
      p := !p + cl
    done;
    l := piece out s off !q ((9 * k) - !drop) (!v lsr !drop);
    q := !q + (9 * k) - !drop;
    drop := 0
  done;
  if !l < 0 && len > !q then begin
    (* a marker, then the data bits of a byte cut by the label's end *)
    let take = len - !q - 1 in
    if !p + take > stored then corrupt "a label's bits past its stored ones";
    l :=
      piece out s off !q (take + 1)
        (Bool.to_int (not leaf) lor (Wt_bits.Membuf.get_bits mb (bit + !p) take lsl 1))
  end;
  if !l < 0 then len else !l

let unpack c mb bit ~depth ~stored len ~leaf out =
  ignore (walk c mb bit ~depth ~stored len ~leaf out Bitstring.empty 0 : int)

let lcp c mb bit ~depth ~stored len ~leaf s off = walk c mb bit ~depth ~stored len ~leaf no_out s off
