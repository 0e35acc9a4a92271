(** Codecs from user-facing values to prefix-free binary strings.

    The Wavelet Trie requires the underlying string set to be prefix-free
    (Section 3 of the paper): "any set of strings can be made prefix-free
    by appending a terminator".  These codecs realize that:

    - {!of_bytes} encodes an arbitrary OCaml [string] (any bytes,
      including NUL) as a self-delimiting bitstring: each byte becomes a
      [1] marker bit followed by the 8 data bits (MSB first) and the
      string ends with a single [0] bit.  No codeword is a prefix of
      another, and the encoding preserves the lexicographic order of the
      underlying byte strings.
    - {!of_int_msb} encodes an integer as a fixed-width, MSB-first
      bitstring; fixed width makes the code trivially prefix-free and
      order-preserving.
    - {!of_int_lsb} is the LSB-first fixed-width encoding used by the
      randomized balanced Wavelet Tree of Section 6. *)

val of_bytes : string -> Bitstring.t
(** Self-delimiting byte-string encoding, 9 bits per byte plus one. *)

val to_bytes : Bitstring.t -> string
(** Inverse of {!of_bytes}; raises [Invalid_argument] on a bitstring not
    produced by it. *)

val of_int_msb : width:int -> int -> Bitstring.t
(** [of_int_msb ~width v]: [width] bits of [v], most significant first.
    Requires [0 <= v < 2^width], [1 <= width <= 62]. *)

val to_int_msb : Bitstring.t -> int
(** Read back a fixed-width MSB-first integer (width = length). *)

val of_int_lsb : width:int -> int -> Bitstring.t
(** Least-significant-bit-first fixed-width encoding (Section 6). *)

val to_int_lsb : Bitstring.t -> int

(** {2 Leaf labels without marker bits, in the byte set's code}

    In an {!of_bytes} encoding every bit at a position [p ≡ 0 (mod 9)]
    is fixed by [p]: a [1] marker before each byte, the [0] terminator
    after the last.  A trie leaf's label is the rest of its string from
    the leaf's bit depth [d], so a byte-string arena stores it without
    those bits and restores them from [d]: at [p ≡ 0 (mod 9)] a [1]
    while bytes remain, else the terminator and the end.  Of the data
    bits, a first byte cut by [d] ([d ≡ 2..8 (mod 9)]) keeps its
    [9 - d mod 9] raw bits; every byte whose eight data bits all lie in
    the label is stored as its rank in the byte set [B] of the arena's
    strings, most significant bit first, in [w = max 1 (bit_width
    (|B| - 1))] bits — the dense alphabet mapping of wavelet trees over
    large alphabets.  With all 256 bytes in [B] ({!full_set}) a byte's
    code is its data bits: arena version 6's leaves.  A label with no
    stored bits at [d ≡ 1 (mod 9)] is empty: its parent branched on the
    terminator. *)

type code
(** [B]'s code: its set, its size, the width [w] and tables both ways. *)

val code_of_set : string -> code
(** The code of a 256-bit set: 32 bytes, bit [b land 7] of byte
    [b lsr 3] set iff byte [b] is in it.  Raises [Invalid_argument] on
    another length. *)

val full_set : string
(** All 256 bytes. *)

val empty_set : string

val code_set : code -> string
val code_size : code -> int
(** [|B|]. *)

val code_width : code -> int
(** [w]. *)

val mem : string -> int -> bool
(** [mem set b]: byte [b] is in the 256-bit [set]. *)

val byte_set : string array -> string
(** The bytes that occur in the strings, as a 256-bit set. *)

val set_of_flags : Bytes.t -> string
(** The set of the bytes [b] whose flag (byte [b] of a 256-byte buffer)
    is not ['\000']. *)

val add_set : Bytes.t -> string -> unit
(** Flag every byte of a 256-bit set. *)

val label_bytes : Bytes.t -> depth:int -> int -> int -> int -> int
(** [label_bytes seen ~depth len v part] flags in [seen] each byte
    completed by the [len <= 62] encoded bits [v] (LSB first) whose
    first bit sits at bit depth [depth].  [part] holds the data bits
    already read of the byte in progress (0 at a depth [≡ 0 (mod 9)]);
    the result holds them after [v], plus 256 when a byte was flagged
    for the first time. *)

val markers : depth:int -> int -> int
(** [markers ~depth len]: positions [≡ 0 (mod 9)] in [[depth, depth + len)]. *)

val unpacked_length : code -> depth:int -> int -> int
(** [unpacked_length c ~depth stored]: the length of the label whose
    [stored] bits start at bit depth [depth], or [-1] when no encoded
    string ends after that many stored bits from there. *)

val pack_bits : code -> Wt_bits.Bitbuf.t -> depth:int -> int -> int -> int
(** [pack_bits c out ~depth len v] appends to [out] the stored form of
    the [len <= 62] label bits [v] (LSB first) whose first bit sits at
    bit depth [depth], and returns the bits it dropped, the first at
    bit 0.  The caller checks them: all [1] but the label's last bit,
    the terminator [0].  A call at [depth ≡ 2..8 (mod 9)] starts a
    label; a call must hold all eight data bits of each byte it starts,
    so a label is fed in pieces that end at a position [≡ 0 (mod 9)] or
    at its end.  Raises [Invalid_argument] on a byte cut by [len] or
    outside [B]. *)

val unpack : code -> Wt_bits.Membuf.t -> int -> depth:int -> stored:int -> Wt_bits.Bitbuf.t -> unit
(** [unpack c mb bit ~depth ~stored out] appends the label whose
    [stored] bits start at bit [bit] of [mb] and at bit depth [depth].
    Raises [Invalid_argument] when {!unpacked_length} is [-1] or a code
    is [|B|] or more. *)
