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

(** {2 Leaf labels without marker bits}

    In an {!of_bytes} encoding every bit at a position [p ≡ 0 (mod 9)]
    is fixed by [p]: a [1] marker before each byte, the [0] terminator
    after the last.  A trie leaf's label is the rest of its string from
    the leaf's bit depth [d], so a byte-string arena stores it as its
    data bits only (the positions [p >= d] with [p mod 9 <> 0]) and
    restores the others from [d]: at [p ≡ 0 (mod 9)] a [1] while data
    bits remain, else the terminator and the end.  A label with no data
    bits at [d ≡ 1 (mod 9)] is empty: its parent branched on the
    terminator. *)

val markers : depth:int -> int -> int
(** [markers ~depth len]: positions [≡ 0 (mod 9)] in [[depth, depth + len)]. *)

val unpacked_length : depth:int -> int -> int
(** [unpacked_length ~depth stored]: the length of the label whose
    [stored] data bits start at bit depth [depth], or [-1] when no
    encoded string ends after that many data bits from there. *)

val pack_bits : Wt_bits.Bitbuf.t -> depth:int -> int -> int -> int
(** [pack_bits out ~depth len v] appends to [out] the data bits of the
    [len <= 62] label bits [v] (LSB first) whose first bit sits at bit
    depth [depth], and returns the bits it dropped, the first at bit 0.
    The caller checks them: all [1] but the label's last bit, the
    terminator [0]. *)

val unpack : Wt_bits.Membuf.t -> int -> depth:int -> stored:int -> Wt_bits.Bitbuf.t -> unit
(** [unpack mb bit ~depth ~stored out] appends the label whose [stored]
    data bits start at bit [bit] of [mb] and at bit depth [depth].
    Raises [Invalid_argument] when {!unpacked_length} is [-1]. *)
