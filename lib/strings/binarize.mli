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

(** {2 Labels without marker bits, in the byte set's code}

    In an {!of_bytes} encoding every bit at a position [p ≡ 0 (mod 9)]
    is fixed by [p]: a [1] marker before each byte, the [0] terminator
    after the last.  A trie node's label is a run of its strings' bits
    from the node's bit depth [d], so a byte-string arena stores it
    without those bits and restores them from [d]: inside an internal
    label every one is a [1], and a leaf's label ends with the
    terminator.  Of the data bits, a first byte cut by [d]
    ([d ≡ 2..8 (mod 9)]), and a last byte cut by the label's end, keep
    their raw bits; every byte whose eight data bits all lie in the
    label is stored as its rank in the byte set [B] of the arena's
    strings, most significant bit first, in [w = max 1 (bit_width
    (|B| - 1))] bits — the dense alphabet mapping of wavelet trees over
    large alphabets.  With all 256 bytes in [B] ({!full_set}) a byte's
    code is its data bits: arena version 6's leaves.

    A label's {e end state} is the phase [(d + length) mod 9] of the
    position after its last bit.  A leaf's is 1 (its last bit is the
    terminator), so its stored length gives its length; a leaf with no
    stored bits at [d ≡ 1 (mod 9)] is empty: its parent branched on the
    terminator.  An internal label may end in any state, and a stored
    length admits up to [7 / w + 2] of them (a whole byte and [w] raw
    bits of a cut one store alike), so the label is followed by an end
    field of {!end_width} bits: the index of its end state among those
    its stored length admits at its depth, in increasing order. *)

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

val end_width : code -> int
(** The end field's width, [bit_width (7 / w + 1)]: 4 bits at [w = 1],
    3 at [w = 2], 2 at [w = 3..7], 1 at [w = 8]. *)

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

val stored_length : code -> depth:int -> int -> int
(** [stored_length c ~depth len]: the stored bits of a label of [len]
    bits from bit depth [depth], the end field aside. *)

val unpacked_length : code -> depth:int -> int -> int
(** [unpacked_length c ~depth stored]: the length of the leaf label
    whose [stored] bits start at bit depth [depth], or [-1] when no
    encoded string ends after that many stored bits from there. *)

val internal_length : code -> depth:int -> stored:int -> int -> int
(** [internal_length c ~depth ~stored field]: the length of the
    internal label of [stored] bits from bit depth [depth] with end
    field [field], or [-1] when no label has them. *)

val end_field : code -> depth:int -> int -> int
(** [end_field c ~depth len]: the end field of the internal label of
    [len] bits from bit depth [depth]. *)

val pack_bits : code -> Wt_bits.Bitbuf.t -> depth:int -> int -> int -> int
(** [pack_bits c out ~depth len v] appends to [out] the stored form of
    the [len <= 62] label bits [v] (LSB first) whose first bit sits at
    bit depth [depth], and returns the bits it dropped, the first at
    bit 0.  The caller checks them: all [1] in an internal label; in a
    leaf's, all [1] but its last bit, the terminator [0].  A byte cut by
    the bits' start or end keeps its data bits, so a label is fed in
    pieces that end at a position [≡ 0 (mod 9)] or at its end.  Raises
    [Invalid_argument] on a whole byte outside [B]. *)

val unpack : code -> Wt_bits.Membuf.t -> int -> depth:int -> stored:int -> Wt_bits.Bitbuf.t -> unit
(** [unpack c mb bit ~depth ~stored out] appends the leaf label whose
    [stored] bits start at bit [bit] of [mb] and at bit depth [depth].
    Raises [Invalid_argument] when {!unpacked_length} is [-1] or a code
    is [|B|] or more. *)

val unpack_internal :
  code -> Wt_bits.Membuf.t -> int -> depth:int -> int -> Wt_bits.Bitbuf.t -> unit
(** [unpack_internal c mb bit ~depth len out] appends the internal
    label of [len] bits, {!internal_length}'s, whose stored bits start
    at bit [bit] of [mb] and at bit depth [depth].  Raises
    [Invalid_argument] when a code is [|B|] or more. *)

val lcp :
  code -> Wt_bits.Membuf.t -> int -> depth:int -> int -> leaf:bool -> Bitstring.t -> int -> int
(** [lcp c mb bit ~depth len ~leaf s off]: the longest common prefix of
    the bits of [s] from [off] and the label of [len] bits (a leaf's
    when [leaf]) whose stored bits start at bit [bit] of [mb] and at bit
    depth [depth], read in place: each whole byte the two share costs a
    code read and no allocation.  Raises [Invalid_argument] when a code
    it reads, up to the first bit that differs, is [|B|] or more. *)
