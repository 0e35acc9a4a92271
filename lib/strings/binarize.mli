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

(** {2 Labels without marker bits, their bytes in prefix codes}

    In an {!of_bytes} encoding every bit at a position [p ≡ 0 (mod 9)]
    is fixed by [p]: a [1] marker before each byte, the [0] terminator
    after the last.  A trie node's label is a run of its strings' bits
    from the node's bit depth [d], so a byte-string arena stores it
    without those bits and restores them from [d]: inside an internal
    label every one is a [1], and a leaf's label ends with the
    terminator.  Of the data bits, a first byte cut by [d]
    ([d ≡ 2..8 (mod 9)]), and a last byte cut by the label's end, keep
    their raw bits; every byte whose eight data bits all lie in the
    label is stored as its codeword in a canonical prefix code over
    bytes ({!code}), one for leaf labels and one for internal ones.
    Arena version 9 codes them in Huffman codes of its own label bytes
    ({!huffman_lengths}); versions 6 to 8 code each byte of the byte set
    [B] of the arena's strings as its rank in [B] in [w = max 1
    (bit_width (|B| - 1))] bits ({!fixed_code}), the canonical code
    whose lengths all equal [w] — the dense alphabet mapping of wavelet
    trees over large alphabets.  With all 256 bytes in [B]
    ({!full_set}) a byte's codeword is its data bits: version 6's
    leaves.

    A label's {e end state} is the phase [(d + length) mod 9] of the
    position after its last bit.  A leaf's is 1 (its last bit is the
    terminator), so its codewords give its length: their stored bits end
    where its last codeword does; a leaf with no stored bits at
    [d ≡ 1 (mod 9)] is empty: its parent branched on the terminator.
    An internal label may end in any state: read from its first marker
    position, its codewords end t <= 7 bits before its stored bits' end
    for at most [7 / lmin + 1] values of t, each the end state [1 + t]
    (a marker and t raw bits follow), and t = 0 is also end state 0
    (the label ends with a whole byte); [lmin] is the code's shortest
    codeword.  So the label is followed by an end field of {!end_width}
    bits: the index of its end state among those its stored bits admit,
    in increasing order.  Bits that start no codeword count as one of
    the code's longest that names no byte, so the states a label admits
    depend only on its stored bits and its code's lengths; under a
    fixed-width code, only on its stored length. *)

type code
(** A canonical prefix code over bytes, its codewords at most
    {!max_code_length} bits long, decoded by one read of a table of
    [2^]{!longest} 16-bit entries. *)

val max_code_length : int
(** 12. *)

val fixed_code : string -> code
(** The code of versions 6 to 8 for a 256-bit set [B] (32 bytes, bit
    [b land 7] of byte [b lsr 3] set iff byte [b] is in it): each byte
    of [B] its rank in [B], most significant bit first, in [w] bits.
    Raises [Invalid_argument] on another length. *)

val code_of_lengths : string -> code
(** The canonical code whose codeword for byte [b] has
    [Char.code lengths.[b]] bits, no codeword for a length of 0.
    Raises [Invalid_argument] unless there are 256 lengths, each at most
    {!max_code_length}, and their Kraft sum is at most 1.  A code of no
    byte counts every 8 bits as a codeword naming none. *)

val huffman_lengths : int array -> string
(** The lengths of a Huffman code for the 256 counts of bytes, each at
    most {!max_code_length} (deeper leaves are moved up, as JPEG's Annex
    K.3 does), a length of 0 for a count of 0, 1 for a lone byte.  The
    same counts give the same lengths. *)

val code_length : code -> int -> int
(** Byte [b]'s codeword length, 0 when it has none. *)

val code_bytes : code -> int
(** The bytes with a codeword. *)

val shortest : code -> int
(** [lmin]: the shortest codeword (the longest for a code of no byte). *)

val longest : code -> int
(** The longest codeword; bits that start none count as one this long. *)

val end_width : code -> int
(** An internal label's end field width, [bit_width (7 / lmin + 1)]: 4
    bits at [lmin = 1], 3 at [lmin = 2], 2 at [lmin = 3..7], 1 at
    [lmin = 8]. *)

val full_set : string
(** All 256 bytes. *)

val empty_set : string

val mem : string -> int -> bool
(** [mem set b]: byte [b] is in the 256-bit [set]. *)

val set_size : string -> int
(** The bytes in a 256-bit set. *)

val byte_set : string array -> string
(** The bytes that occur in the strings, as a 256-bit set. *)

val set_of_flags : Bytes.t -> string
(** The set of the bytes [b] whose flag (byte [b] of a 256-byte buffer)
    is not ['\000']. *)

val label_bytes : Bytes.t -> int array -> start:int -> depth:int -> int -> int -> int -> int
(** [label_bytes seen counts ~start ~depth len v part] flags in [seen]
    each byte completed by the [len <= 62] encoded bits [v] (LSB first)
    whose first bit sits at bit depth [depth], and counts in [counts]
    (by byte) each of them whose data bits start at [start] or later:
    a whole byte of a label that starts at [start].  [part] holds the
    data bits already read of the byte in progress (0 at a depth
    [≡ 0 (mod 9)]); the result holds them after [v], plus 256 when a
    byte was flagged for the first time. *)

val count_bytes : int array -> Bitstring.t -> from:int -> upto:int -> unit
(** [count_bytes counts s ~from ~upto] counts in [counts], by byte, each
    byte of the {!of_bytes} encoding [s] whose eight data bits lie in
    [[from, upto)]: the whole bytes of the label [[from, upto)] of [s]. *)

val markers : depth:int -> int -> int
(** [markers ~depth len]: positions [≡ 0 (mod 9)] in [[depth, depth + len)]. *)

val whole_bytes : depth:int -> int -> int
(** [whole_bytes ~depth len]: the bytes whose eight data bits lie in
    [[depth, depth + len)]. *)

val leaf_length : code -> Wt_bits.Membuf.t -> int -> depth:int -> stored:int -> int
(** [leaf_length c mb bit ~depth ~stored]: the length of the leaf label
    whose [stored] bits start at bit [bit] of [mb] and at bit depth
    [depth], or [-1] when no encoded string ends after those bits. *)

val internal_length : code -> Wt_bits.Membuf.t -> int -> depth:int -> stored:int -> int -> int
(** [internal_length c mb bit ~depth ~stored field]: the length of the
    internal label of [stored] bits at bit [bit] of [mb], from bit depth
    [depth], with end field [field], or [-1] when no label has them. *)

val end_field : code -> Wt_bits.Bitbuf.t -> int -> depth:int -> stored:int -> int -> int
(** [end_field c buf bit ~depth ~stored len]: the end field of the
    internal label of [len] bits from bit depth [depth] whose [stored]
    bits start at bit [bit] of [buf].  Raises [Invalid_argument] when
    they admit no label of that length. *)

val pack_bits : code -> Wt_bits.Bitbuf.t -> depth:int -> int -> int -> int
(** [pack_bits c out ~depth len v] appends to [out] the stored form of
    the [len <= 62] label bits [v] (LSB first) whose first bit sits at
    bit depth [depth], and returns the bits it dropped, the first at
    bit 0.  The caller checks them: all [1] in an internal label; in a
    leaf's, all [1] but its last bit, the terminator [0].  A byte cut by
    the bits' start or end keeps its data bits, so a label is fed in
    pieces that end at a position [≡ 0 (mod 9)] or at its end.  Raises
    [Invalid_argument] on a whole byte without a codeword. *)

val unpack :
  code -> Wt_bits.Membuf.t -> int -> depth:int -> stored:int -> int -> leaf:bool ->
  Wt_bits.Bitbuf.t -> unit
(** [unpack c mb bit ~depth ~stored len ~leaf out] appends the label of
    [len] bits ({!leaf_length}'s or {!internal_length}'s; a leaf's when
    [leaf]) whose [stored] bits start at bit [bit] of [mb] and at bit
    depth [depth].  Raises [Invalid_argument] on bits that start no
    codeword, or on a label that needs more than [stored] bits. *)

val lcp :
  code -> Wt_bits.Membuf.t -> int -> depth:int -> stored:int -> int -> leaf:bool ->
  Bitstring.t -> int -> int
(** [lcp c mb bit ~depth ~stored len ~leaf s off]: the longest common
    prefix of the bits of [s] from [off] and the label {!unpack} reads,
    read in place: each whole byte the two share costs a table read and
    no allocation.  Raises [Invalid_argument] as {!unpack} does, up to
    the first bit that differs. *)
