(** RRR compressed static bitvector (Raman–Raman–Rao [22]).

    The bitvector is split into blocks of 62 bits.  Each block is encoded
    as a 6-bit class (its popcount) plus a variable-length offset: the
    index of the block's bit pattern in the enumeration of all 62-bit
    patterns of that class (combinatorial number system).  Superblocks of
    16 blocks carry absolute rank and offset-stream position samples.

    Space is [B(m,n) + O(n / 16) + directories] bits — entropy-compressed —
    with O(1)-block rank/select walks (at most 16 class reads per query)
    exactly as required by Sections 3 and 4.1 of the paper.

    {!Iter} provides the sequential O(1)-amortized bit iterator needed by
    the Section 5 range algorithms. *)

type t

include Fid.STATIC with type t := t

val of_bitbuf : Wt_bits.Bitbuf.t -> t
val of_string : string -> t

val zeros : t -> int

val access_rank : t -> int -> bool * int
(** [access_rank t pos] is [(b, rank t b pos)] with [b = access t pos],
    decoding the block once. *)

val to_bitbuf : t -> Wt_bits.Bitbuf.t
(** Decode the whole bitvector back to a buffer. *)

val block_bits : int
(** The block size (62). *)

(** Resumable construction, for the Section 4.1 de-amortization: encode a
    filled segment a few blocks at a time, interleaved with appends. *)
module Builder : sig
  type rrr := t
  type t

  val create : Wt_bits.Bitbuf.t -> t
  (** Snapshot the buffer reference (the caller must not mutate it until
      [finalize]). *)

  val step : t -> int -> unit
  (** [step b k] encodes up to [k] further blocks (62 bits each). *)

  val finished : t -> bool

  val finalize : t -> rrr
  (** Requires [finished]. *)
end

(** Rank cursor for batched queries: caches the last decoded block and
    the rank/offset-stream prefix sums before it, so a query landing in
    the cached block costs one in-block popcount and a short forward
    step walks only the classes in between.  Any position order is
    correct; monotone non-decreasing positions are the all-hit fast
    path.  Cursor queries count as [Rrr_rank]/[Rrr_access] plus a
    [Bv_cursor_hit] or [Bv_cursor_miss]. *)
module Cursor : sig
  type bv := t
  type t

  val create : bv -> t
  (** A fresh cursor with an empty cache.  O(1). *)

  val rank : t -> bool -> int -> int
  (** Same contract as the bitvector's [rank]. *)

  val access_rank : t -> int -> bool * int
  (** Same contract as the bitvector's [access_rank]. *)
end

module Iter : sig
  type bv := t
  type t

  val create : bv -> int -> t
  (** [create bv pos] is an iterator positioned at [pos]
      ([0 <= pos <= length bv]). *)

  val next : t -> bool
  (** Return the bit under the cursor and advance.  Amortized O(1): blocks
      are decoded once per 62 consumed bits.  Raises [Invalid_argument] at
      the end of the bitvector. *)

  val pos : t -> int
  val has_next : t -> bool
end

val pp : Format.formatter -> t -> unit

(** Flat serialized form: the same blocks as one bit-packed blob,
    queried in place through {!Wt_bits.Membuf} — the inline bitvector
    encoding of the format-v3 arena.  The blob stores no length,
    popcount or padding: its owner supplies the length, and a blob of at
    most 16 blocks carries no superblock directory, so it is exactly its
    RRR payload.  The last block is coded over its real length [r]: its
    offset takes ceil(log2 C(r, c)) bits, and a one-block blob's class
    takes [bit_width r] bits.  [append_blocks] encodes a bitvector
    straight into a blob; [of_membuf] opens a view at a bit offset with
    no decoding.  Queries hit the same [Rrr_*] / [Bv_cursor_*] probes as
    the pointer form. *)
module Flat : sig
  type t

  val append_blocks : Wt_bits.Bitbuf.t -> int array -> len:int -> unit
  (** [append_blocks bb blocks ~len] appends the blob of the [len]-bit
      bitvector whose bits [62i, 62i + 62) are [blocks.(i)], LSB first
      and zero past [len] (self-delimiting given [len]). *)

  val of_membuf : Wt_bits.Membuf.t -> int -> len:int -> padded_tail:bool -> t
  (** [of_membuf mb bit ~len ~padded_tail] views the [len]-bit blob
      starting at bit [bit], reading at most three words.  A blob
      [append_blocks] wrote has [~padded_tail:false]; [true] reads one
      whose last block is coded over 62 positions like the others, as
      arena version 2 wrote them.  Raises [Invalid_argument] on a
      structurally corrupt blob; all subsequent reads are
      bounds-checked. *)

  val length : t -> int
  val ones : t -> int
  val zeros : t -> int

  val space_bits : t -> int
  (** Blob length in bits. *)

  val rank : t -> bool -> int -> int
  val select : t -> bool -> int -> int
  val access : t -> int -> bool
  val access_rank : t -> int -> bool * int

  val iter_blocks : t -> (int -> unit) -> unit
  (** [iter_blocks t f] calls [f] on each block in order, decoded: bits
      [62i, 62i + 62) LSB first, zero past the length — the form
      {!append_blocks} takes. *)

  module Cursor : sig
    type bv := t
    type t

    val create : bv -> t
    val rank : t -> bool -> int -> int
    val access_rank : t -> int -> bool * int
  end

  module Iter : sig
    type bv := t
    type t

    val create : bv -> int -> t
    val next : t -> bool
    val pos : t -> int
    val has_next : t -> bool
  end
end
