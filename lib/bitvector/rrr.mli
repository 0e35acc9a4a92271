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

(** Flat serialized form: one β blob of the format-v3 arena,
    bit-packed and queried in place through {!Wt_bits.Membuf}.  The blob
    stores no length: its owner supplies it.  A blob of one block (at
    most 62 bits) is RRR: a [bit_width r]-bit class and its offset over
    the block's real length [r].  From arena version 5 on, a longer blob
    starts with a one-bit code tag and is stored in the smaller of two
    codes, ties going to plain:
    - class-range RRR: the same blocks, superblock directory and
      offsets as before, each class stored as [c - cmin] in
      [bit_width (cmax - cmin)] bits behind a 6-bit base and a 3-bit
      width;
    - plain: one cumulative-ones sample per 512 bits, then the raw
      bits.  Rank, select and access are a sample plus popcounts, with
      no unranking.
    The choice depends only on the bits, so equal bitvectors get equal
    blobs.  Arena versions 3 and 4 wrote every blob as RRR with 6-bit
    classes and no tag; version 2 also coded the last block over 62
    positions.  [of_membuf] reads all four.  Queries hit the same
    [Rrr_*] / [Bv_cursor_*] probes as the pointer form whatever the
    code, and unranking records its steps as [Rrr_unrank]. *)
module Flat : sig
  type t

  type code = Rrr | Plain

  val newest_version : int
  (** The arena version {!append_blocks} writes (8; versions 6 to 8
      changed only the arena's labels, so their blobs are version
      5's). *)

  val append_blocks : ?code:code -> Wt_bits.Bitbuf.t -> int array -> len:int -> unit
  (** [append_blocks bb blocks ~len] appends the blob of the [len]-bit
      bitvector whose bits [62i, 62i + 62) are [blocks.(i)], LSB first
      and zero past [len], at {!newest_version}.  [?code] forces the code
      of a blob longer than one block; by default it is the smaller. *)

  val of_membuf : Wt_bits.Membuf.t -> int -> len:int -> version:int -> t
  (** [of_membuf mb bit ~len ~version] views the [len]-bit blob starting
      at bit [bit], as arena version [version] (2 to {!newest_version})
      wrote it, reading at most three words.  Raises [Invalid_argument]
      on a structurally corrupt blob (a class width above 6, a class
      base above 62, a total above [len], a blob past the buffer); all
      subsequent reads are bounds-checked. *)

  val length : t -> int
  val ones : t -> int
  val zeros : t -> int

  val space_bits : t -> int
  (** Blob length in bits. *)

  val code : t -> code
  (** A one-block blob, and every blob before version 5, is [Rrr]. *)

  val rank : t -> bool -> int -> int
  val select : t -> bool -> int -> int
  val access : t -> int -> bool
  val access_rank : t -> int -> bool * int

  val iter_blocks : t -> (int -> unit) -> unit
  (** [iter_blocks t f] calls [f] on each block in order, decoded: bits
      [62i, 62i + 62) LSB first, zero past the length — the form
      {!append_blocks} takes. *)

  val check : t -> version:int -> unit
  (** Deep check of a blob written at [version]: every block decodes,
      each class fits its block and each offset is in range, and the
      directory matches the classes.  From version 5 on, also: the class
      base and width are the classes' least value and range, each plain
      rank sample is the bits' (none falls or rises by more than 512),
      the tag names the smaller code, and the blob is bit for bit the
      encoding of its own bits.  Raises [Failure], or [Invalid_argument]
      on a read outside the buffer. *)

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
