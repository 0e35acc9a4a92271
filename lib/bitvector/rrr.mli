(** RRR compressed static bitvector (Raman–Raman–Rao [22]): one β blob,
    bit-packed and queried in place through {!Wt_bits.Membuf}.

    Blocks of 62 bits are coded as their class (popcount) and offset
    (the pattern's index among those of its class); superblocks of 16
    blocks carry rank and offset-stream samples, so a query walks at
    most 16 classes and unranks one block.  A blob longer than one
    block is stored in the smaller of class-range RRR and plain (raw
    bits with a rank sample per 512), ties going to plain; the
    implementation's header comment gives the layout of each arena
    version, 2 to {!newest_version}.  The blob stores no length: its
    owner supplies it.  Equal bitvectors get equal blobs.

    It is the one RRR coder of the library: the format-v3 arena's
    inline bitvector, and, each in a private buffer, the append-only
    bitvector's frozen segments ({!Encoder}) and the pointer trie's
    nodes ({!of_bitbuf}).  Queries count as [Rrr_*] / [Bv_cursor_*]
    probes whatever the code; unranking records its steps as
    [Rrr_unrank]. *)

type t

include Fid.STATIC with type t := t

type code = Rrr | Plain

val block_bits : int
(** The block size (62). *)

val newest_version : int
(** The arena version {!append_blocks} writes (9; versions 6 to 9
    changed only the arena's labels, so their blobs are version 5's). *)

val append_blocks : ?code:code -> Wt_bits.Bitbuf.t -> int array -> len:int -> unit
(** [append_blocks bb blocks ~len] appends the blob of the [len]-bit
    bitvector whose bits [62i, 62i + 62) are [blocks.(i)], LSB first
    and zero past [len].  [?code] forces the code of a blob longer than
    one block; by default it is the smaller. *)

(** Resumable encoding, for the Section 4.1 de-amortization: a filled
    segment encoded a few blocks at a time, interleaved with appends. *)
module Encoder : sig
  type t

  val create : Wt_bits.Bitbuf.t -> t
  (** An encoder of the buffer's bits, which must not change until it
      is {!finished}. *)

  val step : t -> int -> unit
  (** [step e k] takes the class and offset of up to [k] more blocks. *)

  val finished : t -> bool

  val write : t -> Wt_bits.Bitbuf.t -> unit
  (** Append the blob, exactly as {!append_blocks} writes it from the
      same bits.  Requires {!finished}. *)
end

val of_membuf : Wt_bits.Membuf.t -> int -> len:int -> version:int -> t
(** [of_membuf mb bit ~len ~version] views the [len]-bit blob at bit
    [bit], as arena version [version] wrote it, reading at most three
    words.  Raises [Invalid_argument] on a structurally corrupt blob (a
    class width above 6, a class base above 62, a total above [len], a
    blob past the buffer); later reads are bounds-checked. *)

val of_blob : Wt_bits.Bitbuf.t -> len:int -> t
(** [of_blob bb ~len] views the [len]-bit blob at the start of [bb],
    written at {!newest_version}, copied into a private buffer. *)

val of_bitbuf : Wt_bits.Bitbuf.t -> t
(** The blob of the buffer's bits: {!Encoder} run to its end. *)

val zeros : t -> int

val code : t -> code
(** A one-block blob, and every blob before version 5, is [Rrr]. *)

val access_rank : t -> int -> bool * int
(** [(b, rank t b pos)] with [b = access t pos]. *)

val iter_blocks : t -> (int -> unit) -> unit
(** [iter_blocks t f] calls [f] on each block in order, decoded in the
    form {!append_blocks} takes. *)

val check : t -> version:int -> unit
(** Deep check of a blob written at [version]: every block decodes,
    each class fits its block and each offset is in range, the
    directory matches the classes, and from version 5 on the blob is
    bit for bit the encoding of its own bits.  Raises [Failure], or
    [Invalid_argument] on a read outside the buffer. *)

val offset_width : int -> int
(** [offset_width c]: the width of a full block's offset at class [c]
    ([0 <= c <= 62]), [ceil (log2 C(62, c))]. *)

val decode_full_block : int -> int -> int
(** [decode_full_block c off]: the 62-bit block of class [c]
    ([0 <= c <= 62]) whose offset is [off], as every full block is
    coded.  Format v2's pointer coder coded each of its blocks so. *)

(** Rank cursor for batched queries, with the bitvector's contracts:
    cheap on monotone positions, correct in any order.  Queries count
    as [Rrr_rank]/[Rrr_access] plus a [Bv_cursor_hit] or
    [Bv_cursor_miss]. *)
module Cursor : sig
  type bv := t
  type t

  val create : bv -> t
  val rank : t -> bool -> int -> int
  val access_rank : t -> int -> bool * int
end

(** Sequential iterator (the Section 5 range algorithms): each block is
    decoded once per 62 bits consumed. *)
module Iter : sig
  type bv := t
  type t

  val create : bv -> int -> t
  (** Positioned at [pos], [0 <= pos <= length bv]. *)

  val next : t -> bool
  (** The bit under the cursor, then advance; [Invalid_argument] at the
      end. *)

  val pos : t -> int
  val has_next : t -> bool
end
