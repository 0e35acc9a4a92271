(** Growable bit buffer.

    A [Bitbuf.t] is a mutable sequence of bits backed by a [Bytes.t] that
    doubles on demand.  Bits are numbered from 0; within a byte, bit [i]
    lives at position [i mod 8] counted from the least significant bit
    (LSB-first layout).  Multi-bit reads and writes of up to 62 bits are
    supported across byte boundaries; an integer value [v] written with
    [set_bits] stores bit [j] of [v] at buffer position [pos + j].

    The buffer supports in-place overwrites ([set], [set_bits]) anywhere in
    [0, length)], and appends at the end ([add], [add_bits]).  It is the
    backing store for every succinct structure in this library. *)

type t

val create : ?capacity_bits:int -> unit -> t
(** [create ()] is an empty buffer.  [capacity_bits] pre-sizes the backing
    store (default 256). *)

val length : t -> int
(** Number of bits currently in the buffer. *)

val get : t -> int -> bool
(** [get t pos] is bit [pos].  Requires [0 <= pos < length t]. *)

val get_bits : t -> int -> int -> int
(** [get_bits t pos len] reads [len] bits starting at [pos] as a
    non-negative integer (bit [pos] becomes bit 0 of the result).
    Requires [0 <= len <= 62] and [pos + len <= length t]. *)

val set : t -> int -> bool -> unit
(** [set t pos b] overwrites bit [pos].  Requires [0 <= pos < length t]. *)

val set_bits : t -> int -> int -> int -> unit
(** [set_bits t pos len v] overwrites [len] bits starting at [pos] with the
    low [len] bits of [v].  Requires [0 <= len <= 62],
    [pos + len <= length t] and [0 <= v]. *)

val add : t -> bool -> unit
(** Append one bit. *)

val add_bits : t -> int -> int -> unit
(** [add_bits t len v] appends the low [len] bits of [v], LSB first.
    Requires [0 <= len <= 62] and [v >= 0]. *)

val add_run : t -> bool -> int -> unit
(** [add_run t b n] appends [n] copies of bit [b]. *)

val append : t -> t -> unit
(** [append dst src] appends all bits of [src] to [dst]. *)

val blit : t -> int -> t -> int -> unit
(** [blit src pos dst len] appends [len] bits of [src] starting at
    [src] position [pos] to the end of [dst]. *)

val truncate : t -> int -> unit
(** [truncate t n] drops all bits at positions [>= n].
    Requires [0 <= n <= length t]. *)

val clear : t -> unit
(** Reset to the empty buffer without releasing storage. *)

val copy : t -> t
(** An independent copy. *)

val pop_count : t -> int -> int -> int
(** [pop_count t pos len] is the number of set bits in [t.[pos .. pos+len)].
    Runs in [O(len / 8)]. *)

val capacity_bits : t -> int
(** Size in bits of the backing store (for space accounting). *)

val of_string : string -> t
(** [of_string "01011"] builds a buffer from an ASCII description, most
    significant first in reading order: character [i] of the string becomes
    bit [i].  Raises [Invalid_argument] on characters other than '0'/'1'. *)

val to_string : t -> string
(** Inverse of {!of_string}. *)

val add_to_buffer : Buffer.t -> t -> unit
(** [add_to_buffer buf t] appends the [ceil (length t / 8)] bytes of the
    stream to [buf]: bit [8i + j] is bit [j] of byte [i], and the bits
    past [length t] in the last byte are zero. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {2 Memory-access instrumentation}

    An optional global probe observing every read: the callback receives
    [(buffer_id, byte_offset, byte_count)].  Buffers have stable unique
    ids.  Used by the cache simulator to study external-memory behaviour
    (the paper's Section 7 open question); reads cost one extra branch
    while a probe is set and writes are not traced. *)

val set_probe : (int -> int -> int -> unit) option -> unit
val id : t -> int
