(** Read-only byte/bit view over a char Bigarray.

    The flat static trie (format v3) runs its queries directly against
    the on-disk arena; a [Membuf.t] is the window it reads through —
    either a private copy ([of_string]) or the [mmap]ed file itself
    ([of_bigarray]).  Every accessor is bounds-checked, so corrupt
    offsets raise [Invalid_argument] instead of faulting, whichever
    backing is in use.

    Bit numbering is LSB-first within each byte, identical to
    {!Bitbuf}: a stream serialized with [Bitbuf.get_bits bb (8*i) 8]
    per byte reads back bit-for-bit with {!get_bits}. *)

type ba = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val of_string : string -> t
(** Copy a string into a private buffer. *)

val of_bigarray : ba -> t
(** View an existing Bigarray without copying (e.g. an [mmap]ed file).
    The view keeps the array alive; the mapping stays valid for the
    lifetime of the [t]. *)

val length : t -> int
(** Size in bytes. *)

val to_string : t -> string
(** Copy the whole window out (e.g. to re-save an opened arena). *)

val sub : t -> int -> int -> t
(** [sub t off len] is the window [off, off+len) sharing storage. *)

val get : t -> int -> int
(** Byte at an offset, [0..255]. *)

val get_u32 : t -> int -> int
(** Little-endian unsigned 32-bit read. *)

val get_u64 : t -> int -> int
(** Little-endian 64-bit read; raises [Invalid_argument] when the value
    does not fit a non-negative OCaml int (i.e. exceeds 62 bits). *)

val get_bit : t -> int -> bool
(** Bit at a bit position. *)

val get_bits : t -> int -> int -> int
(** [get_bits t pos len] packs bits [pos .. pos+len) into an int, bit
    [pos] at bit 0.  Requires [0 <= len <= 62]. *)

val popcount : t -> int -> int -> int
(** [popcount t pos n] counts the set bits among bits [pos, pos + n),
    reading 56 bits per load; raises [Invalid_argument] when the range
    is not inside the window. *)
