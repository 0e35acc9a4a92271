(** Immutable binary strings.

    A [Bitstring.t] is an immutable sequence of bits with O(1) [sub]/
    [drop]/[prefix] (structural sharing) and word-parallel [lcp] and
    [compare].  All Wavelet Trie node labels α, all Patricia Trie labels,
    and all binarized query strings are bitstrings.

    Positions are 0-based; bit 0 is the first bit of the string (the most
    significant decision bit when descending a trie). *)

type t

val empty : t
val length : t -> int
val is_empty : t -> bool

val get : t -> int -> bool
(** [get t i] is bit [i].  Requires [0 <= i < length t]. *)

val get_bits : t -> int -> int -> int
(** [get_bits t pos len] packs bits [pos .. pos+len) into an int, bit
    [pos] at bit 0.  Requires [0 <= len <= 62]. *)

val sub : t -> int -> int -> t
(** [sub t pos len] is the substring of [len] bits starting at [pos].
    O(1): shares storage. *)

val drop : t -> int -> t
(** [drop t n] removes the first [n] bits.  O(1). *)

val prefix : t -> int -> t
(** [prefix t n] keeps the first [n] bits.  O(1). *)

val append : t -> t -> t
(** Concatenation (copies). *)

val concat : t list -> t

val cons : bool -> t -> t
(** [cons b t] prepends a single bit. *)

val snoc : t -> bool -> t
(** [snoc t b] appends a single bit. *)

val lcp : t -> t -> int
(** Length of the longest common prefix, in bits.  Word-parallel. *)

val lcp_from : t -> t -> int -> int
(** [lcp_from a b off] is [lcp a (drop b off)], without allocating.
    Requires [0 <= off <= length b]. *)

val is_prefix : prefix:t -> t -> bool

val compare : t -> t -> int
(** Lexicographic bit order; a proper prefix sorts before its extensions. *)

val equal : t -> t -> bool
val hash : t -> int

val of_string : string -> t
(** [of_string "0110"] reads an ASCII description, leftmost character
    first. *)

val to_string : t -> string

val of_bool_list : bool list -> t
val to_bool_list : t -> bool list

val of_bitbuf : Wt_bits.Bitbuf.t -> t
(** Copies the buffer. *)

val unsafe_of_bitbuf : Wt_bits.Bitbuf.t -> t
(** Wraps the buffer without copying.  The caller must not mutate it
    afterwards (bitstrings are assumed immutable). *)

val append_to_bitbuf : t -> Wt_bits.Bitbuf.t -> unit
(** Append all bits to a buffer (used to build label streams). *)

val pp : Format.formatter -> t -> unit
