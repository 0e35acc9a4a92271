(** A non-decreasing integer sequence in [0, u], read in place through
    {!Wt_bits.Membuf} — the node offsets of arena versions 2 and 3.
    Nothing writes it any more: version 4 holds its offsets in a
    {!Flat_directory}, and this reader keeps the older arenas (a tiered
    store's runs are the only copy of its strings) readable until a
    compaction rewrites them.

    Values are grouped in blocks of 32.  Each block stores its first
    value verbatim and the other 31 as differences from it, at the
    block's own fixed width (the bit width of its span).  A fixed-width
    block header (first value, bit position of the differences, width)
    makes [get] three header reads and one difference read, whatever the
    gaps between values: a sequence whose first few gaps are huge (the
    root's β in a BFS-ordered trie) and the rest small costs no more to
    read near the root than anywhere else, and each block pays only for
    its own span. *)

type t

val of_membuf : Wt_bits.Membuf.t -> bit:int -> count:int -> universe:int -> t
(** View the stream of [count] values starting at bit [bit].  O(1),
    reads nothing. *)

val headers_bits : count:int -> universe:int -> int
(** Length of the block headers, the part of the stream whose size
    [count] and [universe] alone determine (the differences follow). *)

val length : t -> int

val get : t -> int -> int
(** [get t i] is the [i]-th value.  Every read is bounds-checked; a
    corrupt stream yields arbitrary values or [Invalid_argument]. *)

val get2 : t -> int -> int * int
(** [get2 t i] is [(get t i, get t (i + 1))], sharing the header read
    when both lie in one block. *)
