(** The node directory of arena version 4, read in place through
    {!Wt_bits.Membuf}: for each of [nodes] nodes whether it is internal,
    and a non-decreasing sequence of [nodes + 1] offsets in [0, u] (node
    [i] owns [[get i, get (i + 1))]).

    The offsets are a partitioned Elias–Fano sequence
    (Ottaviano–Venturini, SIGIR 2014) in blocks of 32.  Each block has
    one fixed-width record — the internal nodes before it, its 32
    topology bits, its first offset verbatim, where its body starts, its
    low-bit width [l] and its high part's length — and a body holding
    its other 31 offsets relative to the first: a unary high part
    (offset [e] sets bit [(d lsr l) + e], [d] its difference) of at most
    62 bits, then the low [l] bits of each.  [l] is the least width that
    keeps the high part within 62 bits, so one read serves any offset's
    high part, and a block pays only for its own span: the root's β,
    thousands of bits wide, costs nothing to the blocks after it.

    Every read stays inside its own block's record and body (and, for
    the extent of a block's last node, the next record), and inside the
    stream's [bits]; a corrupt stream yields arbitrary values or
    [Invalid_argument]. *)

type t

val append : Wt_bits.Bitbuf.t -> internal:Wt_bits.Bitbuf.t -> universe:int -> int array -> unit
(** [append bb ~internal ~universe offsets] appends the directory of
    [nodes = Array.length offsets - 1] nodes, node [i] internal iff bit
    [i] of [internal] is set.  Raises [Invalid_argument] unless
    [offsets] is non-empty and non-decreasing in [0, universe] and
    [internal] has [nodes] bits, at most [nodes / 2] of them set (as in
    a binary tree). *)

val records_bits : nodes:int -> universe:int -> int
(** Length of the records, the part of the stream whose size [nodes]
    and [universe] alone determine (the bodies follow). *)

val of_membuf : Wt_bits.Membuf.t -> bit:int -> bits:int -> nodes:int -> universe:int -> t
(** View the [bits]-bit stream at bit [bit].  Reads nothing.  Raises
    [Invalid_argument] when [bits < records_bits ~nodes ~universe]. *)

val irank : t -> int -> int
(** [irank t i] is node [i]'s rank among the internal nodes, [-1] for a
    leaf.  One record read. *)

val get : t -> int -> int
(** [get t i] is offset [i], [0 <= i <= nodes]. *)

val visit : t -> int -> int * int * int
(** [visit t i] is node [i]'s rank among the internal nodes and its
    extent, [(irank t i, get t i, get t (i + 1))], from one pass over
    its block's record and body: two record reads, one high-part read
    and one read of both low parts. *)

val internal_count : t -> int
(** Internal nodes in all, from the last record. *)

val check : t -> unit
(** Structural check: every record's rank sample is the internal
    nodes before it and no topology bit lies past the last node; the
    bodies are laid out in order and end the stream; each high part has
    one set bit per offset and ends with one; the offsets are
    non-decreasing in [0, universe].  Raises [Failure] on the first
    violation. *)
