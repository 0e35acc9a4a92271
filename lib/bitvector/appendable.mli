(** Append-only compressed bitvector (Section 4.1, Theorem 4.5).

    The bitvector is the concatenation of frozen segments of 4096 bits,
    each an {!Rrr} blob in the arena's code, followed by a small mutable
    tail with an explicit rank directory.  Queries are O(1) (amortized
    within a segment).  [append] is {e worst-case} O(1): when the tail
    fills, it becomes a {e pending} segment whose blob an
    {!Rrr.Encoder} builds a couple of blocks at a time over the next
    few appends (the paper's partial rebuilding [21]); queries meanwhile
    read the pending segment's raw bits, which stay live until the blob
    is written — so at most one segment is duplicated at a time, as in
    the paper's proof.  Space is [n H0 + o(n)] bits.

    The remaining substitution (DESIGN.md): the paper's fusion-tree
    partial sums over segment counters are replaced by binary search,
    which is O(log n) per select but immaterial at realistic word sizes.

    [init] realizes the "left offset" trick of Section 4: the bitvector
    starts with a {e virtual} constant prefix stored as two integers, so
    Wavelet Trie node splits on append cost O(1). *)

type t

include Fid.APPENDABLE with type t := t

val create : unit -> t

val init : bool -> int -> t
(** [init b n] is the bitvector [b^n], represented in O(log n) bits as a
    virtual offset.  O(1). *)

val of_bitbuf : Wt_bits.Bitbuf.t -> t
(** Bulk construction (appends every bit; segments are frozen on the way). *)

val snapshot : t -> t
(** A copy that later appends to the original do not affect, safe to
    read from another domain while the original keeps appending.  It
    shares the frozen segments and the pending segment's raw bits and
    copies the tail and the segment directory: O(segments + 4096/64). *)

val zeros : t -> int
val is_constant : t -> bool

val access_rank : t -> int -> bool * int
(** [access_rank t pos] is [(b, rank t b pos)] with [b = access t pos]. *)

(** Rank cursor for batched queries: an {!Rrr.Cursor} into the blob of
    the frozen segment last queried (the pending segment and tail are
    O(1) per query already).  Frozen segments are immutable, so the
    cursor stays valid across appends.  Any position order is correct;
    monotone positions are the fast path. *)
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
  val next : t -> bool
  val has_next : t -> bool
  val pos : t -> int
end

val check_invariants : t -> unit
(** Validate segment and tail directories; raises [Failure] on violation. *)
