(** Classic static Wavelet Tree over an integer alphabet (Grossi, Gupta,
    Vitter [13]; Section 2 and Figure 1 of the paper).

    The balanced levelwise layout: [ceil (log2 σ)] bitvectors of [n] bits
    each, with symbol bits taken MSB-first.  Access/Rank/Select run in
    O(log σ) bitvector operations; with RRR bitvectors space is
    [n H0(S) + o(n log σ)] bits.

    This is the baseline the Wavelet Trie generalizes: it requires the
    alphabet [0, σ) to be fixed in advance and supports no prefix
    operations on strings.  {!Make} is parameterized by the bitvector
    (use {!Wt_bitvector.Plain} for speed, {!Wt_bitvector.Rrr} for
    compression). *)

module type FID_BUILD = sig
  include Wt_bitvector.Fid.STATIC

  val of_bitbuf : Wt_bits.Bitbuf.t -> t
end

module Make (_ : FID_BUILD) : sig
  type t

  val of_array : sigma:int -> int array -> t
  (** [of_array ~sigma a] stores [a]; every element must lie in
      [0, sigma), [sigma >= 1]. *)

  val length : t -> int
  val sigma : t -> int
  val levels : t -> int

  val access : t -> int -> int
  val rank : t -> int -> int -> int
  (** [rank t sym pos]: occurrences of [sym] in [0, pos). *)

  val select : t -> int -> int -> int option
  (** Position of the [idx]-th occurrence, or [None]. *)

  val range_count : t -> lo:int -> hi:int -> sym_lo:int -> sym_hi:int -> int
  (** Number of positions in [lo, hi) holding a symbol in
      [sym_lo, sym_hi) — the 2-dimensional count of Mäkinen–Navarro [17]
      that lexicographic dictionary mappings use to emulate RankPrefix. *)

  val range_quantile : t -> lo:int -> hi:int -> int -> int
  (** [range_quantile t ~lo ~hi k] is the [k]-th smallest symbol among
      positions [lo, hi) (0-based; duplicates counted) — the range
      quantile algorithm of Gagie–Navarro–Puglisi the paper's Section 5
      builds on.  Requires [0 <= k < hi - lo]. *)

  val level_bits : t -> int -> string
  (** Render level [i]'s bitvector (Figure 1 golden test). *)

  val space_bits : t -> int
end

module Over_plain : module type of Make (Wt_bitvector.Plain)

module Forced_rrr : FID_BUILD with type t = Wt_bitvector.Rrr.t
(** {!Wt_bitvector.Rrr} with every blob forced into class-range RRR,
    where the arena's coder would store a dense bitvector plain: the
    A.rrr ablation measures RRR. *)

module Over_rrr : module type of Make (Forced_rrr)
