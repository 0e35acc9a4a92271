(** Append-only Wavelet Trie (Section 4 of the paper, Theorem 4.3).

    A dynamic Patricia Trie skeleton whose internal nodes carry
    append-only compressed bitvectors ({!Wt_bitvector.Appendable}).
    [append s] runs in O(|s| + h_s) — including when [s] is a previously
    unseen string, which splits one trie node: the fresh internal node's
    bitvector is a constant prefix realized as a left offset (the paper's
    O(1) [Init] trick), so compressing and indexing a sequential log on
    the fly is as cheap as querying it.

    Queries are as in the static version: O(|s| + h_s) with O(1)
    bitvector operations.  Space is
    [LB(S) + PT(Sset) + o(h̃ n)] bits, where [PT] is the O(|Sset| w)
    pointer overhead of the dynamic Patricia Trie. *)

type t

include Indexed_sequence.S with type t := t

val create : unit -> t

val append : t -> Wt_strings.Bitstring.t -> unit
(** [append t s] appends [s] at position [length t].  The distinct
    strings must stay prefix-free; [Invalid_argument] otherwise. *)

val of_array : Wt_strings.Bitstring.t array -> t
val to_array : t -> Wt_strings.Bitstring.t array

val snapshot : t -> t
(** A frozen copy for readers on other domains: later appends to [t],
    node splits included, do not affect it.  Copies the node records,
    O(#nodes); each bitvector is an {!Wt_bitvector.Appendable.snapshot}. *)

val bulk_append : t -> Wt_strings.Bitstring.t array -> unit
(** [bulk_append t ss] appends the strings of [ss] in order, routing the
    whole batch through the trie in one traversal: each node's branch
    bits are appended in one run instead of once per root-to-leaf walk.
    The result is identical to [Array.iter (append t) ss].  On a
    prefix-freeness violation, raises [Invalid_argument] and leaves the
    trie partially updated — treat the whole batch as failed. *)

val dump : t -> (string * string option) list
(** Preorder [(α, β)] dump, as {!Wavelet_trie.dump}. *)

val stats : t -> Stats.t

val pp : Format.formatter -> t -> unit
(** Render the trie in the style of the paper's Figure 2 (labels α and
    bitvectors β per node; β truncated past 64 bits). *)

val check_invariants : t -> unit
(** Validate per-node counts and bitvector lengths; raises [Failure]. *)

module Node : Node_view.CURSORED with type trie = t
