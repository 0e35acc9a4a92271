(** Static Wavelet Trie (Section 3 of the paper, Theorem 3.7).

    The Wavelet Trie of a sequence [S] of prefix-free binary strings is
    the Wavelet Tree of [S] whose shape is the Patricia Trie of the
    distinct strings [Sset] (Definition 3.1): each internal node carries
    the longest-common-prefix label α and an RRR-compressed bitvector β
    discriminating, in sequence order, which strings continue with 0 and
    which with 1.

    Supported queries, each in O(|s| + h_s) bitvector operations
    (Lemmas 3.2 and 3.3): [access], [rank], [select], [rank_prefix],
    [select_prefix].

    Space is [LT(Sset) + n H0(S) + o(h̃ n)] bits; {!stats} reports every
    term of the bound next to the measured footprint. *)

type t

include Indexed_sequence.S with type t := t

val of_array : Wt_strings.Bitstring.t array -> t
(** Build from a sequence.  The distinct strings must form a prefix-free
    set; [Invalid_argument] otherwise.  O(total input bits). *)

val of_list : Wt_strings.Bitstring.t list -> t

val to_array : t -> Wt_strings.Bitstring.t array
(** Decode the whole sequence (for tests; O(n) Access-equivalent work). *)

val dump : t -> (string * string option) list
(** Preorder list of nodes as [(α, Some β | None)] rendered as 0/1
    strings — leaves have no bitvector.  Used by the Figure 2 golden
    test. *)

val stats : t -> Stats.t
(** Space accounting per Theorem 3.7. *)

val pp : Format.formatter -> t -> unit
(** Render the trie in the style of the paper's Figure 2 (labels α and
    bitvectors β per node; β truncated past 64 bits). *)

(** Internal node view used by the Section 5 range algorithms
    ({!Range}). *)
module Node : Node_view.CURSORED with type trie = t
