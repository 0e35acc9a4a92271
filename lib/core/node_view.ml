(** The node interface shared by all Wavelet Trie variants.

    The query algorithms of Sections 3–5 (access/rank/select, the prefix
    variants, and the range algorithms) only need trie navigation plus
    rank/select/access/iteration on each node's bitvector β; this module
    type abstracts over the static (RRR), append-only, and fully-dynamic
    (RLE+γ) node representations so {!Query} and {!Range} are written
    once. *)

module type S = sig
  type trie
  type node

  val root : trie -> node option
  (** [None] iff the sequence is empty. *)

  val length : trie -> int
  (** Sequence length [n]. *)

  val label : node -> Wt_strings.Bitstring.t
  (** The node's α. *)

  val label_length : node -> int
  (** [|α|]. *)

  val label_lcp : node -> Wt_strings.Bitstring.t -> int -> int
  (** [label_lcp v s off]: the longest common prefix of α and the bits
      of [s] from [off], what a descent compares at each node; a
      variant that stores α packed compares it in place. *)

  val is_leaf : node -> bool

  val count : node -> int
  (** Length of the subsequence this node represents (for internal nodes,
      the length of β; for leaves, the number of occurrences). *)

  val child : node -> bool -> node
  (** [child v b]: the [b]-labeled child of an internal node. *)

  val bv_rank : node -> bool -> int -> int
  val bv_select : node -> bool -> int -> int
  val bv_access : node -> int -> bool

  val bv_access_rank : node -> int -> bool * int
  (** [(b, rank b pos)] with [b] the bit at [pos], in one pass over β. *)

  val iter_bits : node -> int -> unit -> bool
  (** [iter_bits v pos] returns a cursor yielding β's bits from position
      [pos], one per call, amortized O(1). *)

  val bv_space_bits : node -> int
  (** Measured footprint of an internal node's bitvector (space
      accounting). *)
end

(** {!S} plus a rank cursor over a node's β, for the batch query engine
    ({!module:Exec} in [lib/exec]): one cursor per visited node answers a
    monotone sequence of rank/access queries from cached block state
    instead of a from-scratch directory walk per query. *)
module type CURSORED = sig
  include S

  type cursor

  val bv_cursor : node -> cursor
  (** A fresh cursor over an internal node's β.  O(1). *)

  val cursor_rank : cursor -> bool -> int -> int
  (** Same contract as [bv_rank]; cheap when positions arrive in
      non-decreasing order. *)

  val cursor_access_rank : cursor -> int -> bool * int
  (** Same contract as [bv_access_rank]; cheap on monotone positions. *)
end
