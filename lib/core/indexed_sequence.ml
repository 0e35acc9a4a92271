(** The indexed-sequence-of-strings interface (Section 1 of the paper) and
    a naive reference implementation used as the testing oracle.

    All strings are prefix-free bitstrings (binarize byte strings or
    integers with {!Wt_strings.Binarize} first).  Conventions:
    - [rank t s pos] counts occurrences of [s] in positions [0, pos);
    - [select t s idx] is the position of the [idx]-th occurrence
      (0-based), or [None] when there are at most [idx] occurrences;
    - [rank_prefix]/[select_prefix] are the same over strings that start
      with the given prefix. *)

module Bitstring = Wt_strings.Bitstring
module Probe = Wt_obs.Probe

module type S = sig
  type t

  val length : t -> int
  val access : t -> int -> Bitstring.t
  val rank : t -> Bitstring.t -> int -> int
  val select : t -> Bitstring.t -> int -> int option
  val rank_prefix : t -> Bitstring.t -> int -> int
  val select_prefix : t -> Bitstring.t -> int -> int option

  val distinct_count : t -> int
  (** |Sset|: number of distinct strings present. *)

  val space_bits : t -> int
end

module type DYNAMIC = sig
  include S

  val insert : t -> int -> Bitstring.t -> unit
  (** [insert t pos s] places [s] immediately before position [pos]. *)

  val delete : t -> int -> unit
  val append : t -> Bitstring.t -> unit
end

(* ------------------------------------------------------------------ *)
(* Byte-string front-door signatures, implemented by the batch engine
   ([lib/exec]), {!Point} and {!String_api} and re-exported as the
   [Wtrie] entry module.  Every variant presents the same uniform
   surface; the mutating tiers extend it. *)

(** The one error shape shared by every front-door query. *)
type error =
  | Position_out_of_bounds of { pos : int; len : int }
      (** A position argument outside the valid range for the operation
          ([0, len) for [access], [0, len] for [rank]-style counts). *)
  | Negative_count of { count : int }
      (** A negative occurrence index passed to a [select]-style
          operation. *)
  | No_occurrence of { count : int; occurrences : int }
      (** A [select]-style operation asked for occurrence [count]
          (0-based) but only [occurrences] matches exist. *)
  | Trie_closed
      (** The operation reached a static trie whose backing mapping has
          been [close]d; the handle is permanently invalid. *)
  | Storage_error of { path : string; reason : string }
      (** Opening or saving an index file failed: I/O error, corrupt or
          truncated container, format-version or variant mismatch. *)

let pp_error fmt = function
  | Position_out_of_bounds { pos; len } ->
      Format.fprintf fmt "position %d out of bounds (sequence length %d)" pos len
  | Negative_count { count } ->
      Format.fprintf fmt "negative occurrence index %d" count
  | No_occurrence { count; occurrences } ->
      Format.fprintf fmt "no occurrence %d (only %d present)" count occurrences
  | Trie_closed -> Format.fprintf fmt "trie is closed"
  | Storage_error { path; reason } -> Format.fprintf fmt "%s: %s" path reason

(** [protect_batch protect ops f]: [f ()] answers the batch [ops] under
    [protect], which maps a closed handle or a corrupt store to an
    {!error}; such a failure answers every op with that error. *)
let protect_batch protect ops f =
  match protect (fun () -> Ok (f ())) with
  | Ok results -> results
  | Error e -> Array.map (fun _ -> Error e) ops

(** One operation of a query batch.  Strings and prefixes are byte
    strings, exactly as in the scalar API. *)
type op =
  | Access of { pos : int }
  | Rank of { s : string; pos : int }
  | Select of { s : string; count : int }
  | Rank_prefix of { prefix : string; pos : int }
  | Select_prefix of { prefix : string; count : int }

(** Result payload of a batch operation: [Str] for [Access], [Int] for
    everything else (a count for the rank family, a position for the
    select family). *)
type value = Str of string | Int of int

let pp_value fmt = function
  | Str s -> Format.fprintf fmt "%s" s
  | Int n -> Format.fprintf fmt "%d" n

(** The error [op] answers on a sequence of length [n] before any
    lookup: a position out of range or a negative occurrence index. *)
let check n = function
  | Access { pos } when pos < 0 || pos >= n -> Some (Position_out_of_bounds { pos; len = n })
  | (Rank { pos; _ } | Rank_prefix { pos; _ }) when pos < 0 || pos > n ->
      Some (Position_out_of_bounds { pos; len = n })
  | (Select { count; _ } | Select_prefix { count; _ }) when count < 0 ->
      Some (Negative_count { count })
  | Access _ | Rank _ | Rank_prefix _ | Select _ | Select_prefix _ -> None

(** The scalar point ops of {!QUERY_API}, each a batch of one through
    [B.query_batch], so scalar and batched answers agree by construction;
    one [Wt_<op>] latency sample per call.  [count] and [count_prefix]
    raise [Failure] (the {!pp_error} rendering) where [rank] answers an
    error; a closed static handle's [B.length] raises [Flat_wt.Closed]. *)
module Point (B : sig
  type t

  val length : t -> int
  val query_batch : ?domains:int -> t -> op array -> (value, error) result array
end) =
struct
  let one t op = (B.query_batch t [| op |]).(0)
  let str = function Ok (Str s) -> Ok s | Ok (Int _) -> assert false | Error e -> Error e
  let int = function Ok (Int c) -> Ok c | Ok (Str _) -> assert false | Error e -> Error e
  let access t ~pos = Probe.time Wt_access (fun () -> str (one t (Access { pos })))
  let rank t s ~pos = Probe.time Wt_rank (fun () -> int (one t (Rank { s; pos })))
  let select t s ~count = Probe.time Wt_select (fun () -> int (one t (Select { s; count })))

  let rank_prefix t ~prefix ~pos =
    Probe.time Wt_rank_prefix (fun () -> int (one t (Rank_prefix { prefix; pos })))

  let select_prefix t ~prefix ~count =
    Probe.time Wt_select_prefix (fun () -> int (one t (Select_prefix { prefix; count })))

  let total = function Ok c -> c | Error e -> failwith (Format.asprintf "%a" pp_error e)
  let count t s = total (rank t s ~pos:(B.length t))
  let count_prefix t ~prefix = total (rank_prefix t ~prefix ~pos:(B.length t))
end

(** The read side shared verbatim by every variant.

    One signature, included by {!STRING_API} (and therefore by the
    append and dynamic extensions), so a query operation is declared
    exactly once and cannot drift across variants.  The API is labelled
    and uniform: every partial operation returns [(_, error) result]
    with the shared {!error} type; {!val-query_batch} evaluates a
    vector of point operations in one amortized trie traversal, and the
    Section 5 range suite ([select_all] / [range_count] /
    [range_distinct] / [range_topk] / [range_majority] /
    [range_at_least] / [range_quantile], implemented once in {!Range})
    answers window queries with one frontier walk instead of one scalar
    query per reported item.

    Range conventions: [lo]/[hi] delimit the position window
    [\[lo, hi)] of the sequence, defaulting to the whole sequence;
    [?prefix] restricts an operation to stored strings starting with
    that byte prefix (default: all strings).  All range operations are
    pure reads — they are safe on [Dynamic.snapshot] copies published
    through [Wt_par.Snapshot] while the owner keeps mutating. *)
module type QUERY_API = sig
  type t

  val length : t -> int

  val distinct_count : t -> int
  (** |Sset|: number of distinct strings present. *)

  val space_bits : t -> int

  val access : t -> pos:int -> (string, error) result
  (** The string at position [pos]. *)

  val rank : t -> string -> pos:int -> (int, error) result
  (** Occurrences of the string in positions [0, pos). *)

  val select : t -> string -> count:int -> (int, error) result
  (** Position of the [count]-th occurrence (0-based). *)

  val rank_prefix : t -> prefix:string -> pos:int -> (int, error) result
  (** Stored strings starting with [prefix] in positions [0, pos). *)

  val select_prefix : t -> prefix:string -> count:int -> (int, error) result
  (** Position of the [count]-th stored string starting with [prefix]. *)

  val count : t -> string -> int
  (** Total occurrences of the string.  Raises [Failure] where [rank]
      answers an error (see {!Point}). *)

  val count_prefix : t -> prefix:string -> int
  (** Total number of stored strings starting with the byte prefix.
      Raises [Failure] where [rank_prefix] answers an error. *)

  val query_batch : ?domains:int -> t -> op array -> (value, error) result array
  (** Evaluate a whole vector of operations, grouping them by trie path
      and executing level-by-level so each visited node answers a
      monotone sequence of positions from cached bitvector state (the
      batch engine, [lib/exec]).  [query_batch t ops] is equivalent to
      evaluating each operation with the scalar API, in order; per-op
      failures are reported in the result array, never raised.

      [~domains:d] additionally splits the batch into up to [d]
      contiguous shards executed in parallel on the shared domain pool
      ([lib/par]; sized by [WTRIE_DOMAINS] or the machine), each shard
      running the engine with its own cursors, and merges the results
      back in input order — the result array is index-for-index the
      same.  Omitted (or [d = 1], or a small batch), the call never
      touches the pool.  Parallel execution reads the trie without
      locks, so do not mutate the trie during the call; to serve
      queries while updating the dynamic variant, query a [snapshot]
      published through [Wt_par.Snapshot] instead. *)

  (** {2 Range queries}

      Window queries over positions [\[lo, hi)], each answered by one
      root-to-frontier traversal of the trie ({!Range}) instead of a
      loop of scalar queries. *)

  val select_all : ?prefix:string -> ?lo:int -> ?hi:int -> t -> (int array, error) result
  (** All positions in [\[lo, hi)] whose string starts with [prefix],
      ascending.  Equivalent to iterating [select_prefix] over every
      occurrence index and filtering by the window, but the Patricia
      descent happens once and the occurrence block is mapped back to
      root positions level by level. *)

  val range_count : ?prefix:string -> t -> lo:int -> hi:int -> (int, error) result
  (** Number of positions in [\[lo, hi)] whose string starts with
      [prefix]: [rank_prefix hi - rank_prefix lo] in one descent. *)

  val range_distinct :
    ?prefix:string -> ?lo:int -> ?hi:int -> t -> ((string * int) array, error) result
  (** The distinct strings occurring in [\[lo, hi)] (matching [prefix])
      with their in-window occurrence counts, in lexicographic order of
      the stored (binarized) strings.  Touches only subtrees that
      contain window elements. *)

  val range_topk :
    ?prefix:string -> ?lo:int -> ?hi:int -> t -> k:int -> ((string * int) array, error) result
  (** The [k] most frequent strings in [\[lo, hi)] (matching [prefix])
      with their in-window counts, most frequent first — exact, via a
      max-priority queue over trie nodes ordered by subrange size, so
      only nodes whose window count exceeds the k-th answer are
      expanded.  Ties are broken towards the lexicographically smaller
      string. *)

  val range_majority :
    ?prefix:string -> ?lo:int -> ?hi:int -> t -> ((string * int) option, error) result
  (** The string filling more than half of the positions in
      [\[lo, hi)] that match [prefix], with its count; [None] when no
      string does.  One root-to-leaf descent. *)

  val range_at_least :
    ?prefix:string ->
    ?lo:int ->
    ?hi:int ->
    t ->
    threshold:int ->
    ((string * int) array, error) result
  (** The strings occurring at least [threshold] times in [\[lo, hi)]
      (matching [prefix]) with their counts, in the order of
      [range_distinct], which is the same walk pruned at subtrees below
      the threshold.  A [threshold] below 1 answers as 1: every string
      present. *)

  val range_quantile :
    ?prefix:string -> ?lo:int -> ?hi:int -> t -> k:int -> (string option, error) result
  (** The [k]-th (0-based) smallest of the strings in [\[lo, hi)]
      matching [prefix], counted with multiplicity in the order of
      [range_distinct]; [None] when fewer than [k + 1] positions match,
      [Negative_count] when [k < 0]. *)
end

(** {!QUERY_API} plus construction: the full surface of the immutable
    (static) variant, and the base the mutating tiers extend. *)
module type STRING_API = sig
  include QUERY_API

  val of_list : string list -> t
  val of_array : string array -> t
end

(** {!STRING_API} plus file storage: the full surface of the flat
    static variant.  [save_file] writes the format-v3 container (the
    arena itself as payload); [open_file] reopens it either zero-copy
    through [mmap] (the default — ~O(1), one read-only mapping
    shareable across processes) or as a fully-CRC-verified private copy.
    Failures come back as {!error} ([Storage_error], or [Trie_closed]
    after {!STATIC_API.close}); the [_exn] forms raise
    [Failure] with the same rendering. *)
module type STATIC_API = sig
  include STRING_API

  val save_file : t -> string -> (unit, error) result
  (** Atomically write the trie as a format-v3 container. *)

  val save_file_exn : t -> string -> unit

  val open_file : ?mode:[ `Mmap | `Copy ] -> string -> (t, error) result
  (** [open_file path] opens a v3 index.  [`Mmap] (default) verifies the
      header and footer checksums and maps the arena in place — no
      deserialization, no payload copy.  [`Copy] additionally verifies
      the payload checksum and reads the arena into private memory. *)

  val open_file_exn : ?mode:[ `Mmap | `Copy ] -> string -> t

  val close : t -> unit
  (** Release the backing file descriptor.  Idempotent.  Subsequent
      operations on this handle fail deterministically with
      [Trie_closed] (never a crash); in-flight reads in other domains
      remain memory-safe — the mapping itself is reclaimed only when
      the handle is garbage-collected. *)

  val is_closed : t -> bool
end

module type APPEND_API = sig
  include STRING_API

  val create : unit -> t
  val append : t -> string -> unit

  val append_batch : t -> string array -> unit
  (** Append a whole array in one trie traversal ([Append_wt.bulk_append]
      on the append-only variant): equivalent to appending the strings
      one at a time, but each node's branch bits are emitted in one run.
      Raises [Invalid_argument] on a prefix-freeness violation, leaving
      the batch partially applied. *)
end

module type DYNAMIC_API = sig
  include APPEND_API

  val insert : t -> pos:int -> string -> unit
  (** [insert t ~pos s] places [s] immediately before position [pos]. *)

  val delete : t -> pos:int -> unit

  val snapshot : t -> t
  (** A frozen copy of the sequence, isolated from subsequent mutations
      of the original (and vice versa).  Cheap: the skeleton is copied
      but the per-node bitvectors are shared persistently.  Publish
      snapshots through [Wt_par.Snapshot] to serve parallel readers
      while updates land on the owner's working trie. *)
end

(** Array-backed oracle: every operation is a linear scan. *)
module Naive = struct
  type t = { mutable xs : Bitstring.t array; mutable n : int }

  let create () = { xs = [||]; n = 0 }
  let of_array xs = { xs = Array.copy xs; n = Array.length xs }
  let length t = t.n

  let access t pos =
    if pos < 0 || pos >= t.n then invalid_arg "Naive.access";
    t.xs.(pos)

  let count_below t pred pos =
    let acc = ref 0 in
    for i = 0 to pos - 1 do
      if pred t.xs.(i) then incr acc
    done;
    !acc

  let find_nth t pred idx =
    let seen = ref 0 in
    let res = ref None in
    (try
       for i = 0 to t.n - 1 do
         if pred t.xs.(i) then begin
           if !seen = idx then begin
             res := Some i;
             raise Exit
           end;
           incr seen
         end
       done
     with Exit -> ());
    !res

  let rank t s pos =
    if pos < 0 || pos > t.n then invalid_arg "Naive.rank";
    count_below t (Bitstring.equal s) pos

  let select t s idx = if idx < 0 then invalid_arg "Naive.select" else find_nth t (Bitstring.equal s) idx

  let rank_prefix t p pos =
    if pos < 0 || pos > t.n then invalid_arg "Naive.rank_prefix";
    count_below t (fun s -> Bitstring.is_prefix ~prefix:p s) pos

  let select_prefix t p idx =
    if idx < 0 then invalid_arg "Naive.select_prefix"
    else find_nth t (fun s -> Bitstring.is_prefix ~prefix:p s) idx

  let distinct_count t =
    let l = Array.to_list (Array.sub t.xs 0 t.n) in
    List.length (List.sort_uniq Bitstring.compare l)

  let space_bits t =
    let acc = ref (64 * (t.n + 2)) in
    for i = 0 to t.n - 1 do
      acc := !acc + Bitstring.length t.xs.(i)
    done;
    !acc

  let ensure t n =
    if n > Array.length t.xs then begin
      let xs = Array.make (max 8 (2 * n)) Bitstring.empty in
      Array.blit t.xs 0 xs 0 t.n;
      t.xs <- xs
    end

  let insert t pos s =
    if pos < 0 || pos > t.n then invalid_arg "Naive.insert";
    ensure t (t.n + 1);
    Array.blit t.xs pos t.xs (pos + 1) (t.n - pos);
    t.xs.(pos) <- s;
    t.n <- t.n + 1

  let delete t pos =
    if pos < 0 || pos >= t.n then invalid_arg "Naive.delete";
    Array.blit t.xs (pos + 1) t.xs pos (t.n - pos - 1);
    t.n <- t.n - 1

  let append t s = insert t t.n s
  let to_array t = Array.sub t.xs 0 t.n
end
