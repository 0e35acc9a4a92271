(** Range queries on the Wavelet Trie (Section 5 of the paper): the one
    read-side suite behind every backend's window queries.

    Every operation works over the position window [\[lo, hi)] of the
    sequence, optionally restricted by [?prefix] to the strings that
    start with it: one Patricia descent finds the node [n_p] of
    Lemma 3.3, and one rank cursor per trail node maps both window
    endpoints into its subsequence.  Below [n_p] the traversals touch
    only subtrees that hold window elements.  [Cop] (the cost of one
    bitvector operation) is O(1) for the static and append-only tries
    and O(log n) for the fully dynamic one.

    - {!Make.select_all}: every window position whose string matches,
      ascending — the occurrence block at [n_p] mapped back to root
      positions level by level (a batched Lemma 3.3);
    - {!Make.range_count}: [rank_prefix hi - rank_prefix lo] in one
      descent;
    - {!Make.range_distinct} and {!Make.at_least}: the distinct values
      with their window counts, in lexicographic order — one depth-first
      walk that descends wherever a subtree holds at least [threshold]
      window elements (the paper's pruning heuristic for frequent
      values; [range_distinct] is threshold 1);
    - {!Make.range_topk}: the [k] most frequent values, exactly, by a
      best-first search over a max-heap of trie nodes keyed by window
      count;
    - {!Make.majority}: the range majority element, O(h · Cop);
    - {!Make.quantile}: the k-th lexicographically smallest string in the
      window (the range-quantile algorithm of [11], which Section 5
      cites);
    - {!Make.iter_range}: sequential access through per-node bit
      iterators — one rank per traversed node, then O(1) amortized per
      emitted bit.

    {!Make} answers at the bitstring level over any
    {!Node_view.CURSORED} trie; {!Make_string} is the byte-string façade
    over any {!S} (a single trie, or the tiered store's merged view):
    window validation into {!Indexed_sequence.error}s, prefix
    binarization, leaf decoding and observability.  All operations are
    pure reads: they are safe on [Dynamic_wt.snapshot] copies published
    through [Wt_par.Snapshot] while the owner mutates. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Iseq = Indexed_sequence
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace

let bit0 = Bitstring.of_bool_list [ false ]
let bit1 = Bitstring.of_bool_list [ true ]

(** The bitstring-level suite.  Windows must be valid
    ([0 <= lo <= hi <= length]); strings and prefixes are binarized. *)
module type S = sig
  type t

  val length : t -> int
  val select_all : ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> int array
  val range_count : ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> int

  val range_distinct :
    ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> (Bitstring.t * int) array

  val range_topk :
    ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> k:int -> (Bitstring.t * int) array

  val majority : ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> (Bitstring.t * int) option

  val at_least :
    ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> threshold:int -> (Bitstring.t * int) array
  (** [threshold >= 1]. *)

  val quantile : ?prefix:Bitstring.t -> t -> lo:int -> hi:int -> int -> Bitstring.t option
  (** [k >= 0]; [None] when the window holds at most [k] matches. *)
end

module Make (N : Node_view.CURSORED) = struct
  module Q = Query.Make (N)

  type t = N.trie

  let length = N.length

  (* The window [lo, hi) down-mapped into the subsequence of the node
     covering the prefix (np of Lemma 3.3), plus the descent trail
     (root-first) and the bitstring spelled from the root down to and
     including np's label. *)
  type window = {
    node : N.node;
    trail : (N.node * bool) array;
    path : Bitstring.t;
    lo : int;
    hi : int;
  }

  (* One Patricia descent resolves the prefix; then one rank cursor per
     trail node down-maps both window endpoints (monotone: lo <= hi).
     [None] when the sequence is empty or no stored string starts with
     the prefix. *)
  let resolve ?prefix trie ~lo ~hi =
    if lo < 0 || hi > N.length trie || lo > hi then invalid_arg "Range: bad range";
    match N.root trie with
    | None -> None
    | Some root -> (
        match prefix with
        | None -> Some { node = root; trail = [||]; path = N.label root; lo; hi }
        | Some p -> (
            match Q.prefix_trail trie p with
            | None -> None
            | Some (np, rev_trail) ->
                let trail = Array.of_list (List.rev rev_trail) in
                let lo = ref lo and hi = ref hi in
                let pieces = ref [] in
                Array.iter
                  (fun (node, b) ->
                    let cur = N.bv_cursor node in
                    lo := N.cursor_rank cur b !lo;
                    hi := N.cursor_rank cur b !hi;
                    pieces := (if b then bit1 else bit0) :: N.label node :: !pieces)
                  trail;
                let path = Bitstring.concat (List.rev (N.label np :: !pieces)) in
                Some { node = np; trail; path; lo = !lo; hi = !hi }))

  let range_count ?prefix trie ~lo ~hi =
    match resolve ?prefix trie ~lo ~hi with None -> 0 | Some w -> w.hi - w.lo

  (* Map one level's ascending occurrence indices [out] (indices into the
     [b]-subsequence of [node]'s β) back to β positions, in place.  When
     the block is dense in β — the hits span fewer than [scan_factor]
     positions per hit — a single bit scan from the first hit replaces
     the per-index directory selects; two boundary selects decide. *)
  let scan_factor = 8

  let up_level node b out =
    let c = Array.length out in
    Probe.hit Wt_nodes_visited;
    let first = N.bv_select node b out.(0) in
    if c = 1 then out.(0) <- first
    else begin
      let last = N.bv_select node b out.(c - 1) in
      if last - first < scan_factor * c then begin
        (* dense: one amortized-O(span) scan for the whole block *)
        let next = N.iter_bits node first in
        let cnt = ref out.(0) in
        let k = ref 0 in
        let pos = ref first in
        while !k < c do
          (if next () = b then begin
             if !cnt = out.(!k) then begin
               out.(!k) <- !pos;
               incr k
             end;
             incr cnt
           end);
          incr pos
        done
      end
      else begin
        out.(0) <- first;
        for i = 1 to c - 2 do
          out.(i) <- N.bv_select node b out.(i)
        done;
        out.(c - 1) <- last
      end
    end

  let select_all ?prefix trie ~lo ~hi =
    match resolve ?prefix trie ~lo ~hi with
    | None -> [||]
    | Some w ->
        let c = w.hi - w.lo in
        if c = 0 then [||]
        else begin
          let out = Array.init c (fun i -> w.lo + i) in
          for i = Array.length w.trail - 1 downto 0 do
            let node, b = w.trail.(i) in
            up_level node b out
          done;
          out
        end

  (* The leaves under [w] holding at least [threshold] window elements,
     with their counts: a subtree's window count bounds every value
     below it, so the walk descends only where that count reaches the
     threshold.  0-subtrees go first, so the output is lexicographic. *)
  let frequent w ~threshold =
    let acc = ref [] in
    let rec go node path lo hi =
      Probe.hit Wt_nodes_visited;
      if N.is_leaf node then acc := (path, hi - lo) :: !acc
      else begin
        let cur = N.bv_cursor node in
        let z_lo = N.cursor_rank cur false lo in
        let z_hi = N.cursor_rank cur false hi in
        (if z_hi - z_lo >= threshold then
           let c0 = N.child node false in
           go c0 (Bitstring.concat [ path; bit0; N.label c0 ]) z_lo z_hi);
        let o_lo = lo - z_lo and o_hi = hi - z_hi in
        if o_hi - o_lo >= threshold then begin
          let c1 = N.child node true in
          go c1 (Bitstring.concat [ path; bit1; N.label c1 ]) o_lo o_hi
        end
      end
    in
    if w.hi - w.lo >= threshold then go w.node w.path w.lo w.hi;
    Array.of_list (List.rev !acc)

  let range_distinct ?prefix trie ~lo ~hi =
    match resolve ?prefix trie ~lo ~hi with
    | None -> [||]
    | Some w -> frequent w ~threshold:1

  let at_least ?prefix trie ~lo ~hi ~threshold =
    if threshold < 1 then invalid_arg "Range.at_least: threshold must be >= 1";
    match resolve ?prefix trie ~lo ~hi with
    | None -> [||]
    | Some w -> frequent w ~threshold

  type 'node entry = {
    cnt : int;
    path : Bitstring.t;
    enode : 'node;
    elo : int;
    ehi : int;
  }

  (* Entry order for the top-k priority queue: larger window count first,
     lexicographically smaller path on ties.  Path order is sound for
     tie-breaking: a node's path is a prefix of every descendant's, and
     prefixes compare smaller, so an expanded child never outranks a
     leaf already popped ahead of its parent. *)
  let better a b = a.cnt > b.cnt || (a.cnt = b.cnt && Bitstring.compare a.path b.path < 0)

  (* Exact top-k by best-first search (the wavelet-tree top-k of
     Gagie–Navarro–Puglisi, which the paper's Section 5 heuristic
     approximates): a node's window count bounds every value below it,
     so expanding nodes in [better] order pops leaves in decreasing
     frequency, and only nodes whose count can still beat the k-th
     answer are expanded. *)
  let range_topk ?prefix trie ~lo ~hi ~k =
    match resolve ?prefix trie ~lo ~hi with
    | None -> [||]
    | Some w ->
        if k = 0 || w.hi = w.lo then [||]
        else begin
          (* binary max-heap of disjoint subtrees, ordered by [better] *)
          let dummy = { cnt = 0; path = Bitstring.empty; enode = w.node; elo = 0; ehi = 0 } in
          let buf = ref (Array.make 16 dummy) in
          let size = ref 0 in
          let swap i j =
            let t = !buf.(i) in
            !buf.(i) <- !buf.(j);
            !buf.(j) <- t
          in
          let push e =
            if !size = Array.length !buf then begin
              let b = Array.make (2 * !size) dummy in
              Array.blit !buf 0 b 0 !size;
              buf := b
            end;
            !buf.(!size) <- e;
            let i = ref !size in
            incr size;
            while !i > 0 && better !buf.(!i) !buf.((!i - 1) / 2) do
              swap !i ((!i - 1) / 2);
              i := (!i - 1) / 2
            done
          in
          let pop () =
            let top = !buf.(0) in
            decr size;
            !buf.(0) <- !buf.(!size);
            let i = ref 0 in
            let sifting = ref true in
            while !sifting do
              let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
              let m = ref !i in
              if l < !size && better !buf.(l) !buf.(!m) then m := l;
              if r < !size && better !buf.(r) !buf.(!m) then m := r;
              if !m = !i then sifting := false
              else begin
                swap !i !m;
                i := !m
              end
            done;
            top
          in
          let out = ref [] in
          let taken = ref 0 in
          push { cnt = w.hi - w.lo; path = w.path; enode = w.node; elo = w.lo; ehi = w.hi };
          while !taken < k && !size > 0 do
            let e = pop () in
            Probe.hit Wt_nodes_visited;
            if N.is_leaf e.enode then begin
              (* no unexpanded subtree can beat a popped leaf *)
              out := (e.path, e.cnt) :: !out;
              incr taken
            end
            else begin
              let cur = N.bv_cursor e.enode in
              let z_lo = N.cursor_rank cur false e.elo in
              let z_hi = N.cursor_rank cur false e.ehi in
              (if z_hi > z_lo then
                 let c0 = N.child e.enode false in
                 push
                   {
                     cnt = z_hi - z_lo;
                     path = Bitstring.concat [ e.path; bit0; N.label c0 ];
                     enode = c0;
                     elo = z_lo;
                     ehi = z_hi;
                   });
              let o_lo = e.elo - z_lo and o_hi = e.ehi - z_hi in
              if o_hi > o_lo then begin
                let c1 = N.child e.enode true in
                push
                  {
                    cnt = o_hi - o_lo;
                    path = Bitstring.concat [ e.path; bit1; N.label c1 ];
                    enode = c1;
                    elo = o_lo;
                    ehi = o_hi;
                  }
              end
            end
          done;
          Array.of_list (List.rev !out)
        end

  (* The majority can only live in the branch holding more than half of
     the window, so the descent follows that branch or stops. *)
  let majority ?prefix trie ~lo ~hi =
    match resolve ?prefix trie ~lo ~hi with
    | None -> None
    | Some w ->
        if w.hi <= w.lo then None
        else begin
          let total = w.hi - w.lo in
          let rec go node parts lo hi =
            if N.is_leaf node then begin
              let count = hi - lo in
              if 2 * count > total then
                Some (Bitstring.concat (List.rev parts), count)
              else None
            end
            else begin
              let z_lo = N.bv_rank node false lo and z_hi = N.bv_rank node false hi in
              let zeros = z_hi - z_lo in
              let ones = hi - lo - zeros in
              if 2 * zeros > total then
                go (N.child node false)
                  (N.label (N.child node false) :: bit0 :: parts)
                  z_lo z_hi
              else if 2 * ones > total then
                go (N.child node true)
                  (N.label (N.child node true) :: bit1 :: parts)
                  (lo - z_lo) (hi - z_hi)
              else None
            end
          in
          go w.node [ w.path ] w.lo w.hi
        end

  (* k-th lexicographically smallest string in the window — the range
     quantile algorithm of Gagie–Navarro–Puglisi [11], which Section 5
     builds on: descend taking the 0-branch while it holds more than k
     window elements, else discount them and go right.  O(h · Cop). *)
  let quantile ?prefix trie ~lo ~hi k =
    if k < 0 then invalid_arg "Range.quantile";
    match resolve ?prefix trie ~lo ~hi with
    | None -> None
    | Some w ->
        if k >= w.hi - w.lo then None
        else begin
          let rec go node parts lo hi k =
            if N.is_leaf node then Some (Bitstring.concat (List.rev parts))
            else begin
              let z_lo = N.bv_rank node false lo and z_hi = N.bv_rank node false hi in
              let zeros = z_hi - z_lo in
              if k < zeros then
                go (N.child node false)
                  (N.label (N.child node false) :: bit0 :: parts)
                  z_lo z_hi k
              else
                go (N.child node true)
                  (N.label (N.child node true) :: bit1 :: parts)
                  (lo - z_lo) (hi - z_hi) (k - zeros)
            end
          in
          go w.node [ w.path ] w.lo w.hi k
        end

  (* Lazily-built cursor tree for sequential access. *)
  type cursor = {
    node : N.node;
    path : Bitstring.t; (* full string prefix incl. this node's label *)
    next_bit : (unit -> bool) option; (* None for leaves *)
    mutable zero : cursor option;
    mutable one : cursor option;
    mutable zero_start : int; (* subsequence position where the child
                                 cursor starts when first created *)
    mutable one_start : int;
  }

  let make_cursor node path start =
    {
      node;
      path;
      next_bit = (if N.is_leaf node then None else Some (N.iter_bits node start));
      zero = None;
      one = None;
      zero_start = (if N.is_leaf node then 0 else N.bv_rank node false start);
      one_start = (if N.is_leaf node then 0 else N.bv_rank node true start);
    }

  let rec cursor_next c =
    match c.next_bit with
    | None -> c.path
    | Some next ->
        let b = next () in
        let child =
          if b then (
            match c.one with
            | Some x -> x
            | None ->
                let ch = N.child c.node true in
                let x = make_cursor ch (Bitstring.concat [ c.path; bit1; N.label ch ]) c.one_start in
                c.one <- Some x;
                x)
          else
            match c.zero with
            | Some x -> x
            | None ->
                let ch = N.child c.node false in
                let x = make_cursor ch (Bitstring.concat [ c.path; bit0; N.label ch ]) c.zero_start in
                c.zero <- Some x;
                x
        in
        cursor_next child

  (** [iter_range ?prefix trie ~lo ~hi f] calls [f] on every matching
      string of the window, in sequence order. *)
  let iter_range ?prefix trie ~lo ~hi f =
    match resolve ?prefix trie ~lo ~hi with
    | None -> ()
    | Some w ->
        if w.lo < w.hi then begin
          let c = make_cursor w.node w.path w.lo in
          for _ = w.lo to w.hi - 1 do
            f (cursor_next c)
          done
        end
end

(** Byte-string façade over any {!S}: argument validation against the
    shared {!Iseq.error} shape, prefix binarization and leaf-path
    decoding.  The four window ops of the analytics suite also record
    observability — one [Analytics_*] counter hit, a latency sample and
    an [analytics.*] span per call.  Signatures match the range half of
    {!Iseq.QUERY_API}. *)
(* No [type t] here: the module is [include]d next to the variant's
   string façade, which already fixes [t]. *)
module Make_string (R : S) = struct
  let window t lo hi =
    let len = R.length t in
    let lo = Option.value lo ~default:0 in
    let hi = Option.value hi ~default:len in
    if lo < 0 || lo > len then Error (Iseq.Position_out_of_bounds { pos = lo; len })
    else if hi < lo || hi > len then Error (Iseq.Position_out_of_bounds { pos = hi; len })
    else Ok (lo, hi)

  let bits_prefix = Option.map String_api.encode_prefix
  let decode (path, n) = (Binarize.to_bytes path, n)

  (* Validate the window, then run [f lo hi] counted, timed and spanned
     under [metric]/[span]. *)
  let observed metric span ?(args = []) t lo hi f =
    match window t lo hi with
    | Error e -> Error e
    | Ok (lo, hi) ->
        Probe.hit metric;
        Trace.with_span ~args:(("lo", lo) :: ("hi", hi) :: args) span (fun () ->
            Probe.time metric (fun () -> Ok (f lo hi)))

  let select_all ?prefix ?lo ?hi t =
    observed Analytics_select_all "analytics.select_all" t lo hi (fun lo hi ->
        R.select_all ?prefix:(bits_prefix prefix) t ~lo ~hi)

  let range_count ?prefix t ~lo ~hi =
    observed Analytics_range_count "analytics.range_count" t (Some lo) (Some hi)
      (fun lo hi -> R.range_count ?prefix:(bits_prefix prefix) t ~lo ~hi)

  let range_distinct ?prefix ?lo ?hi t =
    observed Analytics_distinct "analytics.distinct" t lo hi (fun lo hi ->
        Array.map decode (R.range_distinct ?prefix:(bits_prefix prefix) t ~lo ~hi))

  let range_topk ?prefix ?lo ?hi t ~k =
    if k < 0 then Error (Iseq.Negative_count { count = k })
    else
      observed Analytics_topk "analytics.topk" ~args:[ ("k", k) ] t lo hi (fun lo hi ->
          Array.map decode (R.range_topk ?prefix:(bits_prefix prefix) t ~lo ~hi ~k))

  let range_majority ?prefix ?lo ?hi t =
    Result.map
      (fun (lo, hi) -> Option.map decode (R.majority ?prefix:(bits_prefix prefix) t ~lo ~hi))
      (window t lo hi)

  (* A threshold below 1 asks for every string present: threshold 1. *)
  let range_at_least ?prefix ?lo ?hi t ~threshold =
    Result.map
      (fun (lo, hi) ->
        Array.map decode
          (R.at_least ?prefix:(bits_prefix prefix) t ~lo ~hi ~threshold:(max 1 threshold)))
      (window t lo hi)

  let range_quantile ?prefix ?lo ?hi t ~k =
    if k < 0 then Error (Iseq.Negative_count { count = k })
    else
      Result.map
        (fun (lo, hi) ->
          Option.map Binarize.to_bytes (R.quantile ?prefix:(bits_prefix prefix) t ~lo ~hi k))
        (window t lo hi)
end

(** Pre-applied bitstring-level instances for the Wavelet Trie
    variants; [Static] runs on the flat arena ({!Flat_wt}). *)
module Static = Make (Flat_wt.Node)

module Append = Make (Append_wt.Node)
module Dynamic = Make (Dynamic_wt.Node)
