(** Write-optimized tiered store: a small append-only delta absorbing
    ingests, immutable flat-arena runs absorbing compactions, and a
    merged read view over both.

    The store only ever appends, so the delta is the paper's §4.1
    append-only trie ([Append_wt]): O(|s| + h_s) per ingest, worst
    case, with a new string splitting one node in O(1) through
    [Init]'s left offset.  Static runs answer the older history at
    flat-arena speed — the shape of Navarro–Nekrich's dynamic
    sequences, static parts plus a small buffer rebuilt
    periodically, here with logarithmically many parts.  The moving
    parts:

    - {b Ingest} appends the raw byte string to the WAL channel's
      buffer, then to the in-memory [Append_wt] delta; {!flush} (the
      write and the fsync) is the ack point.  The WAL is the delta's
      replay source — there is no separate delta snapshot file.
    - {b Reads} go through a {!View}: the tier list
      [runs…; sealed?; delta] with prefix-sum offsets.  The view
      implements the whole query surface — the point ops through
      [query_batch], a two-phase per-tier batch decomposition that
      reuses the batch engine and the domain pool on every tier (a
      scalar op is a batch of one, as for every variant), and the range
      suite via per-tier windows merged into one tally by string.
    - {b Compaction}: the writer seals the delta the moment it reaches
      the threshold, waiting first for a compaction still running (at
      most one sealed delta, so every seal adds exactly [threshold]
      strings).  Nothing appends to a sealed trie again, so the
      compactor and every query share it as it is, with no copy; it
      stays a view tier until the commit.  The new run absorbs,
      walking back from the newest, every run no longer than what it
      holds so far — a binary counter over run sizes, so after k seals
      the runs hold [threshold] times the set bits of k.  The
      compactor builds it by a structural merge of those runs and the
      sealed trie ([Flat_wt.merge]: node by node, no string decoded)
      off the owner's critical path — on a background domain or, for
      the synchronous [compact], optionally through a [Wt_par.Pool] —
      and commits with a strict ordering: run file durable (its name
      records how many runs it replaces), WAL rotated to the next
      generation carrying only post-seal ingests, manifest swapped
      with the absorbed runs dropped, their files deleted.  Each
      window of that ordering is recoverable (see {!open_}).
    - {b Publication}: every commit (and [publish]) installs a frozen
      view in a {!Wt_par.Snapshot}, so concurrent readers and the
      serving front-end never observe a torn tier list; a batch in
      flight keeps the epoch's tiers alive until it completes.  The
      live delta goes in as an [Append_wt.snapshot], O(delta nodes):
      node records are copied, since a split rewrites a node in place;
      each bitvector shares its frozen RRR segments and its pending
      segment's raw bits, which nothing writes any more, and copies
      its tail and segment directory, which [append] still writes.
    - {b Failures}: a failed compaction or a failed WAL flush or fsync
      poisons the writer — every later [ingest], [flush] or [compact]
      re-raises the error, reads keep working, and a reopen recovers
      what the disk holds.  A failed fsync is never an ack.

    On-disk layout (a store is a directory):
    - [manifest.wtx] — format-v2 container, tag ["tiered-manifest"],
      payload = marshalled [(generation, run file names oldest-first,
      next run number)];
    - [run-NNNNNN.wtx] — format-v3 flat-arena containers;
      [run-NNNNNN-rJ.wtx] for a run that replaced the J newest runs
      before it;
    - [wal.log] — {!Wt_durable.Wal} log, tag ["tiered"], generation
      equal to the manifest's; append records only.

    Crash windows of a compaction commit, and how {!open_} resolves
    them (g = manifest generation on disk, w = WAL generation):
    - after the run write, before the WAL rotation: the run file is an
      orphan ([w = g]); the full WAL replays, the orphan is deleted and
      the next compaction rewrites it atomically;
    - after the WAL rotation, before the manifest swap ([w = g+1]):
      roll forward — the pending run [run-<next>] (plain, or [-rJ])
      holds exactly the records the rotation dropped merged with the J
      newest runs, so it is adopted in their place, the manifest
      rewritten at [g+1], and the (suffix-only) WAL replayed;
    - after the manifest swap, before the replaced files are deleted:
      they are orphans too, deleted by the next read-write open;
    - [w < g] or torn WAL header: the log is stale (its records are
      already inside a run) — reset it;
    - [w > g+1]: impossible under the protocol; refuse to open.

    A directory holding [snapshot.wtx] and no manifest is a snapshot+WAL
    store of earlier versions: every entry point refuses it except
    {!recover}, which migrates it into a store of one run (see
    {!migrate}). *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Iseq = Wt_core.Indexed_sequence
module Flat_wt = Wt_core.Flat_wt
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
module Stats = Wt_core.Stats
module Container = Wt_durable.Container
module Wal = Wt_durable.Wal
module Fault = Wt_durable.Fault
module Snapshot = Wt_par.Snapshot
module Pool = Wt_par.Pool
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace
module Flight = Wt_obs.Flight
module Export = Wt_obs.Export

let manifest_tag = "tiered-manifest"
let wal_tag = "tiered"
let default_threshold = 4096
let fail fmt = Printf.ksprintf (fun m -> raise (Container.Format_error m)) fmt

(* Arm the flight recorder's crash marker: when fault injection tears a
   write, the dump taken at exit shows the [crash] event after the WAL
   appends and commits that led up to it. *)
let () = Fault.set_crash_hook (fun msg -> Flight.record ~note:msg Crash)

(* ------------------------------------------------------------------ *)
(* Merged read view *)

module View = struct
  type tier = Run of Flat_wt.t | App of Append_wt.t

  type t = {
    tiers : tier array;
    offsets : int array;  (** |tiers|+1 prefix sums of tier lengths *)
    dir : string;  (** the store's directory, named in read errors *)
  }

  let tier_length = function
    | Run f -> Flat_wt.length f
    | App d -> Append_wt.length d

  let make ~dir tiers =
    let n = Array.length tiers in
    let offsets = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      offsets.(i + 1) <- offsets.(i) + tier_length tiers.(i)
    done;
    { tiers; offsets; dir }

  let length v = v.offsets.(Array.length v.tiers)
  let tier_len v i = v.offsets.(i + 1) - v.offsets.(i)

  (* The tier holding global position [pos] (valid: 0 <= pos < length):
     the greatest [i] with [offsets.(i) <= pos], found by binary search
     over the prefix sums.  Empty tiers share an offset with their
     successor and are skipped by the greatest-index rule. *)
  let locate v pos =
    let lo = ref 0 and hi = ref (Array.length v.tiers - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if v.offsets.(mid) <= pos then lo := mid else hi := mid - 1
    done;
    !lo

  let t_stats = function Run f -> Flat_wt.stats f | App d -> Append_wt.stats d

  (* The global window [lo, hi) clipped to tier [i], in tier-local
     coordinates; [None] when they do not intersect. *)
  let clip v i ~lo ~hi =
    let a = max lo v.offsets.(i) and b = min hi v.offsets.(i + 1) in
    if a >= b then None else Some (a - v.offsets.(i), b - v.offsets.(i))

  (* Per-tier range suites, at the bitstring level. *)
  module RS = Wt_core.Range.Static
  module RA = Wt_core.Range.Append
  module Btbl = Hashtbl.Make (Bitstring)

  (* The one tally merge: per-tier distinct lists summed by string.
     Tiers are independent tries, but a leaf's path spells its whole
     binarized string, so equal strings have equal paths in every
     tier.  Lexicographic order, like a single trie's distinct walk. *)
  let tally ?prefix v ~lo ~hi =
    let tbl = Btbl.create 64 in
    Array.iteri
      (fun i t ->
        match clip v i ~lo ~hi with
        | None -> ()
        | Some (l, h) ->
            let items =
              match t with
              | Run f -> RS.range_distinct ?prefix f ~lo:l ~hi:h
              | App d -> RA.range_distinct ?prefix d ~lo:l ~hi:h
            in
            Array.iter
              (fun (path, c) ->
                Btbl.replace tbl path (c + Option.value (Btbl.find_opt tbl path) ~default:0))
              items)
      v.tiers;
    let items = Array.of_seq (Btbl.to_seq tbl) in
    Array.sort (fun (a, _) (b, _) -> Bitstring.compare a b) items;
    items

  (* The range suite over the merged view.  Windows are assumed valid,
     as in {!Wt_core.Range.Make}; counting ops sum per-tier answers, the
     rest read the merged tally — a string in no single tier's top k
     or majority can still win on the merged counts. *)
  module Suite = struct
    type nonrec t = t

    let length = length

    let select_all ?prefix v ~lo ~hi =
      let parts = ref [] in
      for i = Array.length v.tiers - 1 downto 0 do
        match clip v i ~lo ~hi with
        | None -> ()
        | Some (l, h) ->
            let arr =
              match v.tiers.(i) with
              | Run f -> RS.select_all ?prefix f ~lo:l ~hi:h
              | App d -> RA.select_all ?prefix d ~lo:l ~hi:h
            in
            let off = v.offsets.(i) in
            parts := Array.map (fun p -> p + off) arr :: !parts
      done;
      (* per-tier results are ascending and tiers are position-disjoint *)
      Array.concat !parts

    let range_count ?prefix v ~lo ~hi =
      let acc = ref 0 in
      Array.iteri
        (fun i t ->
          match clip v i ~lo ~hi with
          | None -> ()
          | Some (l, h) -> (
              match t with
              | Run f -> acc := !acc + RS.range_count ?prefix f ~lo:l ~hi:h
              | App d -> acc := !acc + RA.range_count ?prefix d ~lo:l ~hi:h))
        v.tiers;
      !acc

    let range_distinct = tally

    let range_topk ?prefix v ~lo ~hi ~k =
      let items = tally ?prefix v ~lo ~hi in
      (* stable: equal counts keep their lexicographic order *)
      Array.stable_sort (fun (_, a) (_, b) -> compare b a) items;
      Array.sub items 0 (min k (Array.length items))

    let majority ?prefix v ~lo ~hi =
      let items = tally ?prefix v ~lo ~hi in
      let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 items in
      Array.find_opt (fun (_, c) -> 2 * c > total) items

    let at_least ?prefix v ~lo ~hi ~threshold =
      tally ?prefix v ~lo ~hi |> Array.to_seq
      |> Seq.filter (fun (_, c) -> c >= threshold)
      |> Array.of_seq

    (* walk the sorted tally to the k-th occupant, with multiplicity *)
    let quantile ?prefix v ~lo ~hi k =
      let items = tally ?prefix v ~lo ~hi in
      let rec walk i k =
        if i >= Array.length items then None
        else
          let s, c = items.(i) in
          if k < c then Some s else walk (i + 1) (k - c)
      in
      walk 0 k
  end

  let distinct_count v = Array.length (tally v ~lo:0 ~hi:(length v))

  let space_bits v =
    Array.fold_left
      (fun acc t ->
        acc + match t with Run f -> Flat_wt.space_bits f | App d -> Append_wt.space_bits d)
      (64 * (Array.length v.tiers + 1))
      v.tiers

  (* ---------------------------------------------------------------- *)
  (* Batched queries: two-phase per-tier decomposition.

     Phase A sends every tier one batch carrying (a) translated
     [Access]es for positions it owns, (b) clipped [Rank]-family
     probes whose results sum into the merged answer, and (c) one
     whole-tier count probe per [Select]-family op.  Phase B resolves
     each select in the single tier holding its residual index.  Both
     phases run each tier's sub-batch through {!Wt_par.Par_exec}, so
     the pool parallelism of the flat and append-only engines carries
     over unchanged; results are merged back in input order. *)

  type a_tag =
    | Direct of int  (** phase-A result is op [i]'s final answer *)
    | Sum of int  (** phase-A result adds into op [i]'s rank sum *)
    | Sel_count of int * int  (** whole-tier count for select op [i], tier [j] *)

  let run_tier ?pool ?domains v j ops =
    match v.tiers.(j) with
    | Run f -> Wt_par.Par_exec.query_batch ?pool ?domains Wt_exec.Exec.Static.query_batch f ops
    | App d -> Wt_par.Par_exec.query_batch ?pool ?domains Wt_exec.Exec.Append.query_batch d ops

  let query_batch ?pool ?domains v (ops : Iseq.op array) :
      (Iseq.value, Iseq.error) result array =
    let nt = Array.length v.tiers in
    let n = length v in
    let nops = Array.length ops in
    let out = Array.make nops (Ok (Iseq.Int 0)) in
    (* an op's first error is its answer *)
    let err i e = match out.(i) with Error _ -> () | Ok _ -> out.(i) <- Error e in
    let sums = Array.make nops 0 in
    let sel_counts = Hashtbl.create 16 in
    (* phase-A op lists per tier, accumulated in reverse *)
    let a_ops = Array.make nt [] and a_tags = Array.make nt [] in
    let push_a j op tag =
      a_ops.(j) <- op :: a_ops.(j);
      a_tags.(j) <- tag :: a_tags.(j)
    in
    let each_tier f =
      for j = 0 to nt - 1 do
        if tier_len v j > 0 then f j (tier_len v j)
      done
    in
    (* a rank-family op counting [op]'s string or prefix before [pos] *)
    let rank_at op pos =
      match op with
      | Iseq.Rank { s; _ } | Iseq.Select { s; _ } -> Iseq.Rank { s; pos }
      | Iseq.Rank_prefix { prefix; _ } | Iseq.Select_prefix { prefix; _ } ->
          Iseq.Rank_prefix { prefix; pos }
      | Iseq.Access _ -> assert false
    in
    Array.iteri
      (fun i op ->
        match (Iseq.check n op, op) with
        | Some e, _ -> err i e
        | None, Iseq.Access { pos } ->
            let j = locate v pos in
            push_a j (Iseq.Access { pos = pos - v.offsets.(j) }) (Direct i)
        | None, (Iseq.Rank { pos; _ } | Iseq.Rank_prefix { pos; _ }) ->
            each_tier (fun j len ->
                if v.offsets.(j) < pos then
                  push_a j (rank_at op (min len (pos - v.offsets.(j)))) (Sum i))
        | None, (Iseq.Select _ | Iseq.Select_prefix _) ->
            Hashtbl.replace sel_counts i (Array.make nt 0);
            each_tier (fun j len -> push_a j (rank_at op len) (Sel_count (i, j))))
      ops;
    let run_phase ops_per_tier consume =
      Array.iteri
        (fun j rev_ops ->
          match rev_ops with
          | [] -> ()
          | _ ->
              let ops_j = Array.of_list (List.rev rev_ops) in
              let res = run_tier ?pool ?domains v j ops_j in
              consume j res)
        ops_per_tier
    in
    run_phase a_ops (fun j res ->
        let tags = Array.of_list (List.rev a_tags.(j)) in
        Array.iteri
          (fun k r ->
            let i =
              match tags.(k) with Direct i | Sum i | Sel_count (i, _) -> i
            in
            match (tags.(k), r) with
            | _, Error e -> err i e
            | Direct _, Ok value -> out.(i) <- Ok value
            | Sum _, Ok (Iseq.Int c) -> sums.(i) <- sums.(i) + c
            | Sel_count (_, j'), Ok (Iseq.Int c) -> (Hashtbl.find sel_counts i).(j') <- c
            | (Sum _ | Sel_count _), Ok (Iseq.Str _) -> assert false)
          res);
    (* phase B: one select per op, in the tier owning the residual *)
    if Hashtbl.length sel_counts > 0 then begin
      let b_ops = Array.make nt [] and b_idx = Array.make nt [] in
      Array.iteri
        (fun i op ->
          if Result.is_ok out.(i) then
            match op with
            | Iseq.Select { s = _; count } | Iseq.Select_prefix { prefix = _; count }
              -> (
                let counts = Hashtbl.find sel_counts i in
                let total = Array.fold_left ( + ) 0 counts in
                if count >= total then
                  err i (Iseq.No_occurrence { count; occurrences = total })
                else begin
                  let j = ref 0 and rem = ref count in
                  while !rem >= counts.(!j) do
                    rem := !rem - counts.(!j);
                    incr j
                  done;
                  let sub =
                    match op with
                    | Iseq.Select { s; _ } -> Iseq.Select { s; count = !rem }
                    | Iseq.Select_prefix { prefix; _ } ->
                        Iseq.Select_prefix { prefix; count = !rem }
                    | _ -> assert false
                  in
                  b_ops.(!j) <- sub :: b_ops.(!j);
                  b_idx.(!j) <- i :: b_idx.(!j)
                end)
            | _ -> ())
        ops;
      run_phase b_ops (fun j res ->
          let idx = Array.of_list (List.rev b_idx.(j)) in
          Array.iteri
            (fun k r ->
              match r with
              | Error e -> err idx.(k) e
              | Ok (Iseq.Int p) -> out.(idx.(k)) <- Ok (Iseq.Int (v.offsets.(j) + p))
              | Ok (Iseq.Str _) -> assert false)
            res)
    end;
    Array.iteri
      (fun i op ->
        match (op, out.(i)) with
        | (Iseq.Rank _ | Iseq.Rank_prefix _), Ok _ -> out.(i) <- Ok (Iseq.Int sums.(i))
        | _ -> ())
      ops;
    out

  (* A read that trips over a closed or corrupt tier answers with the
     error, never the exception: [Trie_closed], or [Storage_error]
     naming the store's directory [dir]. *)
  let protect ~dir f =
    match f () with
    | r -> r
    | exception Flat_wt.Closed -> Error Iseq.Trie_closed
    | exception Container.Format_error reason ->
        Error (Iseq.Storage_error { path = dir; reason })
    | exception (Invalid_argument reason | Failure reason) ->
        Error (Iseq.Storage_error { path = dir; reason = "corrupt tier: " ^ reason })
end

(* ------------------------------------------------------------------ *)
(* On-disk manifest *)

let manifest_path dir = Filename.concat dir "manifest.wtx"
let wal_path dir = Filename.concat dir "wal.log"

(* Run [i]'s file name records how many older runs it replaces: a plain
   name for none, so stores written before runs merged read as they
   always did. *)
let run_file ?(replaces = 0) i =
  if replaces = 0 then Printf.sprintf "run-%06d.wtx" i
  else Printf.sprintf "run-%06d-r%d.wtx" i replaces

(* The pending run numbered [i] on disk, with the count it replaces. *)
let pending_run dir i =
  let prefix = Printf.sprintf "run-%06d-r" i in
  let replaces f =
    if f = run_file i then Some 0
    else if String.starts_with ~prefix f && Filename.check_suffix f ".wtx" then
      let digits = String.sub f (String.length prefix) (String.length f - String.length prefix - 4) in
      match int_of_string_opt digits with
      | Some j when j > 0 && f = run_file ~replaces:j i -> Some j
      | _ -> None
    else None
  in
  match
    List.filter_map
      (fun f -> Option.map (fun j -> (f, j)) (replaces f))
      (Array.to_list (Sys.readdir dir))
  with
  | [] -> None
  | [ found ] -> Some found
  | _ -> fail "%s: more than one pending run numbered %d" dir i

let write_manifest dir ~generation ~runs ~next_run =
  let payload =
    Marshal.to_string ((generation, runs, next_run) : int * string list * int) []
  in
  Container.write ~tag:manifest_tag ~payload (manifest_path dir)

let read_manifest dir =
  let payload = Container.read ~expect_tag:manifest_tag (manifest_path dir) in
  match (Marshal.from_string payload 0 : int * string list * int) with
  | (g, runs, next_run) as m ->
      if g < 0 || next_run < 0 || List.exists (fun r -> Filename.basename r <> r) runs
      then fail "%s: implausible manifest contents" (manifest_path dir);
      ignore m;
      (g, runs, next_run)
  | exception (Failure _ | Invalid_argument _ | End_of_file) ->
      fail "%s: undecodable manifest payload" (manifest_path dir)

let is_store dir =
  Sys.file_exists dir && Sys.is_directory dir && Sys.file_exists (manifest_path dir)

(* A snapshot+WAL directory, the writable store before this one: only
   {!recover} opens it, to migrate it (see {!migrate}). *)
let legacy_snapshot = "snapshot.wtx"

let is_legacy dir =
  Sys.file_exists (Filename.concat dir legacy_snapshot)
  && not (Sys.file_exists (manifest_path dir))

let refuse_legacy dir =
  if is_legacy dir then
    fail "%s holds a snapshot+WAL store; run 'wtrie recover %s' to migrate it" dir dir

(* ------------------------------------------------------------------ *)
(* The store *)

(* [l] without its [k] newest (last) elements, and those elements. *)
let split_newest k l =
  let keep = List.length l - k in
  (List.filteri (fun i _ -> i < keep) l, List.filteri (fun i _ -> i >= keep) l)

type run = {
  rfile : string;
  rflat : Flat_wt.t;
  opened : bool;  (** read from its file at open, not built in memory *)
}

type t = {
  dir : string;
  threshold : int;
  read_only : bool;
  lock : Mutex.t;
  mutable generation : int;
  mutable next_run : int;
  mutable runs : run list;  (** oldest first *)
  mutable retired : run list;
      (** opened runs a merge replaced: an older epoch may still read
          them, so they close with the store *)
  mutable sealed : Append_wt.t option;  (** never written again: shared *)
  mutable delta : Append_wt.t;
  mutable suffix : string list;  (** raw ingests since the seal, newest first *)
  mutable wal_oc : out_channel option;
  mutable wal_bytes : int;
  mutable compacting : bool;
  mutable compactor : unit Domain.t option;
  mutable poison : exn option;
      (** a failed compaction or WAL fsync: the writer refuses mutation *)
  mutable closed : bool;
  view : View.t Snapshot.t;
}

type recovery = {
  r_generation : int;
  r_runs : int;
  r_replayed : int;  (** WAL records replayed into the delta *)
  r_dropped_bytes : int;  (** torn-tail bytes discarded *)
  r_rolled_forward : bool;  (** a mid-commit crash was completed *)
  r_wal_reset : bool;  (** a stale or unreadable WAL was discarded *)
  r_migrated : bool;  (** a snapshot+WAL directory became this store *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let ensure_writable t =
  if t.closed then failwith "tiered store is closed";
  if t.read_only then failwith "tiered store opened read-only";
  match t.poison with
  | Some e ->
      (* A failed compaction leaves disk state only recoverable by
         reopen, and after a failed fsync the kernel may have dropped
         the WAL's dirty pages; refuse further mutation instead of
         compounding either. *)
      raise e
  | None -> ()

(* Tier list under the lock.  [frozen] decides whether the live delta
   goes in as-is (owner-side queries: always fresh, single-threaded) or
   as an [Append_wt.snapshot] (publication: other domains must not read
   node records and tails the owner keeps writing).  A sealed delta is
   never written again, so it goes in as-is either way. *)
let tiers_locked t ~frozen =
  let runs = List.map (fun r -> View.Run r.rflat) t.runs in
  let sealed = match t.sealed with Some d -> [ View.App d ] | None -> [] in
  let delta = if frozen then Append_wt.snapshot t.delta else t.delta in
  Array.of_list (runs @ sealed @ [ View.App delta ])

let publish_locked t =
  ignore (Snapshot.publish t.view (View.make ~dir:t.dir (tiers_locked t ~frozen:true)))

let current_view t =
  with_lock t (fun () -> View.make ~dir:t.dir (tiers_locked t ~frozen:false))

let publish t = with_lock t (fun () -> publish_locked t)

(* The store's strings as one static arena: the current view's tiers
   merged node by node ([Flat_wt.merge]: runs as arenas, the sealed and
   live deltas through their node view), with no string decoded.  The
   bytes are those [String_api.Static.of_array] writes for the same
   strings. *)
let to_flat t =
  Flat_wt.merge ~keys:Bytes
    (Array.map
       (function
         | View.Run f -> Flat_wt.Arena f
         | View.App d -> Flat_wt.Trie ((module Append_wt.Node), d))
       (with_lock t (fun () -> tiers_locked t ~frozen:true)))

let handle t = t.view

(* ------------------------------------------------------------------ *)
(* Open / recovery *)

let open_runs ~verify dir names =
  let runs = ref [] in
  try
    List.iter
      (fun name ->
        let path = Filename.concat dir name in
        let rflat =
          try Flat_wt.open_file ~mode:(if verify then `Copy else `Mmap) path
          with Sys_error reason -> fail "%s: %s" path reason
        in
        runs := { rfile = name; rflat; opened = true } :: !runs;
        if verify then Flat_wt.check_invariants rflat)
      names;
    List.rev !runs
  with e ->
    List.iter (fun r -> Flat_wt.close r.rflat) !runs;
    raise e

let open_internal ~read_only ~verify ~threshold dir =
  if not (is_store dir) then begin
    refuse_legacy dir;
    fail "%s: not a tiered store (no manifest.wtx)" dir
  end;
  if not read_only then Container.cleanup_tmp dir;
  let rec load attempt =
    let manifest = read_manifest dir in
    let generation, run_names, next_run = manifest in
    let scan = Wal.scan (wal_path dir) in
    if scan.s_header_ok && scan.s_tag = wal_tag && scan.s_generation > generation + 1
    then
      fail "%s: WAL generation %d is ahead of manifest generation %d" dir
        scan.s_generation generation;
    let rolled_forward =
      scan.s_header_ok && scan.s_tag = wal_tag && scan.s_generation = generation + 1
    in
    let generation, run_names, next_run =
      if rolled_forward then begin
        (* The WAL rotation landed but the manifest swap did not: the
           pending run holds exactly the records the rotation dropped,
           merged with the newest runs its name says it replaces.  Adopt
           it in their place and complete the commit. *)
        let pending, replaces =
          match pending_run dir next_run with
          | Some p -> p
          | None ->
              fail "%s: WAL is one generation ahead but pending run %s is missing" dir
                (run_file next_run)
        in
        if replaces > List.length run_names then
          fail "%s: pending run %s replaces %d runs, the manifest names %d" dir pending
            replaces (List.length run_names);
        let runs = fst (split_newest replaces run_names) @ [ pending ] in
        if not read_only then
          write_manifest dir ~generation:(generation + 1) ~runs
            ~next_run:(next_run + 1);
        (generation + 1, runs, next_run + 1)
      end
      else (generation, run_names, next_run)
    in
    match open_runs ~verify dir run_names with
    | runs -> (generation, run_names, next_run, scan, rolled_forward, runs)
    | exception (Container.Format_error _ as e) ->
        (* a writer's merge may have replaced, and deleted, a run
           between the manifest read and its open: read again *)
        if read_only && attempt < 3 && read_manifest dir <> manifest then load (attempt + 1)
        else raise e
  in
  let generation, run_names, next_run, scan, rolled_forward, runs = load 0 in
  (* Runs adopted; anything else named run-*.wtx is an orphan: a run a
     merge replaced, or a pending run from a crash between the run write
     and the WAL rotation.  So is a snapshot a migration did not get to
     delete. *)
  if not read_only then
    Array.iter
      (fun f ->
        if
          (String.length f > 4
          && String.sub f 0 4 = "run-"
          && Filename.check_suffix f ".wtx"
          && not (List.mem f run_names))
          || f = legacy_snapshot
        then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  let wal_reset =
    (not scan.s_header_ok) || scan.s_tag <> wal_tag || scan.s_generation <> generation
  in
  let delta = Append_wt.create () in
  let replayed, dropped =
    if wal_reset then (0, scan.s_dropped_bytes)
    else begin
      List.iter
        (fun op ->
          match op with
          | Wal.Append s -> Append_wt.append delta (Binarize.of_bytes s)
          | Wal.Insert _ | Wal.Delete _ ->
              fail "%s: tiered WAL holds a non-append record" dir)
        scan.s_ops;
      (scan.s_records, scan.s_dropped_bytes)
    end
  in
  if replayed > 0 then begin
    Probe.record Durable_wal_replay replayed;
    Flight.record ~a:replayed ~b:dropped Wal_replay
  end;
  if dropped > 0 then Probe.record Durable_wal_dropped_bytes dropped;
  if verify then Append_wt.check_invariants delta;
  let wal_oc, wal_bytes =
    if read_only then (None, 0)
    else begin
      if wal_reset then Wal.create ~tag:wal_tag ~generation (wal_path dir)
      else if dropped > 0 then Wal.truncate_to (wal_path dir) scan.s_good_bytes;
      (Some (Wal.open_append (wal_path dir)),
       if wal_reset then Wal.header_size ~tag:wal_tag else scan.s_good_bytes)
    end
  in
  let tiers =
    Array.of_list
      (List.map (fun r -> View.Run r.rflat) runs @ [ View.App (Append_wt.snapshot delta) ])
  in
  let t =
    {
      dir;
      threshold;
      read_only;
      lock = Mutex.create ();
      generation;
      next_run;
      runs;
      retired = [];
      sealed = None;
      delta;
      suffix = [];
      wal_oc;
      wal_bytes;
      compacting = false;
      compactor = None;
      poison = None;
      closed = false;
      view = Snapshot.create (View.make ~dir tiers);
    }
  in
  (* compaction-progress gauges for the metrics scrape: replaced by
     name, so the most recently opened store owns them.  Reads are
     deliberately lock-free — a gauge sampled mid-compaction may be one
     step stale, which is fine for telemetry. *)
  Export.register_gauge "tiered_compacting" (fun () -> if t.compacting then 1. else 0.);
  Export.register_gauge "tiered_delta_strings" (fun () ->
      float_of_int (Append_wt.length t.delta));
  Export.register_gauge "tiered_run_count" (fun () -> float_of_int (List.length t.runs));
  let recovery =
    {
      r_generation = generation;
      r_runs = List.length runs;
      r_replayed = replayed;
      r_dropped_bytes = dropped;
      r_rolled_forward = rolled_forward;
      r_wal_reset = wal_reset;
      r_migrated = false;
    }
  in
  (t, recovery)

let create ?(threshold = default_threshold) dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if Sys.file_exists (manifest_path dir) then
    fail "%s: already a tiered store" dir;
  refuse_legacy dir;
  write_manifest dir ~generation:0 ~runs:[] ~next_run:0;
  Wal.create ~tag:wal_tag ~generation:0 (wal_path dir);
  fst (open_internal ~read_only:false ~verify:false ~threshold dir)

let open_ ?(threshold = default_threshold) ?(verify = false) dir =
  open_internal ~read_only:false ~verify ~threshold dir

let open_read_only ?(verify = false) dir =
  open_internal ~read_only:true ~verify ~threshold:max_int dir

(* ------------------------------------------------------------------ *)
(* Compaction *)

(* Commit ordering (each step atomic on its own, the sequence
   recoverable at every boundary — see the module header):
   1. run file durable, named for the [replaces] newest runs it merged;
   2. WAL rotated to generation g+1 carrying the post-seal suffix;
   3. manifest swapped to g+1, the replaced runs dropped.  Then the
   replaced files are deleted (the sweep at open catches a crash before
   that), and the in-memory state and the published view change. *)
let commit t flat ~replaces =
  with_lock t (fun () ->
      let g' = t.generation + 1 in
      let name = run_file ~replaces t.next_run in
      let path = Filename.concat t.dir name in
      Flat_wt.save_file flat path;
      Probe.record Tiered_compact_bytes (Unix.stat path).Unix.st_size;
      (match t.wal_oc with
      | Some oc ->
          t.wal_oc <- None;
          close_out_noerr oc
      | None -> ());
      let suffix_ops = List.rev_map (fun s -> Wal.Append s) t.suffix in
      Wal.create_with ~tag:wal_tag ~generation:g' suffix_ops (wal_path t.dir);
      let kept, replaced = split_newest replaces t.runs in
      write_manifest t.dir ~generation:g'
        ~runs:(List.map (fun r -> r.rfile) kept @ [ name ])
        ~next_run:(t.next_run + 1);
      List.iter
        (fun r -> try Sys.remove (Filename.concat t.dir r.rfile) with Sys_error _ -> ())
        replaced;
      t.wal_oc <- Some (Wal.open_append (wal_path t.dir));
      t.wal_bytes <-
        List.fold_left
          (fun acc op -> acc + Wal.record_size op)
          (Wal.header_size ~tag:wal_tag)
          suffix_ops;
      t.runs <- kept @ [ { rfile = name; rflat = flat; opened = false } ];
      t.retired <- List.filter (fun r -> r.opened) replaced @ t.retired;
      t.generation <- g';
      t.next_run <- t.next_run + 1;
      t.sealed <- None;
      t.suffix <- [];
      Probe.hit Tiered_compact;
      Probe.duration Tiered_run_count (List.length t.runs);
      Flight.record ~a:g' Checkpoint;
      publish_locked t)

(* Seal the delta (O(1), under the lock).  Nothing appends to it
   again, so the compactor and every reader share it as it is: queries
   see it as a tier until the commit swaps in the run. *)
let seal t =
  with_lock t (fun () ->
      if Append_wt.length t.delta = 0 then None
      else begin
        let d = t.delta in
        t.sealed <- Some d;
        t.delta <- Append_wt.create ();
        t.suffix <- [];
        Probe.duration Tiered_delta_strings (Append_wt.length d);
        Some d
      end)

(* How many of the newest runs the next run absorbs: walking back from
   the newest, every run no longer than what the new run holds so far.
   Over seals of equal deltas this is a binary counter on run sizes, so
   at most log2 (n / threshold) + 1 runs exist. *)
let absorbed runs ~delta =
  let rec go size j = function
    | r :: older when Flat_wt.length r.rflat <= size ->
        go (size + Flat_wt.length r.rflat) (j + 1) older
    | _ -> j
  in
  go delta 0 (List.rev runs)

(* Only this compaction's commit changes [runs], so the ones it merges
   stay the newest until it commits. *)
let compact_sealed ?pool t sealed =
  let n = Append_wt.length sealed in
  let runs = with_lock t (fun () -> t.runs) in
  let replaces = absorbed runs ~delta:n in
  let merged = snd (split_newest replaces runs) in
  try
    Trace.with_span ~args:[ ("strings", n); ("runs", replaces) ] "tiered.compact" (fun () ->
        Probe.time Tiered_compact (fun () ->
            let sources =
              List.map (fun r -> Flat_wt.Arena r.rflat) merged
              @ [ Flat_wt.Trie ((module Append_wt.Node), sealed) ]
            in
            let build () = Flat_wt.merge ~keys:Bytes (Array.of_list sources) in
            let flat =
              match pool with
              | None -> build ()
              | Some p ->
                  let r = ref None in
                  Pool.run p [| (fun () -> r := Some (build ())) |];
                  Option.get !r
            in
            commit t flat ~replaces))
  with e ->
    (* Disk may sit in any commit window; in-memory reads stay
       correct (the sealed tier is still a view tier and its
       records are still in some on-disk WAL or run).  Poison the
       writer — recovery is a reopen. *)
    with_lock t (fun () -> if t.poison = None then t.poison <- Some e);
    raise e

let spawn_compactor t sealed =
  t.compacting <- true;
  t.compactor <-
    Some
      (Domain.spawn (fun () ->
           Fun.protect
             ~finally:(fun () -> with_lock t (fun () -> t.compacting <- false))
             (fun () -> try compact_sealed t sealed with _ -> ())))

(* Reap a finished background compactor (joins instantly when
   [compacting] is false). *)
let reap t =
  if not t.compacting then
    match t.compactor with
    | Some d ->
        Domain.join d;
        t.compactor <- None
    | None -> ()

let wait_compaction t =
  (match t.compactor with Some d -> Domain.join d | None -> ());
  t.compactor <- None

(* The writer seals the delta the moment it reaches [threshold], so
   every seal adds exactly [threshold] strings (bar a larger delta
   recovered from the WAL) and the run sizes do not depend on the
   compactor's timing.  At most one sealed delta exists: if the
   previous compaction is still running, the writer waits for it
   first. *)
let maybe_compact t =
  reap t;
  if t.poison = None && Append_wt.length t.delta >= t.threshold then begin
    wait_compaction t;
    if t.poison = None then Option.iter (spawn_compactor t) (seal t)
  end

let compact ?pool t =
  wait_compaction t;
  (match t.poison with Some e -> raise e | None -> ());
  if t.closed || t.read_only then failwith "tiered store is closed or read-only";
  Option.iter (compact_sealed ?pool t) (seal t)

(* ------------------------------------------------------------------ *)
(* Ingest *)

let ingest t s =
  with_lock t (fun () ->
      ensure_writable t;
      let oc =
        match t.wal_oc with Some oc -> oc | None -> failwith "tiered WAL closed"
      in
      let bytes = Wal.append_op oc (Wal.Append s) in
      t.wal_bytes <- t.wal_bytes + bytes;
      Probe.hit Tiered_ingest;
      Probe.record Tiered_ingest_bytes (String.length s);
      Probe.hit Durable_wal_append;
      Flight.record ~a:bytes Wal_append;
      Append_wt.append t.delta (Binarize.of_bytes s);
      if t.sealed <> None then t.suffix <- s :: t.suffix);
  maybe_compact t

let ingest_batch t ss =
  List.iter (ingest t) ss;
  publish t

(* The group-commit ack.  A failed write-back or fsync acknowledges
   nothing and poisons the writer: the kernel may already have dropped
   the unsynced records, so later ingests and flushes re-raise the
   error, while reads keep answering from memory.  Reopening recovers
   what the WAL really holds. *)
let flush t =
  with_lock t (fun () ->
      ensure_writable t;
      match t.wal_oc with
      | None -> ()
      | Some oc -> (
          try
            flush oc;
            Fault.fsync (Unix.descr_of_out_channel oc);
            Probe.hit Tiered_flush
          with e ->
            t.poison <- Some e;
            raise e))

let close t =
  (try wait_compaction t with _ -> ());
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (match t.wal_oc with
        | Some oc ->
            t.wal_oc <- None;
            (try Stdlib.flush oc with Sys_error _ -> ());
            close_out_noerr oc
        | None -> ());
        List.iter (fun r -> Flat_wt.close r.rflat) (t.runs @ t.retired)
      end)

(* ------------------------------------------------------------------ *)
(* Introspection *)

let dir t = t.dir
let generation t = t.generation
let run_count t = List.length t.runs
let delta_length t = Append_wt.length t.delta
let wal_bytes t = t.wal_bytes
let is_compacting t = t.compacting

let stats t : Stats.t =
  let v = current_view t in
  let per = Array.map View.t_stats v.View.tiers in
  let n = View.length v in
  let fold f = Array.fold_left (fun acc (s : Stats.t) -> acc +. f s) 0. per in
  let foldi f = Array.fold_left (fun acc (s : Stats.t) -> acc + f s) 0 per in
  {
    n;
    distinct = View.distinct_count v;
    avg_height =
      (if n = 0 then 0.
       else fold (fun s -> s.avg_height *. float_of_int s.n) /. float_of_int n);
    seq_h0_bits = fold (fun s -> s.seq_h0_bits);
    trie_lb_bits = fold (fun s -> s.trie_lb_bits);
    bv_bits = foldi (fun s -> s.bv_bits);
    label_bits = foldi (fun s -> s.label_bits);
    total_bits = foldi (fun s -> s.total_bits);
  }

(* ------------------------------------------------------------------ *)
(* Query façade: the full QUERY_API over the store, answered on the
   owner's always-fresh view, with the same protective error mapping as
   the static variant's storage layer. *)

let protect t f = if t.closed then Error Iseq.Trie_closed else View.protect ~dir:t.dir f

let length t = View.length (current_view t)
let distinct_count t = View.distinct_count (current_view t)
let space_bits t = View.space_bits (current_view t)

let query_batch ?domains t ops =
  Iseq.protect_batch (protect t) ops (fun () ->
      View.query_batch ?domains (current_view t) ops)

(* The scalar point ops: batches of one, as for every variant. *)
include Iseq.Point (struct type nonrec t = t let length = length let query_batch = query_batch end)

(* The range suite: the shared byte façade over the merged view, so
   validation, errors and observability (one counter hit, one latency
   sample, one span per call) match every single-trie variant. *)
module R = Wt_core.Range.Make_string (View.Suite)

let select_all ?prefix ?lo ?hi t =
  protect t (fun () -> R.select_all ?prefix ?lo ?hi (current_view t))

let range_count ?prefix t ~lo ~hi =
  protect t (fun () -> R.range_count ?prefix (current_view t) ~lo ~hi)

let range_distinct ?prefix ?lo ?hi t =
  protect t (fun () -> R.range_distinct ?prefix ?lo ?hi (current_view t))

let range_topk ?prefix ?lo ?hi t ~k =
  protect t (fun () -> R.range_topk ?prefix ?lo ?hi (current_view t) ~k)

let range_majority ?prefix ?lo ?hi t =
  protect t (fun () -> R.range_majority ?prefix ?lo ?hi (current_view t))

let range_at_least ?prefix ?lo ?hi t ~threshold =
  protect t (fun () -> R.range_at_least ?prefix ?lo ?hi (current_view t) ~threshold)

let range_quantile ?prefix ?lo ?hi t ~k =
  protect t (fun () -> R.range_quantile ?prefix ?lo ?hi (current_view t) ~k)

(* ------------------------------------------------------------------ *)
(* Verification / recovery *)

type run_report = {
  run_file : string;
  run_version : int;
  run_length : int;
  run_layout : Flat_wt.layout;  (** β codes, stored and logical label bits, leaf byte code *)
}

type verify_report = {
  v_generation : int;
  v_runs : int;
  v_run_reports : run_report list;
      (** oldest run first: compaction rewrites a run at the current
          arena version, [wtrie convert] never does *)
  v_length : int;
  v_distinct : int;
  v_wal_records : int;
  v_dropped_bytes : int;
  v_rolled_forward : bool;
  v_wal_reset : bool;
  v_clean : bool;  (** nothing needed fixing *)
}

let verify dir =
  let t, r = open_internal ~read_only:true ~verify:true ~threshold:max_int dir in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      {
        v_generation = r.r_generation;
        v_runs = r.r_runs;
        v_run_reports =
          List.map
            (fun r ->
              {
                run_file = r.rfile;
                run_version = Flat_wt.version r.rflat;
                run_length = Flat_wt.length r.rflat;
                run_layout = Flat_wt.layout r.rflat;
              })
            t.runs;
        v_length = length t;
        v_distinct = distinct_count t;
        v_wal_records = r.r_replayed;
        v_dropped_bytes = r.r_dropped_bytes;
        v_rolled_forward = r.r_rolled_forward;
        v_wal_reset = r.r_wal_reset;
        v_clean =
          (not r.r_rolled_forward) && (not r.r_wal_reset) && r.r_dropped_bytes = 0;
      })

(* ------------------------------------------------------------------ *)
(* Migrating a snapshot+WAL directory

   Before the tiered store was the only writable one, a store could be
   a directory holding [snapshot.wtx] — a format-v2 container, tag
   ["durable-append"] or ["durable-dynamic"], whose payload is the
   Marshal of [(generation, trie)] — and a WAL for that generation, of
   append records and, on the dynamic variant, insert and delete
   records.  Its content is the snapshot with the WAL's verified prefix
   replayed, under the rules it was written with: a stale-generation
   WAL is already absorbed, a future-generation one is impossible. *)

let legacy_content dir =
  let tag, payload = Container.read_tagged (Filename.concat dir legacy_snapshot) in
  let corrupt m = fail "%s: corrupted snapshot payload (%s)" dir m in
  (* the trie, how to replay one record on it, and the finished run *)
  let generation, apply, build =
    match tag with
    | "durable-append" ->
        (* decoded through format v2's frozen layouts, then rebuilt *)
        let g, wt =
          try Wt_core.Persist.append_snapshot payload with Container.Format_error m -> corrupt m
        in
        ( g,
          (function
          | Wal.Append s -> Append_wt.append wt (Binarize.of_bytes s)
          | Wal.Insert _ | Wal.Delete _ ->
              fail "%s: append-only store contains an insert/delete WAL record" dir),
          fun () ->
            Append_wt.check_invariants wt;
            Flat_wt.of_trie ~keys:Bytes (module Append_wt.Node) wt )
    | "durable-dynamic" ->
        let g, (wt : Dynamic_wt.t) =
          try Marshal.from_string payload 0
          with Failure _ | Invalid_argument _ | End_of_file -> corrupt "marshal decode failed"
        in
        ( g,
          (function
          | Wal.Append s -> Dynamic_wt.append wt (Binarize.of_bytes s)
          | Wal.Insert (pos, s) -> Dynamic_wt.insert wt pos (Binarize.of_bytes s)
          | Wal.Delete pos -> Dynamic_wt.delete wt pos),
          fun () ->
            Dynamic_wt.check_invariants wt;
            Flat_wt.of_trie ~keys:Bytes (module Dynamic_wt.Node) wt )
    | _ -> fail "%s: not a snapshot+WAL store (tag %S)" dir tag
  in
  if generation < 0 then fail "%s: corrupted snapshot (negative generation)" dir;
  let scan = Wal.scan (wal_path dir) in
  if scan.s_header_ok && scan.s_generation > generation then
    fail "%s: WAL generation %d is ahead of snapshot generation %d" dir scan.s_generation
      generation;
  let live = scan.s_header_ok && scan.s_tag = tag && scan.s_generation = generation in
  (* an out-of-bounds insert or delete raises before it mutates *)
  if live then
    List.iter
      (fun op ->
        try apply op
        with Failure m | Invalid_argument m ->
          fail "%s: WAL record could not be replayed on the snapshot: %s" dir m)
      scan.s_ops;
  let flat =
    try build () with Failure m -> fail "%s: recovered index fails invariants: %s" dir m
  in
  let replayed = if live then scan.s_records else 0 in
  let dropped = if live || not scan.s_header_ok then scan.s_dropped_bytes else 0 in
  (flat, replayed, dropped)

(* The migration commits in four steps, each atomic: the content as the
   first run, the manifest naming it at generation 0, a fresh tiered
   WAL, then the snapshot deleted.  A crash before the manifest leaves
   the legacy directory (and perhaps a run file the rerun rewrites);
   after it, a tiered store with the same content: until the third step
   its WAL still carries a legacy tag, so it is stale and resets, and
   until the fourth the writable open's sweep deletes the snapshot. *)
let migrate dir =
  let flat, replayed, dropped = legacy_content dir in
  Container.cleanup_tmp dir;
  let run = run_file 0 in
  Flat_wt.save_file flat (Filename.concat dir run);
  write_manifest dir ~generation:0 ~runs:[ run ] ~next_run:1;
  Wal.create ~tag:wal_tag ~generation:0 (wal_path dir);
  Sys.remove (Filename.concat dir legacy_snapshot);
  (replayed, dropped)

let recover ?threshold dir =
  let migrated = if is_legacy dir then Some (migrate dir) else None in
  let t, r = open_ ?threshold ~verify:true dir in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      compact t;
      match migrated with
      | None -> r
      | Some (replayed, dropped) ->
          { r with r_replayed = replayed; r_dropped_bytes = dropped; r_migrated = true })
