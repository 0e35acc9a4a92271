(** The Wavelet Trie front door.

    One module to open: the three sequence variants behind a uniform
    byte-string API, the batch query engine, the observability layer,
    and the space/statistics reports.

    {[
      let wt = Wtrie.Static.of_list [ "a"; "b"; "a" ] in
      assert (Wtrie.Static.count wt "a" = 2);
      assert (Wtrie.Static.rank wt "a" ~pos:3 = Ok 2);

      (* a whole vector of queries in one amortized traversal *)
      let results =
        Wtrie.Static.query_batch wt
          [| Access { pos = 0 }; Rank { s = "a"; pos = 3 } |]
      in
      assert (results = [| Ok (Str "a"); Ok (Int 2) |])
    ]}

    Pick a variant by mutability:
    - {!Static} — immutable, RRR-compressed (Section 3 of the paper);
    - {!Append} — append-only streams (Section 4.1);
    - {!Dynamic} — insert/delete at any position (Section 4.2).

    All three, and the {!Tiered} store, share the
    {!module-type-QUERY_API} read side — every query, from scalar point
    lookups through [query_batch] to the Section 5 range suite
    ([select_all], [range_count], [range_distinct], [range_topk],
    [range_majority], [range_at_least], [range_quantile], written once
    in {!Wt_core.Range}), is declared once and behaves identically
    across variants.  A scalar point op is [query_batch] on a batch of
    one, so the two cannot disagree.  {!module-type-STRING_API} adds
    construction; the mutable ones extend it
    ({!module-type-APPEND_API}, {!module-type-DYNAMIC_API}).  Each
    operation comes in exactly one shape — labelled arguments,
    [(_, {!error}) result] for everything partial; the pre-batch alias
    shapes ([access_exn], [select_opt], ...) are gone (see
    docs/observability.md for the migration table).

    {!Static} runs on the pointer-free flat arena ({!Wt_core.Flat_wt}),
    the one static representation: the format-v3 container payload
    queried in place, so {!STATIC_API.save_file} /
    {!STATIC_API.open_file} round-trip through disk with an O(1)
    [`Mmap] open (one read-only mapping, shareable across serving
    processes).  Every index file loads as one ({!Storage}), whatever
    variant or format version wrote it.  The [t] equalities are exposed
    ([Static.t] is [Wt_core.Flat_wt.t], [Dynamic.t] is
    [Wt_core.Dynamic_wt.t], ...) so the lower-level toolkits
    ([Wt_core.Range]'s bitstring-level suite and sequential access, ...)
    keep working on the same values. *)

type error = Wt_core.Indexed_sequence.error =
  | Position_out_of_bounds of { pos : int; len : int }
  | Negative_count of { count : int }
  | No_occurrence of { count : int; occurrences : int }
  | Trie_closed
  | Storage_error of { path : string; reason : string }

let pp_error = Wt_core.Indexed_sequence.pp_error

type op = Wt_core.Indexed_sequence.op =
  | Access of { pos : int }
  | Rank of { s : string; pos : int }
  | Select of { s : string; count : int }
  | Rank_prefix of { prefix : string; pos : int }
  | Select_prefix of { prefix : string; count : int }

type value = Wt_core.Indexed_sequence.value = Str of string | Int of int

let pp_value = Wt_core.Indexed_sequence.pp_value

module type QUERY_API = Wt_core.Indexed_sequence.QUERY_API
module type STRING_API = Wt_core.Indexed_sequence.STRING_API
module type STATIC_API = Wt_core.Indexed_sequence.STATIC_API
module type APPEND_API = Wt_core.Indexed_sequence.APPEND_API
module type DYNAMIC_API = Wt_core.Indexed_sequence.DYNAMIC_API

(* Each variant is its construction ({!Wt_core.String_api}), the batch
   engine's [query_batch] — routed through the domain pool when
   [~domains] is given — with the scalar point ops derived from it as
   batches of one ({!Wt_core.Indexed_sequence.Point}), and the range
   suite's byte façade ({!Wt_core.Range.Make_string}).  Sealing with the
   API signatures hides every helper outside QUERY_API and the
   variant's constructors/mutators. *)

open struct
  module Point = Wt_core.Indexed_sequence.Point
end

module Static : STATIC_API with type t = Wt_core.Flat_wt.t = struct
  include Wt_core.String_api.Static
  module R = Wt_core.Range.Make_string (Wt_core.Range.Static)

  (* Every read is guarded: a closed trie reports [Trie_closed] and a
     corrupted arena [Storage_error] through the result, never an
     exception ([protect] comes from {!Wt_core.String_api.Static}). *)
  let select_all ?prefix ?lo ?hi t = protect t (fun () -> R.select_all ?prefix ?lo ?hi t)
  let range_count ?prefix t ~lo ~hi = protect t (fun () -> R.range_count ?prefix t ~lo ~hi)

  let range_distinct ?prefix ?lo ?hi t =
    protect t (fun () -> R.range_distinct ?prefix ?lo ?hi t)

  let range_topk ?prefix ?lo ?hi t ~k = protect t (fun () -> R.range_topk ?prefix ?lo ?hi t ~k)

  let range_majority ?prefix ?lo ?hi t =
    protect t (fun () -> R.range_majority ?prefix ?lo ?hi t)

  let range_at_least ?prefix ?lo ?hi t ~threshold =
    protect t (fun () -> R.range_at_least ?prefix ?lo ?hi t ~threshold)

  let range_quantile ?prefix ?lo ?hi t ~k =
    protect t (fun () -> R.range_quantile ?prefix ?lo ?hi t ~k)

  let query_batch ?domains t ops =
    Wt_core.Indexed_sequence.protect_batch (protect t) ops (fun () ->
        Wt_par.Par_exec.query_batch ?domains Wt_exec.Exec.Static.query_batch t ops)

  include Point (struct type nonrec t = t let length = length let query_batch = query_batch end)
end

module Append : APPEND_API with type t = Wt_core.Append_wt.t = struct
  include Wt_core.String_api.Append
  include Wt_core.Range.Make_string (Wt_core.Range.Append)

  let query_batch ?domains t ops =
    Wt_par.Par_exec.query_batch ?domains Wt_exec.Exec.Append.query_batch t ops

  include Point (struct type nonrec t = t let length = length let query_batch = query_batch end)
end

module Dynamic : DYNAMIC_API with type t = Wt_core.Dynamic_wt.t = struct
  include Wt_core.String_api.Dynamic
  include Wt_core.Range.Make_string (Wt_core.Range.Dynamic)

  let query_batch ?domains t ops =
    Wt_par.Par_exec.query_batch ?domains Wt_exec.Exec.Dynamic.query_batch t ops

  include Point (struct type nonrec t = t let length = length let query_batch = query_batch end)
end

(** The one writable store, write-optimized and tiered ([lib/tiered]):
    ingests land in a small {!Append}-style delta backed by a WAL, reads
    go through a merged view over [immutable runs…; delta], and a
    background domain compacts the delta into flat-arena run files,
    publishing each new tier list through {!Snapshot} epochs.  The
    store satisfies the whole {!module-type-QUERY_API} (sealed below),
    plus [create]/[open_]/[ingest]/[flush]/[compact]/[verify]/[recover]
    ([Wt_durable.Container.Format_error] for corrupt stores; [recover]
    also migrates a snapshot+WAL directory of earlier versions).  See
    docs/durability.md.

    {[
      let t = Wtrie.Tiered.create "store.tiered" in
      Wtrie.Tiered.ingest t "a.com/x";
      Wtrie.Tiered.flush t;                 (* fsync the ack point *)
      Wtrie.Tiered.compact t;               (* delta -> immutable run *)
      assert (Wtrie.Tiered.count t "a.com/x" = 1)
    ]} *)
module Tiered = Wt_tiered.Tiered

(* seal the read-side conformance: the merged view answers the same
   QUERY_API as every single-trie variant *)
module _ : QUERY_API with type t = Tiered.t = Tiered

(** Index files on disk, behind one front door.

    Every readable index loads as one flat arena ({!Static.t}).  A
    format-v3 index ({!Static.save_file}) holds the arena itself and
    opens in O(1) via mmap.  Format v2 ({!Wt_core.Persist}, [Marshal]
    images of a static, append-only or dynamic pointer trie) is
    read-only: nothing writes it, and {!load_index} flattens its payload
    into an arena on load.  {!convert} rewrites any readable index as
    v3.  All failures raise {!Format_error} (the shared container
    exception). *)
module Storage = struct
  exception Format_error = Wt_core.Persist.Format_error

  let index_version = Wt_durable.Container.version_of_file
  (** The container format version of an index file, or [None] when the
      file does not start with the container magic. *)

  let is_index_file = Wt_core.Persist.is_index_file

  let invariants check x =
    try check x with Failure m -> raise (Format_error ("index fails invariants: " ^ m))

  (* [read ~deep path]: the variant [path] was written as, and its
     arena.  v3 maps the arena in place ([?mode] as in
     {!STATIC_API.open_file}); a v2 payload is decoded and flattened.
     The static and append-only decoders check a payload's counts as
     they rebuild its trie; a dynamic payload is the trie itself, so
     [~deep] first runs its invariants. *)
  let read ?mode ~deep path =
    let module P = Wt_core.Persist in
    match index_version path with
    | Some v when v = Wt_durable.Container.version_v3 -> ("static", Static.open_file_exn ?mode path)
    | _ -> (
        (* verifies every checksum, so a corrupt file reports its
           precise reason before the variant is looked at *)
        let tag, _ = Wt_durable.Container.read_tagged path in
        ( tag,
          match tag with
          | "static" ->
              Wt_core.Flat_wt.of_trie ~keys:Bytes (module Wt_core.Wavelet_trie.Node)
                (P.load_static path)
          | "append" ->
              Wt_core.Flat_wt.of_trie ~keys:Bytes (module Wt_core.Append_wt.Node)
                (P.load_append path)
          | "dynamic" ->
              let wt = P.load_dynamic path in
              if deep then invariants Wt_core.Dynamic_wt.check_invariants wt;
              Wt_core.Flat_wt.of_trie ~keys:Bytes (module Wt_core.Dynamic_wt.Node) wt
          | t -> raise (Format_error (Printf.sprintf "unknown index variant %S" t)) ))

  let load_index ?mode path = snd (read ?mode ~deep:false path)

  (* Deep verification for [wtrie verify]: full checksums, the v2
     payload's checks, then the arena's structural invariants.
     Returns (variant, length, arena version, layout: β codes, label
     bits and the leaf byte code), the version [None] for a format-v2
     file, whose arena is built on load. *)
  let verify_index path =
    let variant, flat, version =
      match index_version path with
      | Some v when v = Wt_durable.Container.version_v3 -> (
          (* [`Copy] re-verifies the payload checksum, unlike the mmap
             fast path *)
          match Static.open_file ~mode:`Copy path with
          | Error e -> raise (Format_error (Format.asprintf "%a" pp_error e))
          | Ok t -> ("static", t, Some (Wt_core.Flat_wt.version t)))
      | _ ->
          let variant, flat = read ~deep:true path in
          (variant, flat, None)
    in
    invariants Wt_core.Flat_wt.check_invariants flat;
    (variant, Static.length flat, version, Wt_core.Flat_wt.layout flat)

  (* [convert src dst] rewrites any readable index as a format-v3
     static arena.  Returns (source variant, length). *)
  let convert src dst =
    let variant, flat = read ~mode:`Copy ~deep:false src in
    Static.save_file_exn flat dst;
    (variant, Static.length flat)
end

(** The multicore serving layer behind [query_batch ~domains]:
    {!Pool} is the shared domain pool (size from [WTRIE_DOMAINS] or the
    machine), {!Snapshot} the epoch-published handle that pairs with
    {!Dynamic.snapshot} to isolate parallel readers from the owner
    domain's updates:

    {[
      let handle = Wtrie.Snapshot.create (Wtrie.Dynamic.snapshot wt) in
      (* reader domains, at any time: *)
      let frozen = Wtrie.Snapshot.read handle in
      let _ = Wtrie.Dynamic.query_batch ~domains:4 frozen ops in
      (* owner domain: mutate freely, then publish a fresh snapshot *)
      Wtrie.Dynamic.insert wt ~pos:0 "new";
      ignore (Wtrie.Snapshot.publish handle (Wtrie.Dynamic.snapshot wt))
    ]} *)
module Pool = Wt_par.Pool

module Snapshot = Wt_par.Snapshot

(** Space accounting shared by the variants ([Static.space_bits] etc.
    feed it); [Stats.to_breakdown] bridges into {!Report}. *)
module Stats = Wt_core.Stats

(** Observability: {!Probe} switches telemetry on and off, {!Report}
    snapshots it, {!Space} holds the word-overhead model and the
    space-vs-lower-bound breakdown. *)
module Probe = Wt_obs.Probe

module Report = Wt_obs.Report
module Space = Wt_obs.Space
module Histogram = Wt_obs.Histogram
module Json = Wt_obs.Json

(** The live telemetry plane: {!Export} renders the metric universe as
    Prometheus exposition text (or JSON) from a lock-free snapshot,
    safe to call while other domains record; {!Runtime} bridges OCaml's
    [Runtime_events] ring into [rt_*] GC metrics and [gc.*] trace
    spans.  See docs/observability.md, "The live telemetry plane". *)
module Export = Wt_obs.Export

module Runtime = Wt_obs.Runtime

(** Span tracing across the query pipeline ({!Trace}) and the always-on
    bounded ring of recent events ({!Flight}) — see
    docs/observability.md, "Tracing & the flight recorder". *)
module Trace = Wt_obs.Trace

module Flight = Wt_obs.Flight

(** The overload-safe TCP serving front-end ([wtrie serve] in the CLI):
    {!Serve.Server} micro-batches concurrently arriving single queries
    into sharded {!Snapshot} executions with admission control,
    deadlines, and graceful drain; {!Serve.Wire} is the bounded binary
    protocol; {!Serve.Client} is the blocking client and closed-loop
    load generator.  See docs/serving.md. *)
module Serve = struct
  module Server = Wt_serve.Server
  module Batcher = Wt_serve.Batcher
  module Wire = Wt_serve.Wire
  module Client = Wt_serve.Client
end

let with_trace = Wt_obs.Trace.with_trace
(** [with_trace f] traces [f ()] and returns its result together with
    the Chrome [trace_event] JSON ({!Json.t}) of every span it opened:
    [Wtrie.with_trace (fun () -> Static.query_batch ~domains:4 wt ops)]
    yields a trace that nests query → level → shard across domains.
    Print with {!Json.to_string} and load in Perfetto. *)
