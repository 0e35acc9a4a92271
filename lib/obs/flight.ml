(** The flight recorder: an always-on, fixed-size, lock-free ring of
    the most recent noteworthy events, one ring per domain.

    Unlike {!Probe} counters (aggregates) and {!Trace} spans (opt-in,
    possibly sampled), the flight recorder is always armed and bounded:
    recording overwrites the oldest slot, so the memory cost is a
    constant [capacity] records per domain no matter how long the
    process runs, and the write path is one clock read plus one array
    store into the writer domain's own ring — no locks, no allocation
    beyond the event record.

    It exists to answer "what was the system doing just before X?":
    {!dump} merges every domain's ring into one chronological tail, and
    the tiered store points the injected-crash path ({!Wt_durable.Fault})
    at a [Crash] marker so the dump written at [exit 70] shows the WAL
    appends and commits that led up to the torn write.

    Reading ({!dump}) while other domains write is safe but the
    freshest slots may be mid-overwrite; collectors should quiesce
    writers for exact results (tests do). *)

type kind =
  | Span_begin  (** a {!Trace} span opened ([a] = span id, [note] = name) *)
  | Span_end  (** a {!Trace} span closed ([a] = span id, [note] = name) *)
  | Wal_append  (** a WAL record reached the log ([a] = payload bytes) *)
  | Wal_replay  (** recovery replayed WAL records ([a] = record count) *)
  | Snapshot_publish  (** an epoch snapshot was published ([a] = epoch) *)
  | Checkpoint  (** a compaction committed a run ([a] = new generation) *)
  | Pool_dispatch  (** a pool task started executing ([a] = domain slot) *)
  | Crash  (** injected crash fired; [note] is the fault message *)
  | Slow_query
      (** a served request crossed the slow-query threshold ([a] =
          queue-wait ns, [b] = batch-execution ns, [note] = op kind) *)
  | Mark  (** free-form marker for tests and applications *)

let kind_name = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Wal_append -> "wal_append"
  | Wal_replay -> "wal_replay"
  | Snapshot_publish -> "snapshot_publish"
  | Checkpoint -> "checkpoint"
  | Pool_dispatch -> "pool_dispatch"
  | Crash -> "crash"
  | Slow_query -> "slow_query"
  | Mark -> "mark"

type event = {
  t_ns : int;
  dom : int;
  kind : kind;
  a : int;
  b : int;
  note : string;
}

let capacity = 512
(** Ring slots per domain; the dump holds at most this many events from
    each domain that ever recorded one. *)

type ring = { rdom : int; ev : event array; mutable widx : int }

let dummy = { t_ns = 0; dom = -1; kind = Mark; a = 0; b = 0; note = "" }

let registry : ring list ref = ref []
let reg_mu = Mutex.create ()

let rkey =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          rdom = (Domain.self () :> int);
          ev = Array.make capacity dummy;
          widx = 0;
        }
      in
      Mutex.lock reg_mu;
      registry := r :: !registry;
      Mutex.unlock reg_mu;
      r)

(* [record kind] stamps an event into the calling domain's ring.  [~t]
   supplies the timestamp when the caller already read the clock (the
   tracer passes its span timestamps through so a test clock ticks once
   per observable instant). *)
let record ?t ?(a = 0) ?(b = 0) ?(note = "") kind =
  let r = Domain.DLS.get rkey in
  let t_ns = match t with Some t -> t | None -> Probe.now_ns () in
  r.ev.(r.widx land (capacity - 1)) <- { t_ns; dom = r.rdom; kind; a; b; note };
  r.widx <- r.widx + 1

(* Collector side. *)

let rings () =
  Mutex.lock reg_mu;
  let rs = !registry in
  Mutex.unlock reg_mu;
  rs

let clear () = List.iter (fun r -> r.widx <- 0) (rings ())

let dump () =
  let tail r =
    let n = r.widx in
    let lo = max 0 (n - capacity) in
    List.init (n - lo) (fun i -> r.ev.((lo + i) land (capacity - 1)))
  in
  List.sort
    (fun a b -> compare (a.t_ns, a.dom) (b.t_ns, b.dom))
    (List.concat_map tail (rings ()))

let event_to_json e =
  Json.Obj
    [
      ("t_ns", Json.Int e.t_ns);
      ("domain", Json.Int e.dom);
      ("kind", Json.Str (kind_name e.kind));
      ("a", Json.Int e.a);
      ("b", Json.Int e.b);
      ("note", Json.Str e.note);
    ]

let to_json () =
  Json.Obj [ ("events", Json.List (List.map event_to_json (dump ()))) ]

let pp_event fmt e =
  Format.fprintf fmt "%12d  dom%-3d %-16s a=%-8d b=%-8d %s" e.t_ns e.dom
    (kind_name e.kind) e.a e.b e.note

let pp fmt () =
  let evs = dump () in
  Format.fprintf fmt "@[<v>flight recorder (%d most recent events):@,"
    (List.length evs);
  List.iter (fun e -> Format.fprintf fmt "  %a@," pp_event e) evs;
  Format.fprintf fmt "@]"
