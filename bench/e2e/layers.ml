(* Per-layer metrics.  Every workload's traced pass reports each name
   below; a layer the workload does not exercise reports 0 (the tiered
   and analytics layers on the serving workloads, say), which is the
   prediction for that pairing.  Counter-derived metrics come from the
   program's own [lib/obs] probes, read through [Wtrie.Report.capture]
   in process or the serve Stats op across the wire. *)

let all =
  [
    (* serve: lib/serve Server, Batcher, Wire *)
    ("serve.queue_wait_us.p50", "us");
    ("serve.queue_wait_us.p99", "us");
    ("serve.ops_per_batch", "count");
    ("serve.other_us.mean", "us");
    ("serve.shed", "count");
    ("serve.expired", "count");
    ("client.lag_us.p99", "us");
    (* exec: lib/exec + lib/par *)
    ("exec.batch_us.p50", "us");
    ("exec.batch_us.p99", "us");
    ("exec.ns_per_op", "ns");
    ("exec.busy_frac", "ratio");
    ("exec.levels_per_batch", "count");
    (* trie: lib/core Flat_wt/Dynamic_wt + lib/bitvector Rrr/Chunk_tree *)
    ("wt.nodes_per_op", "count");
    ("wt.bits_per_op", "count");
    ("rrr.rank_per_op", "count");
    ("rrr.select_per_op", "count");
    ("bv.cursor_hit_ratio", "ratio");
    ("space.label_bits_per_string", "bits");
    ("space.bv_bits_per_string", "bits");
    ("space.overhead_bits_per_string", "bits");
    ("space.lb_bits_per_string", "bits");
    (* tiered: lib/tiered; wal: lib/durable Wal/Container *)
    ("tiered.ingest_us.p50", "us");
    ("tiered.ingest_us.p99", "us");
    ("dynamic.node_splits_per_ingest", "count");
    ("tiered.flush_ms.p50", "ms");
    ("tiered.flush_ms.p99", "ms");
    ("tiered.read_idle_us.p99", "us");
    ("tiered.read_compacting_us.p99", "us");
    ("tiered.compactions", "count");
    ("tiered.compact_ms.p50", "ms");
    ("tiered.runs_final", "count");
    ("tiered.write_amp", "ratio");
    ("wal.bytes_per_string", "bytes");
    (* analytics: lib/analytics + Wt_core.Range *)
    ("analytics.topk_us.p50", "us");
    ("analytics.topk_us.p99", "us");
    ("analytics.distinct_us.p50", "us");
    ("analytics.distinct_us.p99", "us");
    ("analytics.range_count_us.p50", "us");
    ("analytics.range_count_us.p99", "us");
    ("analytics.select_all_us.p50", "us");
    ("analytics.select_all_us.p99", "us");
    ("range.majority_us.p50", "us");
    ("range.majority_us.p99", "us");
    ("range.quantile_us.p50", "us");
    ("range.quantile_us.p99", "us");
    (* rt: the OCaml runtime through Wtrie.Runtime and Gc *)
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("rt.gc_pause_us.p99", "us");
    ("rt.gc_frac", "ratio");
    (* self time of the spans the traced pass records, per layer *)
    ("self.bench_ms", "ms");
    ("self.serve_ms", "ms");
    ("self.exec_ms", "ms");
    ("self.trie_ms", "ms");
    ("self.analytics_ms", "ms");
    ("self.tiered_ms", "ms");
    ("self.wal_ms", "ms");
  ]

let emitted = Hashtbl.create 64

let emit ?n name value =
  match List.assoc_opt name all with
  | None -> invalid_arg ("Layers.emit: unknown metric " ^ name)
  | Some unit ->
      Hashtbl.replace emitted name ();
      Out.metric ?n Out.Layer name unit value

(* Report 0 for every layer metric this workload did not measure. *)
let finish () = List.iter (fun (name, _) -> if not (Hashtbl.mem emitted name) then emit name 0.) all

(* ------------------------------------------------------------------ *)
(* Differences between two captures of the cumulative probe state *)

type delta = { before : Wtrie.Report.t; after : Wtrie.Report.t }

let counter d name = Wtrie.Report.counter d.after name - Wtrie.Report.counter d.before name

let hist_parts r name =
  match Wtrie.Report.latency r name with
  | None -> ([], 0, 0.)
  | Some l -> (l.Wtrie.Report.buckets, l.count, l.mean_ns *. float_of_int l.count)

(* The histogram recorded between the two captures: its buckets, its
   sample count and the mean of those samples in ns. *)
let hist d name =
  let b1, c1, s1 = hist_parts d.after name and b0, c0, s0 = hist_parts d.before name in
  let c = c1 - c0 in
  (Util.bucket_diff b1 b0, c, if c > 0 then (s1 -. s0) /. float_of_int c else 0.)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Per-operation work of the trie and bitvector layers: the paper's
   O(|s| + h_s) bitvector operations, as counted by the probes. *)
let trie d ~ops =
  let per name = ratio (counter d name) ops in
  emit "wt.nodes_per_op" (per "wt_nodes_visited");
  emit "wt.bits_per_op" (per "wt_bits_consumed");
  emit "rrr.rank_per_op" (per "rrr_rank");
  emit "rrr.select_per_op" (per "rrr_select");
  let hits = counter d "bv_cursor_hit" in
  emit "bv.cursor_hit_ratio" (ratio hits (hits + counter d "bv_cursor_miss"))

let levels_per_batch d =
  let _, levels, _ = hist d "exec_level" in
  emit "exec.levels_per_batch" (ratio levels (counter d "exec_batch"))

(* GC as the runtime-events bridge saw it over [wall_ns]. *)
let runtime d ~wall_ns =
  let minor, _, _ = hist d "rt_gc_minor" and major, _, _ = hist d "rt_gc_major" in
  let pauses = List.sort compare (minor @ major) in
  let merged =
    List.fold_left
      (fun acc (b, c) ->
        match acc with (b', c') :: tl when b' = b -> (b, c + c') :: tl | _ -> (b, c) :: acc)
      [] pauses
  in
  emit "rt.gc_pause_us.p99" (Util.bucket_quantile (List.rev merged) 0.99 /. 1e3);
  emit "rt.gc_frac" (ratio (counter d "rt_gc_ns") wall_ns)

let space (st : Wt_core.Stats.t) =
  let per bits = bits /. float_of_int (max 1 st.n) in
  emit "space.label_bits_per_string" (per (float_of_int st.label_bits));
  emit "space.bv_bits_per_string" (per (float_of_int st.bv_bits));
  emit "space.overhead_bits_per_string"
    (per (float_of_int (st.total_bits - st.label_bits - st.bv_bits)));
  emit "space.lb_bits_per_string" (per (Wt_core.Stats.lower_bound st))

let gc_words () = (Gc.quick_stat ()).Gc.minor_words
let gc_majors () = (Gc.quick_stat ()).Gc.major_collections

let self_times tables =
  let total layer =
    List.fold_left
      (fun acc t -> acc + Option.value ~default:0 (Hashtbl.find_opt t layer))
      0 tables
  in
  List.iter
    (fun layer -> emit ("self." ^ layer ^ "_ms") (float_of_int (total layer) /. 1e6))
    [ "bench"; "serve"; "exec"; "trie"; "analytics"; "tiered"; "wal" ]

(* A capture of the probes, polling the runtime bridge first so GC
   pauses up to this instant are in it. *)
let capture () =
  ignore (Wtrie.Runtime.poll ());
  Wtrie.Report.capture ()

(* Per-kind latency samples in µs, emitted as the p50/p99 pair. *)
let latency name xs =
  let s = Util.sorted xs in
  let n = Array.length s in
  emit ~n (name ^ ".p50") (Util.quantile s 0.5);
  emit ~n (name ^ ".p99") (Util.quantile s 0.99)
