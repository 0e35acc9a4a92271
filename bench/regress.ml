(* Perf-regression gate over the bench trajectory.

     regress.exe BASELINE.json CURRENT.json [--threshold 0.25] [--soft]

   Both inputs are `bench --json` outputs (CURRENT typically from
   `--quick`).  The checks:

   - Structural: each observability report under CURRENT's "metrics"
     (static, append, dynamic) must carry exactly the metric universe
     ([Wt_obs.Metric.all], in declaration order) as its counter keys and
     its latency ops.  Report JSON is normalized over that universe
     precisely so this comparison is exact: a key that appears or
     disappears means the instrumentation (or its serialization)
     drifted, which silently invalidates any longitudinal dashboard
     built on these files.  This gate fails even under --soft.

   - Throughput: the headline performance figures may not regress by
     more than THRESHOLD (fraction, default 0.25) against the baseline,
     direction-aware: ns/op, ms and us/record must not rise, rates must
     not fall.  Improvements are reported, never gated.  No ratio to a
     reference path is gated ([batch.*.speedup],
     [analytics.*.speedup]): a faster reference would read as a
     regression.  The suites' own times are gated instead.

   - Absolute bars on CURRENT alone: the mmap open is O(1) (the
     131,072-string arena opens within 2x of an arena 16x smaller), and
     the tiered store's ingest and merged reads hold their bars.

   - Space: the static variant's space against the lower bound
     ([ratio_to_lb]), its node/directory overhead ([overhead_bits]), and
     on a serve_wide-shape arena the directory's bits per node
     ([flat.directory_bits_per_node]), the share of raw β bits stored
     plain ([flat.plain_beta_share]), the stored label bits over the
     logical ones ([flat.stored_label_share]), the same for its internal
     labels ([flat.internal_label_share]) and the mean bits of a coded
     byte in its leaf and internal labels' byte codes
     ([flat.leaf_code_bits], [flat.internal_code_bits]) must equal the
     baseline.  Space is
     deterministic (fixed seed, fixed n), so this gate is exact and
     fails even under --soft: a layout change must come with a
     regenerated baseline.

   - Allocation: the words one static build allocates per string
     ([flat.build_words_per_string]), the words one tiered ingest
     allocates ([tiered.ingest_words_per_string]), the words one
     merging tiered compaction allocates per string of its run
     ([tiered.merge_words_per_string]) and the words per access, rank,
     select, rank_prefix and select_prefix op through the scalar façade
     and in a 16,384-op batch
     ([batch.{access,rank,select,rank_prefix,select_prefix}.{scalar,batch}_words_per_op])
     may not exceed the baseline by more than 10%.  Each is counted
     between two [Gc.minor] calls, so it does not depend on the
     runner's speed, load or heap state, and this gate also fails under
     --soft.

   - Work: the trie nodes visited, the label bits compared, and the RRR
     ranks, accesses and unranked block positions per access and rank
     op or ranks, selects and unranked block positions per select,
     rank_prefix and select_prefix op, on the scalar and the batched leg
     ([batch.{access,rank}.{scalar,batch}_{nodes,bits,rrr_rank,rrr_access,rrr_unrank}_per_op],
     [batch.{select,rank_prefix,select_prefix}.{scalar,batch}_{nodes,bits,rrr_rank,rrr_select,rrr_unrank}_per_op]),
     must equal the baseline.  They are counts on fixed inputs, so this
     gate is exact and fails even under --soft: a change to the work a
     query does must come with a regenerated baseline.

   Exit 0 when clean, 1 on any regression; --soft reports timing
   regressions but does not fail on them (for CI runners whose core
   count or load makes timing unreliable).  The baseline's "metrics"
   block holds only what the space gate reads. *)

module Json = Wtrie.Json

let read_json path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "regress: %s: %s\n" path e;
      exit 2

(* "a.b.c" path lookup. *)
let rec find j = function
  | [] -> Some j
  | k :: rest -> ( match Json.member k j with Some j' -> find j' rest | None -> None)

let lookup j path = find j (String.split_on_char '.' path)

let number j path =
  match lookup j path with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* Direction: what a *worse* current value looks like. *)
type dir = Lower_better | Higher_better

let gated =
  [
    (Lower_better, "batch.access.scalar_ns_per_op");
    (Lower_better, "batch.rank.scalar_ns_per_op");
    (Lower_better, "batch.access.batch_ns_per_op");
    (Lower_better, "batch.rank.batch_ns_per_op");
    (Lower_better, "parallel.access.domains_1_ns_per_op");
    (Lower_better, "parallel.rank.domains_1_ns_per_op");
    (Lower_better, "analytics.select_all.select_all_ms");
    (Lower_better, "analytics.topk.topk_ms");
    (Higher_better, "durability.wal.replay_records_per_s");
    (Lower_better, "durability.wal.append_us_per_record");
    (* serving: end-to-end closed-loop throughput, and the overload
       leg's shed fraction (config-bound capacity, so it measures
       admission control, not the runner).  p50/p99 latencies ride
       along in the JSON but are not gated: microsecond percentiles
       through a kernel socket are dominated by scheduler noise. *)
    (Higher_better, "serve.closed_loop.throughput_rps");
    (Higher_better, "serve.overload.shed_fraction");
    (* format v3: the flat engine's batch latency and build cost *)
    (Lower_better, "flat.flat_batch_ns_per_op");
    (Lower_better, "flat.build_ns_per_string");
    (* the arena's β coder alone, at three densities in the code the
       chooser picks, on one-block blobs, and forced into class-range
       RRR at density 0.5 *)
    (Lower_better, "flat.rrr_rank_ns_d50");
    (Lower_better, "flat.rrr_select_ns_d50");
    (Lower_better, "flat.rrr_access_ns_d50");
    (Lower_better, "flat.rrr_rank_ns_d10");
    (Lower_better, "flat.rrr_select_ns_d10");
    (Lower_better, "flat.rrr_access_ns_d10");
    (Lower_better, "flat.rrr_rank_ns_d1");
    (Lower_better, "flat.rrr_select_ns_d1");
    (Lower_better, "flat.rrr_access_ns_d1");
    (Lower_better, "flat.rrr_one_block_rank_ns");
    (Lower_better, "flat.rrr_class_range_rank_ns_d50");
    (* the arena's node directory alone: one fused read *)
    (Lower_better, "flat.directory_ns");
    (* tiered store: sustained WAL-backed ingest rate and the merged
       run+delta read path's tail latency *)
    (Higher_better, "tiered.ingest_strings_per_s");
    (Lower_better, "tiered.read_p99_us");
  ]
(* The multi-domain figures (speedup_2/speedup_4) are deliberately not
   gated: they measure the runner's core count more than the code. *)

let obj_keys = function Some (Json.Obj kvs) -> Some (List.map fst kvs) | _ -> None

let latency_ops j path =
  match lookup j path with
  | Some (Json.List items) ->
      Some
        (List.filter_map
           (fun it -> match Json.member "op" it with Some (Json.Str s) -> Some s | _ -> None)
           items)
  | _ -> None

let failures = ref 0
let fail fmt = Printf.ksprintf (fun m -> incr failures; Printf.printf "FAIL  %s\n" m) fmt
let hard_failures = ref 0

let hard_fail fmt =
  Printf.ksprintf
    (fun m ->
      incr hard_failures;
      fail "%s" m)
    fmt

(* Absolute gates on CURRENT alone — the format-v3 acceptance bar, not
   a baseline comparison: the mmap open of the 131,072-string arena
   must take at most 2x the open of an arena 16x smaller (an open reads
   the header and footer, never the payload).  The flat batch engine's
   time over the pointer trie's ([flat.batch_vs_pointer_ratio]) rides
   along in the JSON but is not gated: the two tries share one β coder,
   so the ratio moves with the pointer trie, and the arena's own time
   is gated ([flat.flat_batch_ns_per_op]). *)
let absolute cur =
  (match number cur "flat.mmap_open_ratio_16x" with
  | Some v when v <= 2. ->
      Printf.printf "ok    %-45s %12.2f  (<= 2.0 ceiling)\n" "flat.mmap_open_ratio_16x" v
  | Some v ->
      fail "%-45s %12.2f  (open time grows with the arena)" "flat.mmap_open_ratio_16x" v
  | None -> fail "flat.mmap_open_ratio_16x missing from current");
  (* tiered acceptance bar: WAL-backed ingest into the bounded delta
     must at least match appending into one monolithic dynamic trie
     (that is the point of tiering), and the merged read path may cost
     at most 4x the flat arena it is built from. *)
  (match number cur "tiered.ingest_speedup_vs_dynamic" with
  | Some v when v >= 1. ->
      Printf.printf "ok    %-45s %12.2f  (>= 1.0 floor)\n"
        "tiered.ingest_speedup_vs_dynamic" v
  | Some v ->
      fail "%-45s %12.2f  (tiered ingest slower than dynamic append)"
        "tiered.ingest_speedup_vs_dynamic" v
  | None -> fail "tiered.ingest_speedup_vs_dynamic missing from current");
  match number cur "tiered.read_p99_ratio_vs_static" with
  | Some v when v <= 4. ->
      Printf.printf "ok    %-45s %12.2f  (<= 4.0 ceiling)\n"
        "tiered.read_p99_ratio_vs_static" v
  | Some v ->
      fail "%-45s %12.2f  (merged read p99 more than 4x the flat arena)"
        "tiered.read_p99_ratio_vs_static" v
  | None -> fail "tiered.read_p99_ratio_vs_static missing from current"


let structural cur =
  let universe = Array.to_list (Array.map Wt_obs.Metric.name Wt_obs.Metric.all) in
  let check path = function
    | Some keys when keys = universe ->
        Printf.printf "ok    %-45s %12d  (the metric universe)\n" path (List.length keys)
    | Some keys ->
        let absent from l = List.filter (fun k -> not (List.mem k l)) from in
        hard_fail "%s drifts from the metric universe (missing: %s; unknown: %s%s)" path
          (String.concat "," (absent universe keys))
          (String.concat "," (absent keys universe))
          (if List.sort compare keys = List.sort compare universe then "; order differs" else "")
    | None -> hard_fail "%s missing from current" path
  in
  List.iter
    (fun variant ->
      let path kind = Printf.sprintf "metrics.%s.%s" variant kind in
      check (path "counters") (obj_keys (lookup cur (path "counters")));
      check (path "latencies") (latency_ops cur (path "latencies")))
    [ "static"; "append"; "dynamic" ]

let exact ~why name b c =
  match (b, c) with
  | Some b, Some c when Float.abs (c -. b) <= 1e-9 *. Float.abs b ->
      Printf.printf "ok    %-45s %12.4f  (exact)\n" name c
  | Some b, Some c -> hard_fail "%-45s %12.4f -> %12.4f  (%s: regenerate the baseline)" name b c why
  | _ -> hard_fail "%s missing from one side" name

let space_exact base cur =
  let field j key =
    match lookup j "metrics.static.space" with
    | Some (Json.List (s :: _)) -> (
        match Json.member key s with
        | Some (Json.Int i) -> Some (float_of_int i)
        | Some (Json.Float f) -> Some f
        | _ -> None)
    | _ -> None
  in
  let why = "space is deterministic" in
  List.iter
    (fun key -> exact ~why ("metrics.static.space." ^ key) (field base key) (field cur key))
    [ "ratio_to_lb"; "overhead_bits" ];
  List.iter
    (fun path -> exact ~why path (number base path) (number cur path))
    [
      "flat.directory_bits_per_node";
      "flat.plain_beta_share";
      "flat.stored_label_share";
      "flat.internal_label_share";
      "flat.leaf_code_bits";
      "flat.internal_code_bits";
    ]

(* "batch.<op>.<row>_per_op" for the given legs. *)
let batch_rows ?(ops = [ "access"; "rank"; "select"; "rank_prefix"; "select_prefix" ]) rows =
  List.concat_map
    (fun op -> List.map (fun row -> Printf.sprintf "batch.%s.%s_per_op" op row) rows)
    ops

(* The exact work rows of a leg: nodes, label bits and RRR ranks, then
   accesses or selects, and unranked positions. *)
let work_rows rest =
  List.concat_map
    (fun leg -> List.map (Printf.sprintf "%s_%s" leg) ("nodes" :: "bits" :: "rrr_rank" :: rest))
    [ "scalar"; "batch" ]

let alloc_gate base cur =
  List.iter
    (fun path ->
      match (number base path, number cur path) with
      | Some b, Some c when c <= b *. 1.10 ->
          Printf.printf "ok    %-45s %12.1f -> %12.1f  (<= +10%%)\n" path b c
      | Some b, Some c ->
          hard_fail "%-45s %12.1f -> %12.1f  (allocates more than 10%% over the baseline)" path
            b c
      | _ -> hard_fail "%s missing from one side" path)
    ([
       "flat.build_words_per_string";
       "tiered.ingest_words_per_string";
       "tiered.merge_words_per_string";
     ]
    @ batch_rows [ "scalar_words"; "batch_words" ])

let work_exact base cur =
  List.iter
    (fun path ->
      match (number base path, number cur path) with
      | Some b, Some c when c = b -> Printf.printf "ok    %-45s %12.4f  (exact)\n" path c
      | Some b, Some c ->
          hard_fail
            "%-45s %12.4f -> %12.4f  (work per op is deterministic: regenerate the baseline)"
            path b c
      | _ -> hard_fail "%s missing from one side" path)
    (batch_rows ~ops:[ "access"; "rank" ] (work_rows [ "rrr_access"; "rrr_unrank" ])
    @ batch_rows ~ops:[ "select"; "rank_prefix"; "select_prefix" ]
        (work_rows [ "rrr_select"; "rrr_unrank" ]))

let throughput ~threshold base cur =
  List.iter
    (fun (dir, path) ->
      match (number base path, number cur path) with
      | Some b, Some c when b > 0. ->
          let ratio = c /. b in
          let worse =
            match dir with
            | Lower_better -> ratio > 1. +. threshold
            | Higher_better -> ratio < 1. -. threshold
          in
          let pct = (ratio -. 1.) *. 100. in
          if worse then fail "%-45s %12.1f -> %12.1f  (%+.1f%%)" path b c pct
          else Printf.printf "ok    %-45s %12.1f -> %12.1f  (%+.1f%%)\n" path b c pct
      | Some _, Some _ -> fail "%s: non-positive baseline" path
      | None, _ -> fail "%s missing from baseline" path
      | _, None -> fail "%s missing from current" path)
    gated

let () =
  let threshold = ref 0.25 and soft = ref false and files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0. -> threshold := t
        | _ ->
            prerr_endline "regress: --threshold expects a positive fraction";
            exit 2);
        parse rest
    | "--soft" :: rest ->
        soft := true;
        parse rest
    | f :: rest ->
        files := f :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ baseline; current ] ->
      let base = read_json baseline and cur = read_json current in
      Printf.printf "regress: %s vs %s (threshold %.0f%%%s)\n" current baseline
        (!threshold *. 100.)
        (if !soft then ", soft" else "");
      structural cur;
      space_exact base cur;
      alloc_gate base cur;
      work_exact base cur;
      throughput ~threshold:!threshold base cur;
      absolute cur;
      if !failures = 0 then print_endline "regress: clean"
      else begin
        Printf.printf "regress: %d failure(s)\n" !failures;
        if !hard_failures > 0 then begin
          Printf.printf
            "regress: %d structural, space, allocation or work failure(s), failing even in soft mode\n"
            !hard_failures;
          exit 1
        end
        else if not !soft then exit 1
        else print_endline "regress: soft mode, not failing the build"
      end
  | _ ->
      prerr_endline "usage: regress BASELINE.json CURRENT.json [--threshold FRAC] [--soft]";
      exit 2
