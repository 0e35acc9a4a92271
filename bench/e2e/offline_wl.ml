(* offline_scan: an in-process static index over the serve_wide data,
   driven by a single-threaded closed loop of fixed work — large
   [query_batch] calls, then range-analytics calls over random windows.
   No sockets: the batch engine and the analytics suite do all the
   work, so the probe counts per operation repeat exactly. *)

type cfg = {
  n : int;
  pool : int;  (** distinct point operations with reference answers *)
  batch_ops : int;
  batches : int;
  range_calls : int;
  width : int;  (** range window *)
}

let setup_reps = 3

(* Distinct windows the range calls run over. *)
let windows = 60

type kind = Topk | Distinct | Count | Select_all | Majority | Quantile

let kinds = [| Topk; Distinct; Count; Select_all; Majority; Quantile |]

let kind_metric = function
  | Topk -> "analytics.topk_us"
  | Distinct -> "analytics.distinct_us"
  | Count -> "analytics.range_count_us"
  | Select_all -> "analytics.select_all_us"
  | Majority -> "range.majority_us"
  | Quantile -> "range.quantile_us"

let kind_call = function
  | Topk -> "Static.range_topk"
  | Distinct -> "Static.range_distinct"
  | Count -> "Static.range_count"
  | Select_all -> "Static.select_all"
  | Majority -> "Range.Static.majority"
  | Quantile -> "Range.Static.quantile"

type answer =
  | Pairs of (string * int) array
  | Int of int
  | Positions of int array
  | Pair of (string * int) option
  | Str of string option

(* Answers are kept as digests of their structure: a [range_distinct]
   answer holds thousands of strings, and the benchmark's own memory
   should not stand beside the index's. *)
let digest (a : answer) = Digest.string (Marshal.to_string a [ Marshal.No_sharing ])

(* Calls per kind, relative: the cheap kinds get more calls, so their
   medians rest on many windows and prefixes; [range_distinct] over
   16,384 positions costs ~60 ms and gets the fewest. *)
let weight = function Distinct -> 1 | Topk -> 2 | Count | Select_all | Majority | Quantile -> 4

(* A window of the sequence with what the reference answers need. *)
type window = { lo : int; hi : int; counts : (string * int) list; sorted : string array }

let window data ~lo ~hi =
  let strings = Array.sub data lo (hi - lo) in
  let counts = Hashtbl.fold (fun s n acc -> (s, n) :: acc) (Gen.occurrences strings) [] in
  Array.sort compare strings;
  { lo; hi; counts; sorted = strings }

type call = { kind : kind; lo : int; hi : int; prefix : string; k : int; expect : Digest.t }

(* The host part of a URL, "http://host/". *)
let host s = String.sub s 0 (String.index_from s (String.index s ':' + 3) '/' + 1)

(* Reference answers straight from the generated strings. *)
let reference data w c =
  match c.kind with
  | Topk ->
      let by_count = List.sort (fun (s, a) (t, b) -> if a <> b then compare b a else compare s t) w.counts in
      Pairs (Array.of_list (List.filteri (fun i _ -> i < c.k) by_count))
  | Distinct -> Pairs (Array.of_list (List.sort compare w.counts))
  | Count ->
      Int (Array.fold_left (fun a s -> if String.starts_with ~prefix:c.prefix s then a + 1 else a) 0 w.sorted)
  | Select_all ->
      Positions
        (Array.of_list
           (List.filter
              (fun i -> String.starts_with ~prefix:c.prefix data.(i))
              (List.init (w.hi - w.lo) (( + ) w.lo))))
  | Majority -> Pair (List.find_opt (fun (_, n) -> 2 * n > w.hi - w.lo) w.counts)
  | Quantile -> Str (if c.k < Array.length w.sorted then Some w.sorted.(c.k) else None)

(* One round of calls: every kind, [weight] times. *)
let round = List.concat_map (fun k -> List.init (weight k) (fun _ -> k)) (Array.to_list kinds)

(* [cfg.range_calls] calls over [windows] random windows, as repeated
   rounds, so any [List.length round] consecutive calls cover every
   kind. *)
let calls ~rng ~data cfg =
  let n = Array.length data in
  let ws =
    Array.init windows (fun _ ->
        let lo = Gen.int rng (n - cfg.width + 1) in
        window data ~lo ~hi:(lo + cfg.width))
  in
  let round = Array.of_list round in
  Array.init cfg.range_calls (fun i ->
      let kind = round.(i mod Array.length round) in
      let w = ws.(Gen.int rng windows) in
      let prefix = host data.(w.lo + Gen.int rng cfg.width) in
      let k = match kind with Topk -> 10 | Quantile -> Gen.int rng cfg.width | _ -> 0 in
      let c = { kind; lo = w.lo; hi = w.hi; prefix; k; expect = "" } in
      { c with expect = digest (reference data w c) })

let call wt c =
  let bytes = Wt_strings.Binarize.to_bytes in
  let ok = function Ok v -> Some v | Error _ -> None in
  let lo = c.lo and hi = c.hi in
  match c.kind with
  | Topk -> Option.map (fun v -> Pairs v) (ok (Wtrie.Static.range_topk wt ~lo ~hi ~k:c.k))
  | Distinct -> Option.map (fun v -> Pairs v) (ok (Wtrie.Static.range_distinct wt ~lo ~hi))
  | Count -> Option.map (fun v -> Int v) (ok (Wtrie.Static.range_count ~prefix:c.prefix wt ~lo ~hi))
  | Select_all ->
      Option.map (fun v -> Positions v) (ok (Wtrie.Static.select_all ~prefix:c.prefix ~lo ~hi wt))
  | Majority ->
      Some (Pair (Option.map (fun (b, n) -> (bytes b, n)) (Wt_core.Range.Static.majority wt ~lo ~hi)))
  | Quantile -> Some (Str (Option.map bytes (Wt_core.Range.Static.quantile wt ~lo ~hi c.k)))

type pass = {
  e2e : Out.pass;
  attempted : int;
  wrong : int;
  batch_us : float array;
  batch_ops : int;
  batch_wall_ns : int;
  per_kind : (kind * float array) list;
  batch_delta : Layers.delta;  (** probes over the batch phase *)
  minor_words : float;  (** over the batch phase *)
  pass_delta : Layers.delta;
  pass_wall_ns : int;
  majors : int;
}

let run_pass cfg ~seed ~wt ~(pool : Gen.pool) ~(rcalls : call array) =
  let nb = cfg.batches and nr = cfg.range_calls in
  let rng = Gen.rng ~seed 3 in
  let perm = Array.init (Array.length pool.ops) Fun.id in
  let wrong = ref 0 and batch_us = Util.Vec.create 0. in
  let start = Layers.capture () and w0 = Layers.gc_words () and m0 = Layers.gc_majors () in
  let t0 = Util.now_ns () in
  for b = 0 to nb - 1 do
    (* a fresh random subset of the pool, with no operation twice *)
    for i = 0 to cfg.batch_ops - 1 do
      let j = i + Gen.int rng (Array.length perm - i) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    let ops = Array.init cfg.batch_ops (fun i -> pool.ops.(perm.(i))) in
    let res, dt =
      Util.timed (fun () ->
          Spans.with_span ~layer:"exec" ~key:b "Static.query_batch" (fun _ -> Wtrie.Static.query_batch wt ops))
    in
    Util.Vec.push batch_us (Util.us dt);
    Array.iteri (fun i r -> if r <> pool.answers.(perm.(i)) then incr wrong) res
  done;
  let t1 = Util.now_ns () in
  let mid = Layers.capture () and w1 = Layers.gc_words () in
  let samples = List.map (fun k -> (k, Util.Vec.create 0.)) (Array.to_list kinds) in
  for r = 0 to nr - 1 do
    let c = rcalls.(r mod Array.length rcalls) in
    let res, dt =
      Util.timed (fun () ->
          Spans.with_span ~layer:"analytics" ~key:r (kind_call c.kind) (fun _ -> call wt c))
    in
    Util.Vec.push (List.assoc c.kind samples) (Util.us dt);
    if Option.map digest res <> Some c.expect then incr wrong
  done;
  let t2 = Util.now_ns () in
  let per_kind = List.map (fun (k, v) -> (k, Util.Vec.to_array v)) samples in
  let batch_us = Util.Vec.to_array batch_us in
  let batch_ns = Array.fold_left ( +. ) 0. batch_us *. 1e3 in
  (* range kinds differ by four orders of magnitude, so a percentile of
     all calls would sit on the boundary between two kinds; the range
     latency is the geometric mean of the per-kind percentiles *)
  let kind_q q = Util.geomean (Array.of_list (List.map (fun (_, xs) -> Util.quantile (Util.sorted xs) q) per_kind)) in
  {
    e2e =
      [ ("light_p50_us", "us", kind_q 0.5, nr); ("light_p99_us", "us", kind_q 0.99, nr) ]
      @ Out.latencies "heavy" batch_us
      @ [
          ( "batch_ops_per_s",
            "1/s",
            float_of_int (nb * cfg.batch_ops) /. (batch_ns /. 1e9),
            nb * cfg.batch_ops );
        ];
    attempted = (nb * cfg.batch_ops) + nr;
    wrong = !wrong;
    batch_us;
    batch_ops = nb * cfg.batch_ops;
    batch_wall_ns = t1 - t0;
    per_kind;
    batch_delta = { Layers.before = start; after = mid };
    minor_words = w1 -. w0;
    pass_delta = { Layers.before = start; after = Layers.capture () };
    pass_wall_ns = t2 - t0;
    majors = Layers.gc_majors () - m0;
  }

let layer_metrics p ~st =
  Layers.latency "exec.batch_us" p.batch_us;
  Layers.emit "exec.ns_per_op" (Array.fold_left ( +. ) 0. p.batch_us *. 1e3 /. float_of_int p.batch_ops);
  Layers.emit "exec.busy_frac" (Array.fold_left ( +. ) 0. p.batch_us *. 1e3 /. float_of_int p.batch_wall_ns);
  Layers.levels_per_batch p.batch_delta;
  Layers.trie p.batch_delta ~ops:p.batch_ops;
  List.iter (fun (k, xs) -> Layers.latency (kind_metric k) xs) p.per_kind;
  Layers.space st;
  Layers.emit "gc.minor_words_per_op" (p.minor_words /. float_of_int p.batch_ops);
  Layers.emit "gc.major_collections" (float_of_int p.majors);
  Layers.runtime p.pass_delta ~wall_ns:p.pass_wall_ns

(* A traced run splits its work between an untraced and a traced pass. *)
let half cfg = { cfg with batches = max 1 (cfg.batches / 2); range_calls = max 1 (cfg.range_calls / 2) }

let run cfg ~seed ~dir ~traced =
  (* set-up, timed [setup_reps] times; a set-up's strings and index are
     garbage, and collected, before the next one starts, so the peak
     resident set is one set-up's *)
  let setup () =
    Gc.full_major ();
    Util.timed (fun () ->
        Spans.with_span ~layer:"bench" "setup" (fun _ ->
            let data = Gen.urls ~seed Gen.wide cfg.n in
            (data, Spans.with_span ~layer:"trie" "Static.of_array" (fun _ -> Wtrie.Static.of_array data))))
  in
  let rec setups rep times =
    let kept, dt = setup () in
    if rep + 1 = setup_reps then (kept, dt :: times) else setups (rep + 1) (dt :: times)
  in
  let (data, wt), times = setups 0 [] in
  let setup_s = Util.median (Array.of_list (List.map Util.secs times)) in
  (* reference answers: scalar calls on a [`Copy] open of the saved
     index, range answers from the generated strings *)
  let pool, rcalls =
    Util.in_fork (fun () ->
        let index = Filename.concat dir "index.wt" in
        Wtrie.Static.save_file_exn wt index;
        let rng = Gen.rng ~seed 1 in
        let pool = Gen.pool ~rng ~data ~index cfg.pool in
        (pool, calls ~rng ~data cfg))
  in
  let pass ~traced cfg =
    Spans.on := traced;
    run_pass cfg ~seed ~wt ~pool ~rcalls
  in
  let untraced = pass ~traced:false (if traced then half cfg else cfg) in
  let peak_mb = Util.peak_rss_mb () in
  let st = Wt_core.Flat_wt.stats wt in
  Out.metric ~n:setup_reps Out.E2e "setup_s" "s" setup_s;
  Out.emit_pass untraced.e2e;
  Out.metric Out.E2e "space_x_lb" "x" (Gen.space_x_lb st);
  Out.metric Out.E2e "peak_rss_mb" "MB" peak_mb;
  let traced_pass =
    if not traced then None
    else begin
      Wtrie.Probe.enable ();
      Wtrie.Runtime.start ();
      let p = pass ~traced:true (half cfg) in
      layer_metrics p ~st;
      Out.overhead ~untraced:untraced.e2e ~traced:p.e2e;
      Some p
    end
  in
  let passes = untraced :: Option.to_list traced_pass in
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  (sum (fun p -> p.attempted), sum (fun p -> p.wrong), sum (fun p -> p.wrong))
