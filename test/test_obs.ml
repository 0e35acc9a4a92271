(* Observability layer: counter exactness on the paper's Figure 2 trie,
   JSON round-trips of reports, and the zero-cost-when-disabled
   contract (disabled probes leave results identical and counters
   untouched). *)

module Bitstring = Wt_strings.Bitstring
module Wavelet_trie = Wt_core.Wavelet_trie
module Naive = Wt_core.Indexed_sequence.Naive
module Probe = Wt_obs.Probe
module Metric = Wt_obs.Metric
module Histogram = Wt_obs.Histogram
module Json = Wt_obs.Json
module Report = Wt_obs.Report

let check_int = Alcotest.(check int)

let fig2_strings = [ "0001"; "0011"; "0100"; "00100"; "0100"; "00100"; "0100" ]
let fig2 () = Wavelet_trie.of_list (List.map Bitstring.of_string fig2_strings)
let bs = Bitstring.of_string

(* Run [f] with probes enabled and a clean slate; always disable after. *)
let probed f =
  Probe.reset ();
  Probe.enable ();
  Fun.protect ~finally:(fun () ->
      Probe.disable ();
      Probe.reset ())
    f

(* ------------------------------------------------------------------ *)
(* (a) Counter exactness: a scripted query sequence over the Figure 2
   trie, with every expected count derived by hand from the paper's
   structure (root β=0010101; see test_structure.ml for the dump). *)

let test_counters_exact () =
  let wt = fig2 () in
  probed (fun () ->
      (* access 0 = 0001: root + one internal + leaf, |s| bits, 2 bv reads *)
      Alcotest.(check string) "access" "0001" (Bitstring.to_string (Wavelet_trie.access wt 0));
      check_int "access: wt_access" 1 (Probe.counter Wt_access);
      check_int "access: nodes" 3 (Probe.counter Wt_nodes_visited);
      check_int "access: bits" 4 (Probe.counter Wt_bits_consumed);
      check_int "access: rrr_access" 2 (Probe.counter Rrr_access);

      (* rank 0100 @7 = 3: descend root (lcp 1 + branch bit), land on the
         00-leaf (lcp 2); one bitvector rank at the root *)
      check_int "rank result" 3 (Wavelet_trie.rank wt (bs "0100") 7);
      check_int "rank: wt_rank" 1 (Probe.counter Wt_rank);
      check_int "rank: nodes" (3 + 2) (Probe.counter Wt_nodes_visited);
      check_int "rank: bits" (4 + 4) (Probe.counter Wt_bits_consumed);
      check_int "rank: rrr_rank" 1 (Probe.counter Rrr_rank);

      (* select 00100 #1 = position 5: 4-node trail, |s|=5 bits, one
         bitvector select per trail edge (3) *)
      Alcotest.(check (option int)) "select result" (Some 5)
        (Wavelet_trie.select wt (bs "00100") 1);
      check_int "select: wt_select" 1 (Probe.counter Wt_select);
      check_int "select: nodes" (5 + 4) (Probe.counter Wt_nodes_visited);
      check_int "select: bits" (8 + 5) (Probe.counter Wt_bits_consumed);
      check_int "select: rrr_select" 3 (Probe.counter Rrr_select);

      (* rank_prefix 01 @7 = 3: root consumes lcp 1 + branch, the 00-leaf
         is reached with the prefix exhausted (no bits recorded there) *)
      check_int "rank_prefix result" 3 (Wavelet_trie.rank_prefix wt (bs "01") 7);
      check_int "rank_prefix: wt_rank_prefix" 1 (Probe.counter Wt_rank_prefix);
      check_int "rank_prefix: nodes" (9 + 2) (Probe.counter Wt_nodes_visited);
      check_int "rank_prefix: bits" (13 + 2) (Probe.counter Wt_bits_consumed);
      check_int "rank_prefix: rrr_rank" 2 (Probe.counter Rrr_rank);

      (* select_prefix 1 #0 = None: mismatch at the root, 0 bits *)
      Alcotest.(check (option int)) "select_prefix result" None
        (Wavelet_trie.select_prefix wt (bs "1") 0);
      check_int "select_prefix: wt_select_prefix" 1 (Probe.counter Wt_select_prefix);
      check_int "select_prefix: nodes" (11 + 1) (Probe.counter Wt_nodes_visited);
      check_int "select_prefix: bits" 15 (Probe.counter Wt_bits_consumed);
      check_int "select_prefix: rrr_select" 3 (Probe.counter Rrr_select))

(* Mutation counters on the dynamic variant: Figure 3's split, then the
   inverse merge. *)
let test_mutation_counters () =
  let dwt = Wt_core.Dynamic_wt.of_array (Array.of_list (List.map bs fig2_strings)) in
  probed (fun () ->
      Wt_core.Dynamic_wt.insert dwt 3 (bs "0110");
      check_int "insert counted" 1 (Probe.counter Wt_insert);
      check_int "figure-3 insert splits one node" 1 (Probe.counter Wt_node_split);
      Wt_core.Dynamic_wt.delete dwt 3;
      check_int "delete counted" 1 (Probe.counter Wt_delete);
      check_int "deleting the only 0110 merges the node back" 1
        (Probe.counter Wt_node_merge))

(* ------------------------------------------------------------------ *)
(* (b) JSON round-trips, with deterministic latencies via the injected
   clock: every clock read advances it by exactly 1000 "ns". *)

let test_report_roundtrip () =
  let ticks = ref 0 in
  Probe.set_clock (fun () ->
      ticks := !ticks + 1000;
      !ticks);
  Fun.protect ~finally:(fun () -> Probe.set_clock Probe.default_clock) @@ fun () ->
  probed (fun () ->
      let wt = Wtrie.Static.of_list [ "a"; "b"; "a"; "ab" ] in
      check_int "count" 2 (Wtrie.Static.count wt "a");
      (* the count is a batch of one through the engine, which times
         every trie level it walks: one level per node visited *)
      let levels = Probe.counter Wt_nodes_visited in
      check_int "one level timing per node" levels (Probe.histogram Exec_level).Histogram.count;
      ignore (Wtrie.Static.access wt ~pos:3);
      ignore (Wtrie.Static.select wt "b" ~count:0);
      let report =
        Report.capture
          ~space:
            [ Wt_core.Stats.to_breakdown ~variant:"static" (Wt_core.Flat_wt.stats wt) ]
          ()
      in
      (* deterministic clock: the [wt_rank] section spans two clock
         reads per level timing plus its own closing read, 1000 ns
         each, and lands in the power-of-two bucket below that *)
      let rank_ns = 1000 * ((2 * levels) + 1) in
      let lat = List.find (fun l -> l.Report.op = "wt_rank") report.Report.latencies in
      check_int "lat count" 1 lat.Report.count;
      check_int "lat p50 lower bound" (1 lsl Histogram.bucket_of rank_ns) lat.Report.p50_ns;
      check_int "lat max exact" rank_ns lat.Report.max_ns;
      (* to_json -> of_json -> to_json is the identity on the JSON form *)
      let j1 = Report.to_json_string report in
      (match Report.of_json_string j1 with
      | Error e -> Alcotest.failf "report did not parse back: %s" e
      | Ok r2 ->
          Alcotest.(check string) "round-trip" j1 (Report.to_json_string r2));
      (* and the parser survives the pretty-printed form too *)
      match Json.of_string (Json.to_string_pretty (Report.to_json report)) with
      | Error e -> Alcotest.failf "pretty form did not parse: %s" e
      | Ok j -> Alcotest.(check string) "pretty round-trip" j1 (Json.to_string j))

let test_json_corners () =
  let cases =
    [
      {|{"a": [1, -2.5, true, null, "x\n\"y\""], "b": {}}|};
      {|[]|};
      {|3.0|};
      {|"A"|};
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error e -> Alcotest.failf "%s did not parse: %s" s e
      | Ok j -> (
          (* canonical form must itself round-trip *)
          let c = Json.to_string j in
          match Json.of_string c with
          | Error e -> Alcotest.failf "canonical %s did not re-parse: %s" c e
          | Ok j' -> Alcotest.(check string) "stable" c (Json.to_string j')))
    cases;
  (match Json.of_string "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted");
  (* integral floats keep a float representation *)
  Alcotest.(check string) "float repr" "3.0" (Json.to_string (Json.Float 3.))

(* ------------------------------------------------------------------ *)
(* (c) Disabled probes: counters stay zero and results match the oracle
   exactly (the seed behaviour). *)

let test_disabled_zero_cost () =
  Probe.disable ();
  Probe.reset ();
  let strings =
    Array.init 200 (fun i -> Printf.sprintf "host-%d.net/p/%d" (i mod 7) (i mod 31))
  in
  let encoded = Array.map Wt_strings.Binarize.of_bytes strings in
  let naive = Naive.of_array encoded in
  let check_variant (type a)
      (module V : Wt_core.Indexed_sequence.STRING_API with type t = a) name (wt : a) =
    for pos = 0 to Array.length strings - 1 do
      Alcotest.(check string)
        (Printf.sprintf "%s access %d" name pos)
        (Wt_strings.Binarize.to_bytes (Naive.access naive pos))
        (Result.get_ok (V.access wt ~pos))
    done;
    Array.iteri
      (fun i s ->
        let e = Wt_strings.Binarize.of_bytes s in
        check_int
          (Printf.sprintf "%s rank %d" name i)
          (Naive.rank naive e (i + 1))
          (Result.get_ok (V.rank wt s ~pos:(i + 1)));
        Alcotest.(check (option int))
          (Printf.sprintf "%s select %d" name i)
          (Naive.select naive e (i mod 3))
          (Result.to_option (V.select wt s ~count:(i mod 3))))
      strings;
    (* the batch engine with probes off: results still match the scalar
       API, and (checked below) no counter moves *)
    let ops =
      Array.init 64 (fun i ->
          match i mod 3 with
          | 0 -> Wt_core.Indexed_sequence.Access { pos = i }
          | 1 -> Wt_core.Indexed_sequence.Rank { s = strings.(i); pos = i + 1 }
          | _ ->
              Wt_core.Indexed_sequence.Select { s = strings.(i); count = i mod 5 })
    in
    Array.iteri
      (fun i r ->
        let scalar =
          match ops.(i) with
          | Wt_core.Indexed_sequence.Access { pos } ->
              Result.map (fun s -> Wt_core.Indexed_sequence.Str s) (V.access wt ~pos)
          | Wt_core.Indexed_sequence.Rank { s; pos } ->
              Result.map (fun c -> Wt_core.Indexed_sequence.Int c) (V.rank wt s ~pos)
          | Wt_core.Indexed_sequence.Select { s; count } ->
              Result.map (fun p -> Wt_core.Indexed_sequence.Int p) (V.select wt s ~count)
          | _ -> assert false
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s batch[%d] = scalar" name i)
          true (r = scalar))
      (V.query_batch wt ops)
  in
  check_variant (module Wtrie.Static) "static" (Wtrie.Static.of_array strings);
  check_variant (module Wtrie.Append) "append" (Wtrie.Append.of_array strings);
  check_variant (module Wtrie.Dynamic) "dynamic" (Wtrie.Dynamic.of_array strings);
  Array.iter
    (fun m -> check_int (Metric.name m ^ " untouched") 0 (Probe.counter m))
    Metric.all;
  Alcotest.(check (list (pair string int))) "no counters" [] (Probe.counter_list ());
  Alcotest.(check int) "no latencies" 0 (List.length (Probe.latency_list ()))

(* Enabling probes must not change any result either. *)
let test_enabled_same_results () =
  let strings = Array.init 64 (fun i -> Printf.sprintf "s/%d" (i mod 10)) in
  let wt = Wtrie.Static.of_array strings in
  let run () =
    Array.to_list
      (Array.mapi
         (fun i s ->
           ( Wtrie.Static.access wt ~pos:i,
             Wtrie.Static.count wt s,
             Wtrie.Static.select wt s ~count:0 ))
         strings)
  in
  let off = run () in
  let on = probed run in
  Alcotest.(check bool) "probe state does not affect results" true (off = on)

(* ------------------------------------------------------------------ *)
(* (d) The live telemetry plane: exposition shape, snapshot deltas, the
   runtime-events bridge, scraping while other domains record, and the
   docs-sync lint keeping docs/observability.md's metric table honest. *)

module Export = Wt_obs.Export
module Runtime = Wt_obs.Runtime

let index_of s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go from

let contains s sub = index_of s sub 0 >= 0

(* Every non-comment, non-empty line must be "name[{labels}] value"
   with a wtrie_ name and a numeric value — the property any Prometheus
   scraper needs from the page. *)
let check_exposition_parses page =
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "unparseable exposition line: %s" line
        | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            if float_of_string_opt v = None then
              Alcotest.failf "non-numeric value in exposition line: %s" line;
            if not (String.length line > 6 && String.sub line 0 6 = "wtrie_") then
              Alcotest.failf "exposition series not under wtrie_: %s" line
      end)
    (String.split_on_char '\n' page)

(* Value of counter [name] on an exposition page, or -1 if absent. *)
let exposition_counter page name =
  let prefix = "wtrie_" ^ name ^ "_total " in
  let p = String.length prefix in
  List.fold_left
    (fun acc l ->
      if acc >= 0 then acc
      else if String.length l > p && String.sub l 0 p = prefix then
        Option.value ~default:(-1) (int_of_string_opt (String.sub l p (String.length l - p)))
      else acc)
    (-1)
    (String.split_on_char '\n' page)

let test_prometheus_exposition () =
  let ticks = ref 0 in
  Probe.set_clock (fun () ->
      ticks := !ticks + 1000;
      !ticks);
  Fun.protect ~finally:(fun () -> Probe.set_clock Probe.default_clock) @@ fun () ->
  probed (fun () ->
      Probe.hit Metric.Wt_rank;
      Probe.time Metric.Wt_rank (fun () -> ());
      Export.register_gauge "test_gauge" (fun () -> 42.);
      Fun.protect ~finally:(fun () -> Export.unregister_gauge "test_gauge")
      @@ fun () ->
      let page = Export.prometheus () in
      check_exposition_parses page;
      (* zero-filled: an untouched counter still has a series *)
      Alcotest.(check bool) "untouched series exists" true
        (contains page "wtrie_rrr_select_total 0");
      check_int "hit counter" 1 (exposition_counter page "wt_rank");
      (* 1000 injected ns land in bucket [512, 1024): upper bound 1024 *)
      Alcotest.(check bool) "histogram bucket" true
        (contains page "wtrie_wt_rank_ns_bucket{le=\"1024\"} 1");
      Alcotest.(check bool) "histogram +Inf" true
        (contains page "wtrie_wt_rank_ns_bucket{le=\"+Inf\"} 1");
      Alcotest.(check bool) "histogram sum from mean*count" true
        (contains page "wtrie_wt_rank_ns_sum 1000");
      Alcotest.(check bool) "histogram count" true
        (contains page "wtrie_wt_rank_ns_count 1");
      Alcotest.(check bool) "gauge sampled" true (contains page "wtrie_test_gauge 42");
      (* empty histograms stay off the page *)
      Alcotest.(check bool) "empty histogram skipped" false
        (contains page "wtrie_rrr_select_ns_"))

let test_export_delta () =
  probed (fun () ->
      Probe.hit Metric.Wt_rank;
      Probe.record Metric.Wt_rank 0 |> ignore;
      let a = Export.capture () in
      Probe.hit Metric.Wt_rank;
      Probe.hit Metric.Wt_rank;
      Probe.duration Metric.Exec_level 1000;
      let b = Export.capture () in
      let d = Export.delta a b in
      let idx m = Metric.index m in
      check_int "counter delta" 2 d.Export.counters.(idx Metric.Wt_rank);
      check_int "untouched delta" 0 d.Export.counters.(idx Metric.Rrr_rank);
      let h = d.Export.hists.(idx Metric.Exec_level) in
      check_int "hist delta count" 1 h.Histogram.count;
      check_int "hist delta p50" 512 h.Histogram.p50_ns)

let test_runtime_bridge () =
  probed (fun () ->
      Runtime.start ();
      Alcotest.(check bool) "bridge started" true (Runtime.started ());
      (* force collections and drain the ring until the pauses appear *)
      let tries = ref 0 in
      (* pauses are histogram samples ([Probe.duration]), not counters *)
      let moved () =
        (Probe.histogram Metric.Rt_gc_minor).Histogram.count
        + (Probe.histogram Metric.Rt_gc_major).Histogram.count
        > 0
      in
      while (not (moved ())) && !tries < 50 do
        incr tries;
        ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> string_of_int i)));
        Gc.minor ();
        Gc.full_major ();
        ignore (Runtime.poll ())
      done;
      Alcotest.(check bool) "gc pauses observed" true (moved ());
      Alcotest.(check bool) "gc time accumulated" true
        (Probe.counter Metric.Rt_gc_ns > 0);
      Alcotest.(check bool) "per-domain gc time" true (Runtime.total_gc_ns () > 0))

(* Two domains hammer the recorder while the main domain scrapes: every
   page parses and the scraped counter never goes backwards. *)
let test_concurrent_scrape () =
  probed (fun () ->
      let per_domain = 200_000 in
      let hammer () =
        for i = 1 to per_domain do
          Probe.hit Metric.Wt_rank;
          Probe.duration Metric.Exec_level (i land 0xfff)
        done
      in
      let d1 = Domain.spawn hammer and d2 = Domain.spawn hammer in
      let last = ref (-1) in
      for _ = 1 to 50 do
        let page = Export.prometheus () in
        check_exposition_parses page;
        let c = exposition_counter page "wt_rank" in
        Alcotest.(check bool) "counter present" true (c >= 0);
        Alcotest.(check bool)
          (Printf.sprintf "counter monotone (%d -> %d)" !last c)
          true (c >= !last);
        last := c
      done;
      Domain.join d1;
      Domain.join d2;
      check_int "all hits survived the scrapes" (2 * per_domain)
        (Probe.counter Metric.Wt_rank);
      let h = Probe.histogram Metric.Exec_level in
      check_int "all samples survived the scrapes" (2 * per_domain) h.Histogram.count)

(* The docs table between the metrics:begin/end markers must list
   exactly the metric universe — missing and stale rows are named. *)
let test_docs_sync () =
  (* dune runtest runs in _build/default/test; dune exec may run from
     the workspace root — accept either *)
  let path =
    if Sys.file_exists "../docs/observability.md" then "../docs/observability.md"
    else "docs/observability.md"
  in
  let doc =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let b = index_of doc "<!-- metrics:begin -->" 0 in
  let e = index_of doc "<!-- metrics:end -->" 0 in
  if b < 0 || e < 0 || e <= b then
    Alcotest.fail "docs/observability.md: metrics:begin/end markers missing";
  let table = String.sub doc b (e - b) in
  let documented =
    String.split_on_char '\n' table
    |> List.filter_map (fun line ->
           if String.length line > 3 && String.sub line 0 3 = "| `" then begin
             match String.index_from_opt line 3 '`' with
             | Some j -> Some (String.sub line 3 (j - 3))
             | None -> None
           end
           else None)
  in
  let universe = Array.to_list (Array.map Metric.name Metric.all) in
  let missing = List.filter (fun n -> not (List.mem n documented)) universe in
  let stale = List.filter (fun n -> not (List.mem n universe)) documented in
  if missing <> [] || stale <> [] then
    Alcotest.failf
      "docs/observability.md metric table out of sync:%s%s"
      (if missing = [] then ""
       else "\n  missing rows (declared but undocumented): " ^ String.concat ", " missing)
      (if stale = [] then ""
       else "\n  stale rows (documented but not declared): " ^ String.concat ", " stale);
  check_int "universe size" Metric.count (List.length documented)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 1000; 1_000_000 ];
  let s = Histogram.snapshot h in
  check_int "count" 5 s.Histogram.count;
  check_int "p50 bucket lower bound" 2 s.Histogram.p50_ns;
  check_int "max exact" 1_000_000 s.Histogram.max_ns;
  Histogram.reset h;
  check_int "reset" 0 (Histogram.snapshot h).Histogram.count

let () =
  Alcotest.run "wt_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "figure-2 script is counted exactly" `Quick
            test_counters_exact;
          Alcotest.test_case "mutations count splits and merges" `Quick
            test_mutation_counters;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round-trip with injected clock" `Quick
            test_report_roundtrip;
          Alcotest.test_case "json corner cases" `Quick test_json_corners;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "disabled probes: oracle-identical, zero counters"
            `Quick test_disabled_zero_cost;
          Alcotest.test_case "enabled probes: identical results" `Quick
            test_enabled_same_results;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus exposition shape" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "snapshot deltas" `Quick test_export_delta;
          Alcotest.test_case "runtime-events bridge sees gc pauses" `Quick
            test_runtime_bridge;
        ] );
      ( "concurrent-scrape",
        [
          Alcotest.test_case "scrape under recording load parses, monotone"
            `Quick test_concurrent_scrape;
        ] );
      ( "docs-sync",
        [
          Alcotest.test_case "metric table matches the declared universe" `Quick
            test_docs_sync;
        ] );
    ]
