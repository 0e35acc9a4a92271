(* Benchmark harness reproducing every table and figure of
   "The Wavelet Trie" (Grossi & Ottaviano, PODS 2012).

   The paper is theoretical: its Table 1 gives asymptotic time/space
   bounds and Figures 1-3 are worked examples.  Accordingly each group
   below either (a) measures the empirical scaling shape predicted by a
   Table 1 row, (b) reports measured space against the information-
   theoretic lower bound LB = LT + nH0, or (c) re-derives a figure's
   structure.  Experiment ids - T1.x, Fx, S5/S6, A.x - match DESIGN.md.

   Per-operation micro-benchmarks use Bechamel (one Test.make per
   operation and input size, grouped per experiment); bulk costs
   (construction, Init, appends) use wall-clock batch timing. *)

open Bechamel
open Toolkit

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Wavelet_trie = Wt_core.Wavelet_trie
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
module Balanced = Wt_core.Balanced
module Range = Wt_core.Range
module Stats = Wt_core.Stats
module Naive = Wt_core.Indexed_sequence.Naive
module Urls = Wt_workload.Urls
module Columns = Wt_workload.Columns
module WTree = Wt_wavelet_tree.Wavelet_tree
module Huffman_wt = Wt_wavelet_tree.Huffman_wt
module Dyn_wavelet_tree = Wt_wavelet_tree.Dyn_wavelet_tree
module Dyn_rle = Wt_bitvector.Dyn_rle
module Dyn_gap = Wt_bitvector.Dyn_gap

let quota =
  match Sys.getenv_opt "BENCH_QUOTA_MS" with
  | Some s -> float_of_string s /. 1000.
  | None -> 0.25

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing: run a grouped test, return (name, ns/op) sorted. *)

let run_group (test : Test.t) =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
      in
      (name, ns) :: acc)
    res []
  |> List.sort compare

let print_group header note test =
  Printf.printf "\n-- %s\n" header;
  if note <> "" then Printf.printf "   %s\n" note;
  List.iter
    (fun (name, ns) -> Printf.printf "   %-46s %10.0f ns/op\n" name ns)
    (run_group test);
  flush stdout

let now () = Unix.gettimeofday ()

let time_batch f =
  let t0 = now () in
  f ();
  now () -. t0

(* Words allocated so far on this domain, minor and major, each counted
   once.  Allocation does not depend on the machine's speed or load. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The words [f] allocates.  Between minor collections OCaml 5's
   minor-word counter lags the allocation, while a collection books it
   exactly, so the count is bracketed by two. *)
let words_of f =
  Gc.minor ();
  let w0 = allocated_words () in
  let r = f () in
  Gc.minor ();
  (r, allocated_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Shared workloads *)

let url_sequence ~seed n =
  let g = Urls.create ~seed () in
  Urls.sequence g n

let sizes = [ 4096; 16384; 65536 ]

let pick rng arr = arr.(Xoshiro.int rng (Array.length arr))

(* ------------------------------------------------------------------ *)
(* T1 query rows: one grouped bench per variant; names embed n so the
   scaling shape is visible in one table. *)

type 'a variant_ops = {
  v_build : Bitstring.t array -> 'a;
  v_access : 'a -> int -> Bitstring.t;
  v_rank : 'a -> Bitstring.t -> int -> int;
  v_select : 'a -> Bitstring.t -> int -> int option;
  v_rank_prefix : 'a -> Bitstring.t -> int -> int;
  v_select_prefix : 'a -> Bitstring.t -> int -> int option;
}

let static_ops =
  {
    v_build = Wavelet_trie.of_array;
    v_access = Wavelet_trie.access;
    v_rank = Wavelet_trie.rank;
    v_select = Wavelet_trie.select;
    v_rank_prefix = Wavelet_trie.rank_prefix;
    v_select_prefix = Wavelet_trie.select_prefix;
  }

let append_ops =
  {
    v_build = Append_wt.of_array;
    v_access = Append_wt.access;
    v_rank = Append_wt.rank;
    v_select = Append_wt.select;
    v_rank_prefix = Append_wt.rank_prefix;
    v_select_prefix = Append_wt.select_prefix;
  }

let dynamic_ops =
  {
    v_build = Dynamic_wt.of_array;
    v_access = Dynamic_wt.access;
    v_rank = Dynamic_wt.rank;
    v_select = Dynamic_wt.select;
    v_rank_prefix = Dynamic_wt.rank_prefix;
    v_select_prefix = Dynamic_wt.select_prefix;
  }

let query_tests (type a) (ops : a variant_ops) =
  List.concat_map
    (fun n ->
      let seq = url_sequence ~seed:42 n in
      let wt = ops.v_build seq in
      let rng = Xoshiro.create 7 in
      let g = Urls.create ~seed:42 () in
      let prefixes = Array.init (Urls.host_count g) (Urls.host_prefix g) in
      [
        Test.make
          ~name:(Printf.sprintf "access       n=%6d" n)
          (Staged.stage (fun () -> ignore (ops.v_access wt (Xoshiro.int rng n))));
        Test.make
          ~name:(Printf.sprintf "rank         n=%6d" n)
          (Staged.stage (fun () ->
               ignore (ops.v_rank wt (pick rng seq) (Xoshiro.int rng (n + 1)))));
        Test.make
          ~name:(Printf.sprintf "select       n=%6d" n)
          (Staged.stage (fun () ->
               ignore (ops.v_select wt (pick rng seq) (Xoshiro.int rng 8))));
        Test.make
          ~name:(Printf.sprintf "rank_prefix  n=%6d" n)
          (Staged.stage (fun () ->
               ignore (ops.v_rank_prefix wt (pick rng prefixes) (Xoshiro.int rng (n + 1)))));
        Test.make
          ~name:(Printf.sprintf "selectprefix n=%6d" n)
          (Staged.stage (fun () ->
               ignore (ops.v_select_prefix wt (pick rng prefixes) (Xoshiro.int rng 8))));
      ])
    sizes

let t1_static_query () =
  print_group "T1.static.query — static Wavelet Trie, URL log"
    "Paper: O(|s| + h_s), constant per bitvector op => flat in n."
    (Test.make_grouped ~name:"static" (query_tests static_ops))

let t1_append_query () =
  print_group "T1.append.query — append-only Wavelet Trie, URL log"
    "Paper: O(|s| + h_s), same shape as static."
    (Test.make_grouped ~name:"append-only" (query_tests append_ops))

let t1_dynamic_query () =
  print_group "T1.dyn.query — fully-dynamic Wavelet Trie, URL log"
    "Paper: O(|s| + h_s log n) => slow logarithmic growth with n."
    (Test.make_grouped ~name:"dynamic" (query_tests dynamic_ops))

(* T1 append column: amortized append cost as the sequence grows. *)
let t1_append_append () =
  Printf.printf
    "\n-- T1.append.append — Append(s) amortized cost while streaming a log\n";
  Printf.printf "   Paper: O(|s| + h_s) independent of n (Theorem 4.3).\n";
  let g = Urls.create ~seed:17 () in
  let wt = Append_wt.create () in
  let batch = 16384 in
  let lat = Array.make (8 * batch) 0. in
  let li = ref 0 in
  for step = 1 to 8 do
    let strings = Array.init batch (fun _ -> Urls.next_encoded g) in
    let dt =
      time_batch (fun () ->
          Array.iter
            (fun s ->
              let t0 = now () in
              Append_wt.append wt s;
              lat.(!li) <- now () -. t0;
              incr li)
            strings)
    in
    Printf.printf "   n=%7d .. %7d: %8.0f ns/append\n"
      ((step - 1) * batch) (step * batch)
      (dt *. 1e9 /. float_of_int batch)
  done;
  Array.sort compare lat;
  let pct p = lat.(int_of_float (p *. float_of_int (Array.length lat - 1))) *. 1e9 in
  Printf.printf
    "   latency percentiles: p50 %.0f ns  p99 %.0f ns  p99.9 %.0f ns  max %.0f ns\n"
    (pct 0.50) (pct 0.99) (pct 0.999) (pct 1.0);
  Printf.printf
    "   (segment freezing is de-amortized: two blocks per append, then one append\n\
    \   writes the blob and the next makes its view; the longest spikes are GC slices)\n";
  flush stdout

(* T1 insert/delete columns. *)
let t1_dynamic_updates () =
  Printf.printf "\n-- T1.dyn.insert / T1.dyn.delete — random-position updates\n";
  Printf.printf
    "   Paper: O(|s| + h_s log n); unseen strings also pay a node split (Init is O(log n)).\n";
  List.iter
    (fun n ->
      let seq = url_sequence ~seed:5 n in
      let wt = Dynamic_wt.of_array seq in
      let rng = Xoshiro.create 23 in
      (* mixed inserts: half existing strings, half fresh *)
      let batch = 2000 in
      let fresh_tag = ref 0 in
      let dt_ins =
        time_batch (fun () ->
            for _ = 1 to batch do
              let s =
                if Xoshiro.bool rng then pick rng seq
                else begin
                  incr fresh_tag;
                  Binarize.of_bytes (Printf.sprintf "fresh-%d-%d" n !fresh_tag)
                end
              in
              Dynamic_wt.insert wt (Xoshiro.int rng (Dynamic_wt.length wt + 1)) s
            done)
      in
      let dt_del =
        time_batch (fun () ->
            for _ = 1 to batch do
              Dynamic_wt.delete wt (Xoshiro.int rng (Dynamic_wt.length wt))
            done)
      in
      Printf.printf "   n=%7d: insert %8.0f ns/op   delete %8.0f ns/op\n" n
        (dt_ins *. 1e9 /. float_of_int batch)
        (dt_del *. 1e9 /. float_of_int batch))
    sizes;
  flush stdout

(* Construction throughput (not in Table 1, but the practical companion
   to the Append column): bulk of_array per variant. *)
let t1_build () =
  Printf.printf "\n-- T1.build — construction throughput (bulk of_array)\n";
  let n = 65536 in
  let seq = url_sequence ~seed:42 n in
  let per name f =
    let dt = time_batch (fun () -> ignore (f seq)) in
    Printf.printf "   %-12s %7.0f ns/string  (%.2fs total)\n" name
      (dt *. 1e9 /. float_of_int n) dt
  in
  per "static" Wavelet_trie.of_array;
  per "flat arena" Wt_core.Flat_wt.of_array;
  per "append-only" Append_wt.of_array;
  per "dynamic" Dynamic_wt.of_array;
  per "quad" Wt_wavelet_tree.Quad_wt.of_array;
  (* incremental alternative for the dynamic variant *)
  let dt =
    time_batch (fun () ->
        let wt = Dynamic_wt.create () in
        Array.iter (Dynamic_wt.append wt) seq)
  in
  Printf.printf "   %-12s %7.0f ns/string  (one append at a time)\n" "dynamic-inc"
    (dt *. 1e9 /. float_of_int n);
  flush stdout

(* ------------------------------------------------------------------ *)
(* T1.space — measured space vs LB for each variant and the naive rep. *)

let print_stats name (st : Stats.t) =
  let lb = Stats.lower_bound st in
  Printf.printf
    "   %-12s total %9d bits  = %5.2fx LB   (LT %8.0f + nH0 %8.0f; h~=%5.2f, |Sset|=%d)\n"
    name st.total_bits
    (float_of_int st.total_bits /. lb)
    st.trie_lb_bits st.seq_h0_bits st.avg_height st.distinct

let t1_space () =
  Printf.printf "\n-- T1.space — space vs information-theoretic lower bound\n";
  Printf.printf
    "   Paper: static = LB + o(h~ n); append-only adds PT = O(|Sset| w); dynamic adds O(nH0).\n";
  let report title seq =
    Printf.printf "   [%s] n=%d\n" title (Array.length seq);
    let st = Wavelet_trie.stats (Wavelet_trie.of_array seq) in
    print_stats "static" st;
    print_stats "flat arena" (Wt_core.Flat_wt.stats (Wt_core.Flat_wt.of_array seq));
    print_stats "append-only" (Append_wt.stats (Append_wt.of_array seq));
    print_stats "dynamic" (Dynamic_wt.stats (Dynamic_wt.of_array seq));
    let naive = Naive.of_array seq in
    Printf.printf
      "   %-12s total %9d bits  = %5.2fx LB   (array of strings + pointers)\n" "naive"
      (Naive.space_bits naive)
      (float_of_int (Naive.space_bits naive) /. Stats.lower_bound st)
  in
  report "URL access log" (url_sequence ~seed:42 65536);
  let col, _ = Columns.categorical ~cardinality:64 65536 in
  report "categorical column (64 values)" col;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Figures: recompute and verify the golden structures. *)

let f_figures () =
  Printf.printf "\n-- F1/F2/F3 — figure reproductions (structural)\n";
  (* Figure 2 *)
  let fig2 =
    List.map Bitstring.of_string
      [ "0001"; "0011"; "0100"; "00100"; "0100"; "00100"; "0100" ]
  in
  let wt = Wavelet_trie.of_list fig2 in
  let expected =
    [
      ("0", Some "0010101");
      ("", Some "0111");
      ("1", None);
      ("", Some "100");
      ("0", None);
      ("", None);
      ("00", None);
    ]
  in
  Printf.printf "   F2 wavelet trie of <0001,0011,0100,00100,0100,00100,0100>: %s\n"
    (if Wavelet_trie.dump wt = expected then "matches the paper" else "MISMATCH");
  (* Figure 1 *)
  let code = function
    | 'a' -> "00"
    | 'b' -> "01"
    | 'c' -> "10"
    | 'd' -> "110"
    | 'r' -> "111"
    | _ -> assert false
  in
  let seq =
    List.map
      (fun c -> Bitstring.of_string (code c))
      (List.init 11 (String.get "abracadabra"))
  in
  let wt1 = Wavelet_trie.of_list seq in
  let betas = List.filter_map snd (Wavelet_trie.dump wt1) in
  Printf.printf "   F1 wavelet tree of abracadabra: betas %s => %s\n"
    (String.concat "," betas)
    (if betas = [ "00101010010"; "0100010"; "1011"; "101" ] then "matches the paper"
     else "MISMATCH");
  (* Figure 3 *)
  let dwt = Dynamic_wt.of_array (Array.of_list fig2) in
  Dynamic_wt.insert dwt 3 (Bitstring.of_string "0110");
  let split_ok =
    Dynamic_wt.dump dwt
    = [
        ("0", Some "00110101");
        ("", Some "0111");
        ("1", None);
        ("", Some "100");
        ("0", None);
        ("", None);
        ("", Some "0100");
        ("0", None);
        ("0", None);
      ]
  in
  Printf.printf "   F3 node split on inserting 0110: %s\n"
    (if split_ok then "new internal node with constant bitvector, as in the paper"
     else "MISMATCH");
  flush stdout

(* ------------------------------------------------------------------ *)
(* S5.range — range algorithms scale with output, not n. *)

let s5_range () =
  Printf.printf "\n-- S5.range — Section 5 range algorithms\n";
  Printf.printf
    "   Paper: costs depend on the range/output (distinct values, majority path), not on n.\n";
  List.iter
    (fun n ->
      let seq = url_sequence ~seed:42 n in
      let wt = Wt_core.Flat_wt.of_array seq in
      let rng = Xoshiro.create 31 in
      let width = 1024 in
      let batch = 200 in
      let bench name f =
        let dt =
          time_batch (fun () ->
              for _ = 1 to batch do
                let lo = Xoshiro.int rng (n - width) in
                f ~lo ~hi:(lo + width)
              done)
        in
        Printf.printf "   n=%7d %-28s %9.1f us/query\n" n name
          (dt *. 1e6 /. float_of_int batch)
      in
      bench "distinct (range 1024)" (fun ~lo ~hi ->
          ignore (Range.Static.range_distinct wt ~lo ~hi));
      bench "majority (range 1024)" (fun ~lo ~hi -> ignore (Range.Static.majority wt ~lo ~hi));
      bench "at_least 32 (range 1024)" (fun ~lo ~hi ->
          ignore (Range.Static.at_least wt ~lo ~hi ~threshold:32));
      bench "top_k 10 (range 1024)" (fun ~lo ~hi ->
          ignore (Range.Static.range_topk wt ~lo ~hi ~k:10));
      bench "iter_range (range 1024)" (fun ~lo ~hi ->
          Range.Static.iter_range wt ~lo ~hi (fun _ -> ())))
    [ 16384; 131072 ];
  flush stdout

(* ------------------------------------------------------------------ *)
(* S6.balanced — height independent of the universe. *)

let s6_balanced () =
  Printf.printf "\n-- S6.balanced — randomized Wavelet Tree on a 2^60 universe\n";
  Printf.printf
    "   Paper (Thm 6.2): height <= (alpha+2) log |Sigma| w.h.p., vs log u = 60 unhashed.\n";
  List.iter
    (fun sigma ->
      let heights = ref [] in
      for seed = 1 to 10 do
        let rng = Xoshiro.create (900 + seed) in
        let b = Balanced.create ~seed ~width:60 () in
        for _ = 1 to sigma do
          Balanced.append b (Xoshiro.next rng land Wt_bits.Broadword.mask 60)
        done;
        heights := Balanced.height b :: !heights
      done;
      let heights = List.sort compare !heights in
      let max_h = List.nth heights (List.length heights - 1) in
      let avg =
        float_of_int (List.fold_left ( + ) 0 heights)
        /. float_of_int (List.length heights)
      in
      let log_sigma = log (float_of_int sigma) /. log 2. in
      Printf.printf
        "   |Sigma|=%5d: height avg %5.1f max %2d   (log|Sigma|=%4.1f, 3log=%4.1f, log u=60)\n"
        sigma avg max_h log_sigma (3. *. log_sigma))
    [ 16; 256; 4096 ];
  (* per-op cost on the hashed trie *)
  let rng = Xoshiro.create 77 in
  let b = Balanced.create ~seed:3 ~width:60 () in
  let alphabet =
    Array.init 1024 (fun _ -> Xoshiro.next rng land Wt_bits.Broadword.mask 60)
  in
  for _ = 1 to 65536 do
    Balanced.append b (pick rng alphabet)
  done;
  print_group "S6.balanced — ops at n=65536, |Sigma|=1024, u=2^60"
    "access/rank/select in O(log u + h log n)."
    (Test.make_grouped ~name:"balanced"
       [
         Test.make ~name:"access"
           (Staged.stage (fun () -> ignore (Balanced.access b (Xoshiro.int rng 65536))));
         Test.make ~name:"rank"
           (Staged.stage (fun () ->
                ignore (Balanced.rank b (pick rng alphabet) (Xoshiro.int rng 65536))));
         Test.make ~name:"select"
           (Staged.stage (fun () ->
                ignore (Balanced.select b (pick rng alphabet) (Xoshiro.int rng 16))));
       ])

(* ------------------------------------------------------------------ *)
(* S7.cache — simulated cache behaviour (the paper's closing question). *)

let s7_cache () =
  Printf.printf "\n-- S7.cache — simulated LRU cache misses per query (Section 7 question)\n";
  Printf.printf
    "   Bit-buffer reads replayed through a set-associative LRU cache (Cache_sim);\n";
  Printf.printf
    "   counts cover bitvector/label storage only, so they are comparative, not absolute.\n";
  let n = 65536 in
  let seq = url_sequence ~seed:42 n in
  let b = Wavelet_trie.of_array seq in
  let q = Wt_wavelet_tree.Quad_wt.of_array seq in
  List.iter
    (fun (label, line_bytes, ways, sets) ->
      let measure name f =
        let cache = Wt_workload.Cache_sim.create ~line_bytes ~ways ~sets () in
        let rng = Xoshiro.create 99 in
        (* warm up *)
        let (), _ = Wt_workload.Cache_sim.run cache (fun () ->
            for _ = 1 to 500 do
              f (Xoshiro.int rng n)
            done)
        in
        Wt_workload.Cache_sim.reset_stats cache;
        let reps = 2000 in
        let (), m =
          Wt_workload.Cache_sim.run cache (fun () ->
              for _ = 1 to reps do
                f (Xoshiro.int rng n)
              done)
        in
        Printf.printf "   %-10s %-18s %7.1f misses/access (miss rate %4.1f%%)\n" label
          name
          (float_of_int m /. float_of_int reps)
          (100. *. Wt_workload.Cache_sim.miss_rate cache)
      in
      measure "binary trie" (fun pos -> ignore (Wavelet_trie.access b pos));
      measure "quad trie" (fun pos -> ignore (Wt_wavelet_tree.Quad_wt.access q pos)))
    [ ("L1-32K", 64, 8, 64); ("L2-1M", 64, 16, 1024) ];
  flush stdout

(* ------------------------------------------------------------------ *)
(* A.init — Remark 4.2: Init on RLE+gamma vs gap+delta. *)

let a_init () =
  Printf.printf "\n-- A.init — Remark 4.2: Init(1, n) cost by bitvector encoding\n";
  Printf.printf
    "   Paper: RLE+gamma supports Init in O(log n); gap encoding is Omega(n) words.\n";
  List.iter
    (fun n ->
      let reps = 200 in
      let dt_rle =
        time_batch (fun () ->
            for _ = 1 to reps do
              ignore (Dyn_rle.init true n)
            done)
      in
      let dt_gap = time_batch (fun () -> ignore (Dyn_gap.init true n)) in
      Printf.printf
        "   n=%8d: rle+gamma %8.2f us/init (%6d bits)   gap+delta %10.0f us/init (%9d bits)\n"
        n
        (dt_rle *. 1e6 /. float_of_int reps)
        (Dyn_rle.space_bits (Dyn_rle.init true n))
        (dt_gap *. 1e6)
        (Dyn_gap.space_bits (Dyn_gap.init true n)))
    [ 10_000; 100_000; 1_000_000 ];
  flush stdout

(* ------------------------------------------------------------------ *)
(* A.rrr — RRR vs plain bitvectors in a classic wavelet tree. *)

let a_rrr () =
  Printf.printf "\n-- A.rrr — bitvector choice: RRR (compressed) vs plain\n";
  let rng = Xoshiro.create 3 in
  let sigma = 64 in
  let zipf = Wt_workload.Zipf.create ~s:1.3 sigma in
  let n = 262144 in
  let a = Array.init n (fun _ -> Wt_workload.Zipf.sample zipf rng) in
  let wp = WTree.Over_plain.of_array ~sigma a in
  let wr = WTree.Over_rrr.of_array ~sigma a in
  let h0 =
    Wt_bits.Entropy.h0_of_counts
      (let f = Array.make sigma 0 in
       Array.iter (fun x -> f.(x) <- f.(x) + 1) a;
       f)
  in
  Printf.printf "   space: plain %d bits (%.2f/sym)   rrr %d bits (%.2f/sym)  [H0=%.2f]\n"
    (WTree.Over_plain.space_bits wp)
    (float_of_int (WTree.Over_plain.space_bits wp) /. float_of_int n)
    (WTree.Over_rrr.space_bits wr)
    (float_of_int (WTree.Over_rrr.space_bits wr) /. float_of_int n)
    h0;
  print_group "A.rrr — rank over 262144 symbols" ""
    (Test.make_grouped ~name:"bitvectors"
       [
         Test.make ~name:"plain rank"
           (Staged.stage (fun () ->
                ignore (WTree.Over_plain.rank wp (Xoshiro.int rng sigma) (Xoshiro.int rng n))));
         Test.make ~name:"rrr   rank"
           (Staged.stage (fun () ->
                ignore (WTree.Over_rrr.rank wr (Xoshiro.int rng sigma) (Xoshiro.int rng n))));
       ])

(* ------------------------------------------------------------------ *)
(* A.dynwt — Wavelet Trie vs fixed-alphabet dynamic Wavelet Tree. *)

let a_dynwt () =
  Printf.printf
    "\n-- A.dynwt — dynamic alphabet (Wavelet Trie) vs fixed alphabet ([12,18])\n";
  Printf.printf
    "   Same integer workload; the fixed-alphabet WT must know sigma upfront and cannot grow it.\n";
  let sigma = 256 in
  let n = 32768 in
  let rng = Xoshiro.create 8 in
  let data = Array.init n (fun _ -> Xoshiro.int rng sigma) in
  let width = 8 in
  let trie = Dynamic_wt.create () in
  let dt_trie =
    time_batch (fun () ->
        Array.iter (fun x -> Dynamic_wt.append trie (Binarize.of_int_msb ~width x)) data)
  in
  let fixed = Dyn_wavelet_tree.create ~sigma in
  let dt_fixed = time_batch (fun () -> Array.iter (Dyn_wavelet_tree.append fixed) data) in
  Printf.printf "   build by appends: trie %7.0f ns/op   fixed %7.0f ns/op\n"
    (dt_trie *. 1e9 /. float_of_int n)
    (dt_fixed *. 1e9 /. float_of_int n);
  Printf.printf "   space: trie %d bits   fixed %d bits\n" (Dynamic_wt.space_bits trie)
    (Dyn_wavelet_tree.space_bits fixed);
  print_group "A.dynwt — point ops at n=32768, sigma=256" ""
    (Test.make_grouped ~name:"dyn"
       [
         Test.make ~name:"trie  rank"
           (Staged.stage (fun () ->
                ignore
                  (Dynamic_wt.rank trie
                     (Binarize.of_int_msb ~width (Xoshiro.int rng sigma))
                     (Xoshiro.int rng n))));
         Test.make ~name:"fixed rank"
           (Staged.stage (fun () ->
                ignore
                  (Dyn_wavelet_tree.rank fixed (Xoshiro.int rng sigma) (Xoshiro.int rng n))));
         Test.make ~name:"trie  access"
           (Staged.stage (fun () -> ignore (Dynamic_wt.access trie (Xoshiro.int rng n))));
         Test.make ~name:"fixed access"
           (Staged.stage (fun () -> ignore (Dyn_wavelet_tree.access fixed (Xoshiro.int rng n))));
       ])

(* ------------------------------------------------------------------ *)
(* A.dict — related-work approach (1): dictionary-mapped wavelet tree. *)

let a_dict () =
  Printf.printf
    "\n-- A.dict — Wavelet Trie vs dictionary-mapped wavelet tree (approach (1))\n";
  Printf.printf
    "   Paper: lexicographic mapping gives RankPrefix via 2-D range count, but no\n";
  Printf.printf "   efficient SelectPrefix, and the alphabet is frozen at build time.\n";
  let n = 32768 in
  let seq = url_sequence ~seed:42 n in
  let trie = Wavelet_trie.of_array seq in
  let dict = Wt_wavelet_tree.Dict_sequence.of_array seq in
  let g = Urls.create ~seed:42 () in
  let prefixes = Array.init (Urls.host_count g) (Urls.host_prefix g) in
  Printf.printf "   space: trie %d bits   dict-mapped %d bits\n"
    (Wavelet_trie.space_bits trie)
    (Wt_wavelet_tree.Dict_sequence.space_bits dict);
  let rng = Xoshiro.create 1 in
  print_group "A.dict — prefix ops at n=32768" ""
    (Test.make_grouped ~name:"dict"
       [
         Test.make ~name:"trie rank_prefix"
           (Staged.stage (fun () ->
                ignore (Wavelet_trie.rank_prefix trie (pick rng prefixes) (Xoshiro.int rng n))));
         Test.make ~name:"dict rank_prefix"
           (Staged.stage (fun () ->
                ignore
                  (Wt_wavelet_tree.Dict_sequence.rank_prefix dict (pick rng prefixes)
                     (Xoshiro.int rng n))));
         Test.make ~name:"trie select_prefix"
           (Staged.stage (fun () ->
                ignore (Wavelet_trie.select_prefix trie (pick rng prefixes) (Xoshiro.int rng 32))));
         Test.make ~name:"dict select_prefix"
           (Staged.stage (fun () ->
                ignore
                  (Wt_wavelet_tree.Dict_sequence.select_prefix dict (pick rng prefixes)
                     (Xoshiro.int rng 32))));
       ])

(* ------------------------------------------------------------------ *)
(* A.huffman — Huffman-shaped Wavelet Trie vs balanced wavelet tree. *)

let a_huffman () =
  Printf.printf "\n-- A.huffman — Huffman-shaped Wavelet Trie (paper, Section 3 remark)\n";
  let rng = Xoshiro.create 12 in
  let sigma = 256 in
  let zipf = Wt_workload.Zipf.create ~s:1.5 sigma in
  let n = 131072 in
  let a = Array.init n (fun _ -> Wt_workload.Zipf.sample zipf rng) in
  let h = Huffman_wt.of_array ~sigma a in
  let bal = WTree.Over_rrr.of_array ~sigma a in
  let freqs = Array.make sigma 0 in
  Array.iter (fun x -> freqs.(x) <- freqs.(x) + 1) a;
  Printf.printf
    "   avg depth: huffman h~ = %.2f vs balanced log sigma = %d   (H0 = %.2f)\n"
    (Huffman_wt.avg_code_length h)
    (WTree.Over_rrr.levels bal)
    (Wt_bits.Entropy.h0_of_counts freqs);
  Printf.printf "   space: huffman %d bits   balanced+rrr %d bits\n"
    (Huffman_wt.space_bits h) (WTree.Over_rrr.space_bits bal);
  flush stdout

(* ------------------------------------------------------------------ *)
(* A.quad — fanout-4 Wavelet Trie (Section 7 future work, prototyped). *)

let a_quad () =
  Printf.printf "\n-- A.quad — binary vs 4-ary Wavelet Trie (Section 7 future work)\n";
  Printf.printf
    "   Doubling the fanout halves the trie height; per-node sequences become 6-ary.\n";
  let n = 65536 in
  let seq = url_sequence ~seed:42 n in
  let b = Wavelet_trie.of_array seq in
  let q = Wt_wavelet_tree.Quad_wt.of_array seq in
  let module N = Wavelet_trie.Node in
  let rec h node =
    if N.is_leaf node then 0 else 1 + max (h (N.child node false)) (h (N.child node true))
  in
  let hb = match N.root b with None -> 0 | Some r -> h r in
  Printf.printf "   height: binary %d   quad %d\n" hb (Wt_wavelet_tree.Quad_wt.height q);
  Printf.printf "   space:  binary %d bits   quad %d bits\n" (Wavelet_trie.space_bits b)
    (Wt_wavelet_tree.Quad_wt.space_bits q);
  let rng = Xoshiro.create 4 in
  print_group "A.quad — ops at n=65536" ""
    (Test.make_grouped ~name:"quad"
       [
         Test.make ~name:"binary access"
           (Staged.stage (fun () -> ignore (Wavelet_trie.access b (Xoshiro.int rng n))));
         Test.make ~name:"quad   access"
           (Staged.stage (fun () ->
                ignore (Wt_wavelet_tree.Quad_wt.access q (Xoshiro.int rng n))));
         Test.make ~name:"binary rank"
           (Staged.stage (fun () ->
                ignore (Wavelet_trie.rank b (pick rng seq) (Xoshiro.int rng n))));
         Test.make ~name:"quad   rank"
           (Staged.stage (fun () ->
                ignore (Wt_wavelet_tree.Quad_wt.rank q (pick rng seq) (Xoshiro.int rng n))));
       ])

(* ------------------------------------------------------------------ *)
(* Durability: the tiered store's write-ahead log, logged-ingest cost
   and replay rate. *)

let rm_store dir =
  if Sys.file_exists dir then begin
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let durability_block () =
  let n = 16384 in
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g n in
  (* logged-ingest cost into a store that never compacts, then the
     replay rate of the reopen that rebuilds its delta *)
  let module T = Wtrie.Tiered in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wt_bench_store" in
  rm_store dir;
  let t = T.create ~threshold:max_int dir in
  let dt_append = time_batch (fun () -> Array.iter (T.ingest t) strings) in
  let wal_bytes = T.wal_bytes t in
  T.flush t;
  T.close t;
  let replayed = ref 0 in
  let dt_replay =
    time_batch (fun () ->
        let t', r = T.open_ ~threshold:max_int dir in
        replayed := r.T.r_replayed;
        T.close t')
  in
  rm_store dir;
  Wt_obs.Json.Obj
    [
      ( "wal",
        Wt_obs.Json.Obj
          [
            ("records", Wt_obs.Json.Int !replayed);
            ("bytes", Wt_obs.Json.Int wal_bytes);
            ("append_us_per_record", Wt_obs.Json.Float (dt_append *. 1e6 /. float_of_int n));
            ("replay_ms", Wt_obs.Json.Float (dt_replay *. 1e3));
            ("replay_records_per_s", Wt_obs.Json.Float (float_of_int !replayed /. dt_replay));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Serving front-end: closed-loop throughput and latency through the
   full socket → micro-batch → sharded-execute → demux path, plus an
   overload leg whose capacity is pinned by configuration (small batch
   budget on a long window) so the shed fraction measures admission
   control, not the runner's speed. *)

let serve_block () =
  (* throughput is measured with the full telemetry plane live — probes
     recording, the runtime-events GC bridge polling — so the regression
     gate prices the exporter's hot-path cost, not an idealized build *)
  Wtrie.Probe.enable ();
  Wtrie.Runtime.start ();
  let n = 16384 in
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g n in
  let wt = Wtrie.Static.of_array strings in
  let module Server = Wt_serve.Server in
  let module Client = Wt_serve.Client in
  let rng = Xoshiro.create 77 in
  let opgen _ =
    let module Is = Wt_core.Indexed_sequence in
    if Xoshiro.int rng 2 = 0 then Wt_serve.Wire.Query (Is.Access { pos = Xoshiro.int rng n })
    else
      Wt_serve.Wire.Query
        (Is.Rank { s = strings.(Xoshiro.int rng n); pos = Xoshiro.int rng (n + 1) })
  in
  let with_server tweak f =
    let cfg = tweak { (Server.default_config ()) with port = 0 } in
    let srv = Server.create ~config:cfg ~backend:Server.static_backend (Wt_par.Snapshot.create wt) in
    let d = Domain.spawn (fun () -> Server.serve srv) in
    Fun.protect
      ~finally:(fun () ->
        Server.request_stop srv;
        Domain.join d)
      (fun () -> f srv)
  in
  let load srv ~conns ~window ~ops =
    Client.run_load ~host:"127.0.0.1" ~port:(Server.port srv) ~conns ~window ~ops ~opgen ()
  in
  let uncontended, closed_loop =
    with_server (fun c -> c) (fun srv ->
        (load srv ~conns:1 ~window:1 ~ops:2_000, load srv ~conns:8 ~window:8 ~ops:20_000))
  in
  (* capacity = batch_max per window regardless of machine speed, so the
     closed-loop clients overrun it and the shed fraction is a property
     of admission control rather than of the runner *)
  let overload =
    with_server
      (fun c -> { c with window_us = 5_000; batch_max = 256; queue_max = 64 })
      (fun srv -> load srv ~conns:16 ~window:64 ~ops:20_000)
  in
  let leg (r : Client.report) extra =
    Wt_obs.Json.Obj
      ([
         ("completed", Wt_obs.Json.Int r.Client.completed);
         ("throughput_rps", Wt_obs.Json.Float r.Client.throughput_rps);
         ("p50_us", Wt_obs.Json.Float r.Client.p50_us);
         ("p99_us", Wt_obs.Json.Float r.Client.p99_us);
       ]
      @ extra)
  in
  let shed_fraction =
    if overload.Client.completed = 0 then 0.
    else float_of_int overload.Client.overloaded /. float_of_int overload.Client.completed
  in
  Wtrie.Probe.disable ();
  Wtrie.Probe.reset ();
  Wt_obs.Json.Obj
    [
      ("strings", Wt_obs.Json.Int n);
      ("uncontended", leg uncontended []);
      ("closed_loop", leg closed_loop []);
      ( "overload",
        leg overload [ ("shed_fraction", Wt_obs.Json.Float shed_fraction) ] );
    ]

(* ------------------------------------------------------------------ *)
(* Tiered store: sustained WAL-backed ingest against an in-memory
   dynamic append of the same volume (compaction keeps the delta
   bounded, so the per-string cost stays flat where the monolithic
   dynamic trie's grows with n), the words one ingest and one merging
   compaction allocate, and merged-read p99 against the pure flat arena
   the runs are built from (the price of the k-way view). *)

let tiered_block () =
  let n = 16384 in
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g n in
  let module T = Wtrie.Tiered in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wt_bench_tiered" in
  rm_store dir;
  let t = T.create ~threshold:4096 dir in
  let dt_ingest =
    time_batch (fun () ->
        Array.iter (T.ingest t) strings;
        T.wait_compaction t;
        T.flush t)
  in
  let runs = T.run_count t and generation = T.generation t in
  let delta = T.delta_length t in
  (* a threshold above the block's strings never starts a compactor
     domain, so the count repeats exactly *)
  let ingest_words =
    let dir = dir ^ "_alloc" in
    rm_store dir;
    let t = T.create ~threshold:(n + 1) dir in
    let (), words = words_of (fun () -> Array.iter (T.ingest t) strings) in
    T.close t;
    rm_store dir;
    words /. float_of_int n
  in
  (* one synchronous compaction folding runs of 8,192 and 4,096 strings
     (reopened, so mmapped) and a 4,096-string delta into one run, per
     string of that run; no compactor domain runs meanwhile *)
  let merge_words =
    let dir = dir ^ "_merge" in
    rm_store dir;
    let t = T.create ~threshold:4096 dir in
    Array.iter (T.ingest t) (Array.sub strings 0 12288);
    T.close t;
    let t, _ = T.open_ ~threshold:(n + 1) dir in
    Array.iter (T.ingest t) (Array.sub strings 12288 4096);
    let (), words = words_of (fun () -> T.compact t) in
    assert (T.run_count t = 1);
    T.close t;
    rm_store dir;
    words /. float_of_int n
  in
  let dyn = Wtrie.Dynamic.create () in
  let dt_dyn = time_batch (fun () -> Array.iter (Wtrie.Dynamic.append dyn) strings) in
  (* read-side p99 over scalar access: merged run+delta view vs the
     flat arena alone *)
  let flat = Wtrie.Static.of_array strings in
  let rng = Xoshiro.create 7 in
  let p99 access =
    let reps = 4096 in
    let lat =
      Array.init reps (fun _ ->
          let pos = Xoshiro.int rng n in
          let t0 = now () in
          access pos;
          now () -. t0)
    in
    Array.sort compare lat;
    lat.(int_of_float (0.99 *. float_of_int (reps - 1))) *. 1e6
  in
  let tiered_p99 =
    p99 (fun pos -> ignore (T.access t ~pos : (string, Wtrie.error) result))
  in
  let static_p99 =
    p99 (fun pos -> ignore (Wtrie.Static.access flat ~pos : (string, Wtrie.error) result))
  in
  T.close t;
  rm_store dir;
  let per_s dt = float_of_int n /. dt in
  Wt_obs.Json.Obj
    [
      ("strings", Wt_obs.Json.Int n);
      ("runs", Wt_obs.Json.Int runs);
      ("generation", Wt_obs.Json.Int generation);
      ("delta", Wt_obs.Json.Int delta);
      ("ingest_strings_per_s", Wt_obs.Json.Float (per_s dt_ingest));
      ("dynamic_strings_per_s", Wt_obs.Json.Float (per_s dt_dyn));
      ("ingest_speedup_vs_dynamic", Wt_obs.Json.Float (dt_dyn /. dt_ingest));
      ("ingest_words_per_string", Wt_obs.Json.Float ingest_words);
      ("merge_words_per_string", Wt_obs.Json.Float merge_words);
      ("read_p99_us", Wt_obs.Json.Float tiered_p99);
      ("static_read_p99_us", Wt_obs.Json.Float static_p99);
      ("read_p99_ratio_vs_static", Wt_obs.Json.Float (tiered_p99 /. static_p99));
    ]

(* ------------------------------------------------------------------ *)
(* Observability metrics block: build each variant through the [Wtrie]
   front door with probes on, run a scripted query/mutation mix, and
   emit the captured report (per-op counters, latency percentiles,
   space-vs-LB breakdown) as JSON.  [--json] prints only this block, as
   one machine-readable object on stdout; full runs append it pretty-
   printed at the end. *)

module Probe = Wt_obs.Probe
module Report = Wt_obs.Report
module Json = Wt_obs.Json

let metrics_queries (type a)
    (module V : Wt_core.Indexed_sequence.STRING_API with type t = a) (wt : a)
    (strings : string array) =
  let n = Array.length strings in
  let rng = Xoshiro.create 11 in
  for i = 0 to 255 do
    ignore (V.access wt ~pos:(Xoshiro.int rng n));
    let s = strings.(Xoshiro.int rng n) in
    ignore (V.count wt s);
    ignore (V.select wt s ~count:(i land 3));
    ignore (V.count_prefix wt ~prefix:(String.sub s 0 (min 4 (String.length s))))
  done;
  (* a batch mix too, so the Exec_* counters land in the report *)
  let ops =
    Array.init 256 (fun i ->
        if i land 1 = 0 then Wt_core.Indexed_sequence.Access { pos = Xoshiro.int rng n }
        else
          Wt_core.Indexed_sequence.Rank
            { s = strings.(Xoshiro.int rng n); pos = Xoshiro.int rng (n + 1) })
  in
  ignore (V.query_batch wt ops);
  (* and the range-analytics suite, so the Analytics_* counters land *)
  for _ = 0 to 3 do
    let prefix = String.sub strings.(Xoshiro.int rng n) 0 4 in
    let lo = Xoshiro.int rng n in
    let hi = lo + Xoshiro.int rng (n - lo + 1) in
    ignore (V.select_all ~prefix ~lo ~hi wt);
    ignore (V.range_count ~prefix wt ~lo ~hi);
    ignore (V.range_distinct ~lo ~hi wt);
    ignore (V.range_topk ~lo ~hi wt ~k:3)
  done

(* Batch vs scalar on the Zipf URL workload: the tentpole number.  Same
   operations through the scalar front door and through [query_batch];
   the engine's level-by-level execution with per-node rank cursors
   should amortize the per-node directory walks away.  Each leg also
   reports the words it allocates (between two [Gc.minor] calls, see
   [words_of]) and its traversal work per op — trie nodes visited, and
   the RRR ranks and, for access and rank, accesses and the block
   positions unranked ([Rrr_unrank]; a plain β blob takes none) or,
   for select, rank_prefix and select_prefix, selects and the block
   positions they unrank — each from one more pass after
   the timed ones: neither depends on the machine's speed or load.
   Select asks for an occurrence that exists; a prefix is a random cut
   of a stored string, and select_prefix asks for an occurrence of one
   that exists. *)
let batch_block () =
  let n = 131072 in
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g n in
  let wt = Wtrie.Static.of_array strings in
  let b = 16384 in
  let rng = Xoshiro.create 21 in
  let positions = Array.init b (fun _ -> Xoshiro.int rng n) in
  let rank_args =
    Array.init b (fun _ -> (strings.(Xoshiro.int rng n), Xoshiro.int rng (n + 1)))
  in
  let occurrences = Hashtbl.create 4096 in
  Array.iter
    (fun s -> Hashtbl.replace occurrences s (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences s)))
    strings;
  let select_args =
    Array.init b (fun _ ->
        let s = strings.(Xoshiro.int rng n) in
        (s, Xoshiro.int rng (Hashtbl.find occurrences s)))
  in
  let prefix_args =
    Array.init b (fun _ ->
        let s = strings.(Xoshiro.int rng n) in
        (String.sub s 0 (1 + Xoshiro.int rng (String.length s)), Xoshiro.int rng (n + 1)))
  in
  let select_prefix_args =
    Array.init b (fun _ ->
        let s = strings.(Xoshiro.int rng n) in
        let prefix = String.sub s 0 (1 + Xoshiro.int rng (String.length s)) in
        (prefix, Xoshiro.int rng (Result.get_ok (Wtrie.Static.rank_prefix wt ~prefix ~pos:n))))
  in
  let best f =
    let d = ref infinity in
    for _ = 1 to 3 do
      d := min !d (time_batch f)
    done;
    !d *. 1e9 /. float_of_int b
  in
  let words f = snd (words_of f) /. float_of_int b in
  let work leg counted f =
    Probe.reset ();
    Probe.enable ();
    f ();
    Probe.disable ();
    let row (name, m) =
      ( Printf.sprintf "%s_%s_per_op" leg name,
        Json.Float (float_of_int (Probe.counter m) /. float_of_int b) )
    in
    let rows = List.map row counted in
    Probe.reset ();
    rows
  in
  let per ~counted ~scalar ops =
    let scalar () =
      for i = 0 to b - 1 do
        scalar i
      done
    in
    let batch () = ignore (Wtrie.Static.query_batch wt ops) in
    let scalar_ns = best scalar in
    let batch_ns = best batch in
    let scalar_words = words scalar in
    let batch_words = words batch in
    let counted =
      ("nodes", Wt_obs.Metric.Wt_nodes_visited)
      :: ("bits", Wt_bits_consumed) :: ("rrr_rank", Rrr_rank) :: counted
    in
    let scalar_work = work "scalar" counted scalar in
    let batch_work = work "batch" counted batch in
    Json.Obj
      ([
         ("scalar_ns_per_op", Json.Float scalar_ns);
         ("batch_ns_per_op", Json.Float batch_ns);
         ("speedup", Json.Float (scalar_ns /. batch_ns));
         ("scalar_words_per_op", Json.Float scalar_words);
         ("batch_words_per_op", Json.Float batch_words);
       ]
      @ scalar_work @ batch_work)
  in
  let access =
    per
      ~counted:[ ("rrr_access", Rrr_access); ("rrr_unrank", Rrr_unrank) ]
      ~scalar:(fun i -> ignore (Wtrie.Static.access wt ~pos:positions.(i)))
      (Array.map (fun pos -> Wtrie.Access { pos }) positions)
  in
  let rank =
    per
      ~counted:[ ("rrr_access", Rrr_access); ("rrr_unrank", Rrr_unrank) ]
      ~scalar:(fun i ->
        let s, pos = rank_args.(i) in
        ignore (Wtrie.Static.rank wt s ~pos))
      (Array.map (fun (s, pos) -> Wtrie.Rank { s; pos }) rank_args)
  in
  let select =
    per
      ~counted:[ ("rrr_select", Rrr_select); ("rrr_unrank", Rrr_unrank) ]
      ~scalar:(fun i ->
        let s, count = select_args.(i) in
        ignore (Wtrie.Static.select wt s ~count))
      (Array.map (fun (s, count) -> Wtrie.Select { s; count }) select_args)
  in
  let rank_prefix =
    per
      ~counted:[ ("rrr_select", Rrr_select); ("rrr_unrank", Rrr_unrank) ]
      ~scalar:(fun i ->
        let prefix, pos = prefix_args.(i) in
        ignore (Wtrie.Static.rank_prefix wt ~prefix ~pos))
      (Array.map (fun (prefix, pos) -> Wtrie.Rank_prefix { prefix; pos }) prefix_args)
  in
  let select_prefix =
    per
      ~counted:[ ("rrr_select", Rrr_select); ("rrr_unrank", Rrr_unrank) ]
      ~scalar:(fun i ->
        let prefix, count = select_prefix_args.(i) in
        ignore (Wtrie.Static.select_prefix wt ~prefix ~count))
      (Array.map (fun (prefix, count) -> Wtrie.Select_prefix { prefix; count }) select_prefix_args)
  in
  Json.Obj
    [
      ("n", Json.Int n);
      ("batch_ops", Json.Int b);
      ("access", access);
      ("rank", rank);
      ("select", select);
      ("rank_prefix", rank_prefix);
      ("select_prefix", select_prefix);
    ]

(* The arena's β coder alone ([Rrr]): ns per rank, select and
   access at random positions on a 2^20-bit blob at densities 0.5, 0.1
   and 0.01, in the code [append_blocks] picks (plain at 0.5,
   class-range RRR at 0.1 and 0.01), and ns per rank over one-block
   blobs (2 to 62 bits, about 90% of a wide arena's internal nodes).
   Two more rank rows on the density-0.5 bits and positions: the blob
   forced into class-range RRR, so the RRR path stays timed where it is
   slowest, and [Wt_bitvector.Plain], the uncompressed reference.  Best
   of five passes of 2^18 queries each. *)
let rrr_rows () =
  let module Rrr = Wt_bitvector.Rrr in
  let rng = Xoshiro.create 61 in
  let bits len density =
    let blocks = Array.make ((len / Rrr.block_bits) + 1) 0 in
    for i = 0 to len - 1 do
      if Xoshiro.float rng < density then
        blocks.(i / Rrr.block_bits) <-
          blocks.(i / Rrr.block_bits) lor (1 lsl (i mod Rrr.block_bits))
    done;
    blocks
  in
  let view ?code blocks len =
    let bb = Wt_bits.Bitbuf.create () in
    Rrr.append_blocks ?code bb blocks ~len;
    let buf = Buffer.create 64 in
    Wt_bits.Bitbuf.add_to_buffer buf bb;
    Rrr.of_membuf (Wt_bits.Membuf.of_string (Buffer.contents buf)) 0 ~len
      ~version:Rrr.newest_version
  in
  let blob len density = view (bits len density) len in
  let q = 1 lsl 18 in
  let row name f =
    let d = ref infinity in
    for _ = 1 to 5 do
      d := min !d (time_batch f)
    done;
    (name, Json.Float (!d *. 1e9 /. float_of_int q))
  in
  let sink = ref 0 in
  let len = 1 lsl 20 in
  let d50 = ref ([||], [||]) in
  let per_density name density =
    let blocks = bits len density in
    let bv = view blocks len in
    let pos = Array.init q (fun _ -> Xoshiro.int rng len) in
    let ks = Array.init q (fun _ -> Xoshiro.int rng (Rrr.ones bv)) in
    if name = "d50" then d50 := (blocks, pos);
    [
      row ("rrr_rank_ns_" ^ name) (fun () ->
          Array.iter (fun p -> sink := !sink + Rrr.rank bv true p) pos);
      row ("rrr_select_ns_" ^ name) (fun () ->
          Array.iter (fun k -> sink := !sink + Rrr.select bv true k) ks);
      row ("rrr_access_ns_" ^ name) (fun () ->
          Array.iter (fun p -> if Rrr.access bv p then incr sink) pos);
    ]
  in
  let short = Array.init 4096 (fun _ -> blob (2 + Xoshiro.int rng 61) (Xoshiro.float rng)) in
  let probes =
    Array.init q (fun _ ->
        let bv = short.(Xoshiro.int rng (Array.length short)) in
        (bv, Xoshiro.int rng (Rrr.length bv + 1)))
  in
  let one_block =
    row "rrr_one_block_rank_ns" (fun () ->
        Array.iter (fun (bv, p) -> sink := !sink + Rrr.rank bv true p) probes)
  in
  let rows =
    per_density "d50" 0.5 @ per_density "d10" 0.1 @ per_density "d1" 0.01 @ [ one_block ]
  in
  let blocks, pos = !d50 in
  let forced = view ~code:Rrr blocks len in
  let plain =
    let bb = Wt_bits.Bitbuf.create () in
    Array.iteri
      (fun i b ->
        let at = i * Rrr.block_bits in
        if at < len then Wt_bits.Bitbuf.add_bits bb (Int.min Rrr.block_bits (len - at)) b)
      blocks;
    Wt_bitvector.Plain.of_bitbuf bb
  in
  let reference =
    [
      row "rrr_class_range_rank_ns_d50" (fun () ->
          Array.iter (fun p -> sink := !sink + Rrr.rank forced true p) pos);
      row "plain_rank_ns_d50" (fun () ->
          Array.iter (fun p -> sink := !sink + Wt_bitvector.Plain.rank plain true p) pos);
    ]
  in
  ignore (Sys.opaque_identity !sink);
  rows @ reference

(* The arena's node directory alone, on a serve_wide-shape arena
   (262,144 URLs over 2,000 hosts x 200 paths, about 56,000 distinct):
   its bits per node — exact, since the arena is a function of the
   input — the share of its raw β bits stored plain, its stored label
   bits over the logical ones, of all labels and of the internal ones (a
   byte-string arena drops its labels' marker bits and codes their
   whole bytes; exact too), the mean bits of a coded byte in the leaf
   labels' and the internal labels' Huffman codes ([leaf_code_bits] and
   [internal_code_bits], exact; 5 at arena version 8, a byte set of 32
   bytes in fixed-width codes), and ns
   per fused directory read ([Flat_wt.node_entry]: a node's
   internal rank and content extent) over the nodes of 4,096
   random root-to-leaf paths, those of [access] at random positions.
   Best of five passes. *)
let directory_rows () =
  let n = 262144 in
  let strings = Urls.raw_sequence (Urls.create ~seed:1 ~hosts:2000 ~paths_per_host:200 ()) n in
  let t = Wtrie.Static.of_array strings in
  let module N = Wt_core.Flat_wt.Node in
  let rng = Xoshiro.create 71 in
  let visits = ref [] in
  for _ = 1 to 4096 do
    let rec walk node pos =
      visits := node.N.idx :: !visits;
      if not (N.is_leaf node) then begin
        let b, r = N.bv_access_rank node pos in
        walk (N.child node b) r
      end
    in
    walk (Option.get (N.root t)) (Xoshiro.int rng n)
  done;
  let visits = Array.of_list (List.rev !visits) in
  let sink = ref 0 in
  let d = ref infinity in
  for _ = 1 to 5 do
    d :=
      min !d
        (time_batch (fun () ->
             Array.iter
               (fun idx ->
                 let _, lo, hi = Wt_core.Flat_wt.node_entry t idx in
                 sink := !sink + lo + hi)
               visits))
  done;
  ignore (Sys.opaque_identity !sink);
  let layout = Wt_core.Flat_wt.layout t in
  let plain_raw, raw =
    List.fold_left
      (fun (p, a) (c : Wt_core.Flat_wt.code_stats) ->
        ((if c.code = "plain" then p + c.raw_bits else p), a + c.raw_bits))
      (0, 0) layout.codes
  in
  [
    ( "directory_bits_per_node",
      Json.Float
        (float_of_int (Wt_core.Flat_wt.directory_bits t) /. float_of_int t.Wt_core.Flat_wt.node_count)
    );
    ("directory_ns", Json.Float (!d *. 1e9 /. float_of_int (Array.length visits)));
    ("plain_beta_share", Json.Float (float_of_int plain_raw /. float_of_int raw));
    ( "stored_label_share",
      Json.Float (float_of_int layout.stored_label_bits /. float_of_int layout.logical_label_bits)
    );
    ( "internal_label_share",
      Json.Float
        (float_of_int layout.internal_stored_bits /. float_of_int layout.internal_logical_bits) );
    ("leaf_code_bits", Json.Float (Wt_core.Flat_wt.mean_bits (Option.get layout.leaf_code)));
    ( "internal_code_bits",
      Json.Float (Wt_core.Flat_wt.mean_bits (Option.get layout.internal_code)) );
  ]

(* Restart economics of the format-v3 flat arena: the checksum-plus-mmap
   open of a ~131k-URL arena against the same open of an arena of its
   first 1/16 of the strings, and the batch engine on the arena vs the
   pointer trie.  The arena needs no decode, so an open costs the same
   whatever the payload size: [mmap_open_ratio_16x], the first open
   over the second, stays well below 2.  The build figures are
   [Wtrie.Static.of_array] on those strings: best of three wall times,
   and the words one build allocates (minor + major - promoted, so a
   promoted word counts once). *)
let flat_block () =
  let n = 131072 in
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g n in
  let fwt, build_words = words_of (fun () -> Wtrie.Static.of_array strings) in
  let build =
    List.fold_left min infinity
      (List.init 3 (fun _ -> time_batch (fun () -> ignore (Wtrie.Static.of_array strings))))
  in
  let pwt = Wavelet_trie.of_array (Array.map Wt_core.String_api.encode strings) in
  let v3 = Filename.temp_file "wt_bench_v3" ".wtx" in
  let small = Filename.temp_file "wt_bench_small" ".wtx" in
  Wtrie.Static.save_file_exn fwt v3;
  Wtrie.Static.save_file_exn (Wtrie.Static.of_array (Array.sub strings 0 (n / 16))) small;
  let best f =
    let d = ref infinity in
    for _ = 1 to 5 do
      d := min !d (time_batch f)
    done;
    !d
  in
  let mmap_open path len =
    time_batch (fun () ->
        let t = Wtrie.Static.open_file_exn ~mode:`Mmap path in
        assert (Wtrie.Static.length t = len);
        Wtrie.Static.close t)
  in
  (* an open takes tens of microseconds: best of 21 of each, the two
     opens alternating so that a slow stretch of the host slows both *)
  let small_open = ref infinity and big_open = ref infinity in
  for _ = 1 to 21 do
    small_open := Float.min !small_open (mmap_open small (n / 16));
    big_open := Float.min !big_open (mmap_open v3 n)
  done;
  let copy_open =
    best (fun () ->
        let t = Wtrie.Static.open_file_exn ~mode:`Copy v3 in
        assert (Wtrie.Static.length t = n);
        Wtrie.Static.close t)
  in
  Sys.remove small;
  Sys.remove v3;
  let b = 16384 in
  let rng = Xoshiro.create 41 in
  let ops =
    Array.init b (fun i ->
        if i land 1 = 0 then Wtrie.Access { pos = Xoshiro.int rng n }
        else
          Wtrie.Rank
            { s = strings.(Xoshiro.int rng n); pos = Xoshiro.int rng (n + 1) })
  in
  let flat_batch = best (fun () -> ignore (Wt_exec.Exec.Static.query_batch fwt ops)) in
  let module Pointer = Wt_exec.Exec.Make_string (Wt_core.Wavelet_trie.Node) in
  let pointer_batch = best (fun () -> ignore (Pointer.query_batch pwt ops)) in
  let ns dt = dt *. 1e9 /. float_of_int b in
  Json.Obj
    ([
      ("n", Json.Int n);
      ("build_ns_per_string", Json.Float (build *. 1e9 /. float_of_int n));
      ("build_words_per_string", Json.Float (build_words /. float_of_int n));
      ("v3_mmap_open_ms", Json.Float (!big_open *. 1e3));
      ("v3_mmap_open_small_ms", Json.Float (!small_open *. 1e3));
      ("mmap_open_ratio_16x", Json.Float (!big_open /. !small_open));
      ("v3_copy_open_ms", Json.Float (copy_open *. 1e3));
      ("batch_ops", Json.Int b);
      ("flat_batch_ns_per_op", Json.Float (ns flat_batch));
      ("pointer_batch_ns_per_op", Json.Float (ns pointer_batch));
      ("batch_vs_pointer_ratio", Json.Float (flat_batch /. pointer_batch));
    ]
    @ rrr_rows () @ directory_rows ())

(* Parallel scaling of the batched engine: the identical Zipf URL batch
   executed sequentially and sharded over explicit pools of 2 and 4
   domains ([lib/par]).  Explicit pools — not the shared default — so
   the measured parallelism is exactly the reported domain count
   regardless of WTRIE_DOMAINS or the host's core count; on a
   single-core box the >1 legs degrade to ~1x (sharding overhead only),
   which is the honest number. *)
let parallel_block () =
  let n = 131072 in
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g n in
  let wt = Wtrie.Static.of_array strings in
  let b = 16384 in
  let rng = Xoshiro.create 31 in
  let positions = Array.init b (fun _ -> Xoshiro.int rng n) in
  let access_ops = Array.map (fun pos -> Wtrie.Access { pos }) positions in
  let rank_ops =
    Array.init b (fun _ ->
        Wtrie.Rank { s = strings.(Xoshiro.int rng n); pos = Xoshiro.int rng (n + 1) })
  in
  let best f =
    let d = ref infinity in
    for _ = 1 to 3 do
      d := min !d (time_batch f)
    done;
    !d
  in
  let engine = Wt_exec.Exec.Static.query_batch in
  let run_at d ops =
    if d = 1 then best (fun () -> ignore (engine wt ops))
    else begin
      let pool = Wt_par.Pool.create ~size:d () in
      let dt =
        best (fun () ->
            ignore (Wt_par.Par_exec.query_batch ~pool ~domains:d engine wt ops))
      in
      Wt_par.Pool.shutdown pool;
      dt
    end
  in
  let per op ops =
    let times = List.map (fun d -> (d, run_at d ops)) [ 1; 2; 4 ] in
    let t1 = List.assoc 1 times in
    ( op,
      Json.Obj
        (List.concat_map
           (fun (d, t) ->
             (Printf.sprintf "domains_%d_ns_per_op" d, Json.Float (t *. 1e9 /. float_of_int b))
             ::
             (if d = 1 then [] else [ (Printf.sprintf "speedup_%d" d, Json.Float (t1 /. t)) ]))
           times) )
  in
  Json.Obj
    [
      ("n", Json.Int n);
      ("batch_ops", Json.Int b);
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("pool_default_size", Json.Int (Wt_par.Pool.default_size ()));
      per "access" access_ops;
      per "rank" rank_ops;
    ]

(* Range analytics vs the naive scalar loop it replaces (the tentpole
   numbers of the analytics suite): [select_all ~prefix] against the
   select_prefix-per-occurrence loop, and a window [range_topk] against
   the access-scan + hashtable tally.  Same static Zipf URL index as the
   batch block; the prefix is the busiest host so the reported block is
   large enough to amortize. *)
let analytics_block () =
  let n = 131072 in
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g n in
  let wt = Wtrie.Static.of_array strings in
  let best f =
    let d = ref infinity in
    for _ = 1 to 3 do
      d := min !d (time_batch f)
    done;
    !d
  in
  (* busiest host prefix (up to the '/' closing the authority, skipping
     the scheme's "//") in the Zipf sequence *)
  let host s =
    match String.index_from_opt s (min 8 (String.length s)) '/' with
    | None -> s
    | Some i -> String.sub s 0 (i + 1)
  in
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      let h = host s in
      Hashtbl.replace tbl h (1 + Option.value (Hashtbl.find_opt tbl h) ~default:0))
    strings;
  let prefix, hits =
    Hashtbl.fold (fun h c ((_, bc) as b) -> if c > bc then (h, c) else b) tbl ("", 0)
  in
  let naive_select_all =
    best (fun () ->
        for k = 0 to hits - 1 do
          ignore (Wtrie.Static.select_prefix wt ~prefix ~count:k)
        done)
  in
  let fast_select_all = best (fun () -> ignore (Wtrie.Static.select_all ~prefix wt)) in
  let k = 10 in
  let lo = n / 4 in
  let hi = lo + 16384 in
  let naive_topk =
    best (fun () ->
        let t = Hashtbl.create 1024 in
        for pos = lo to hi - 1 do
          match Wtrie.Static.access wt ~pos with
          | Ok s -> Hashtbl.replace t s (1 + Option.value (Hashtbl.find_opt t s) ~default:0)
          | Error _ -> assert false
        done;
        let l = Hashtbl.fold (fun s c acc -> (s, c) :: acc) t [] in
        let l = List.sort (fun (a, ca) (b, cb) -> if ca <> cb then compare cb ca else compare a b) l in
        ignore (List.filteri (fun i _ -> i < k) l))
  in
  let fast_topk = best (fun () -> ignore (Wtrie.Static.range_topk ~lo ~hi wt ~k)) in
  let ms dt = dt *. 1e3 in
  Json.Obj
    [
      ("n", Json.Int n);
      ( "select_all",
        Json.Obj
          [
            ("prefix_hits", Json.Int hits);
            ("naive_ms", Json.Float (ms naive_select_all));
            ("select_all_ms", Json.Float (ms fast_select_all));
            ("speedup", Json.Float (naive_select_all /. fast_select_all));
          ] );
      ( "topk",
        Json.Obj
          [
            ("window", Json.Int (hi - lo));
            ("k", Json.Int k);
            ("naive_ms", Json.Float (ms naive_topk));
            ("topk_ms", Json.Float (ms fast_topk));
            ("speedup", Json.Float (naive_topk /. fast_topk));
          ] );
    ]

let metrics_block () =
  let g = Urls.create ~seed:42 () in
  let strings = Urls.raw_sequence g 2048 in
  let capture variant (st : Stats.t) =
    let r = Report.capture ~space:[ Stats.to_breakdown ~variant st ] () in
    Probe.disable ();
    Probe.reset ();
    (variant, Report.to_json r)
  in
  let static =
    Probe.reset ();
    Probe.enable ();
    let wt = Wtrie.Static.of_array strings in
    metrics_queries (module Wtrie.Static) wt strings;
    capture "static" (Wt_core.Flat_wt.stats wt)
  in
  let append =
    Probe.reset ();
    Probe.enable ();
    let wt = Wtrie.Append.create () in
    Array.iter (Wtrie.Append.append wt) strings;
    metrics_queries (module Wtrie.Append) wt strings;
    capture "append" (Append_wt.stats wt)
  in
  let dynamic =
    Probe.reset ();
    Probe.enable ();
    let wt = Wtrie.Dynamic.of_array strings in
    let rng = Xoshiro.create 13 in
    for i = 0 to 127 do
      Wtrie.Dynamic.insert wt
        ~pos:(Xoshiro.int rng (Wtrie.Dynamic.length wt + 1))
        (Printf.sprintf "fresh.dev/i/%d" i);
      if i land 1 = 0 then
        Wtrie.Dynamic.delete wt ~pos:(Xoshiro.int rng (Wtrie.Dynamic.length wt))
    done;
    metrics_queries (module Wtrie.Dynamic) wt strings;
    capture "dynamic" (Dynamic_wt.stats wt)
  in
  Json.Obj
    [
      (* the cores the runtime sees: timing and parallel rows mean
         little without it *)
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("metrics", Json.Obj [ static; append; dynamic ]);
      ("batch", batch_block ());
      ("flat", flat_block ());
      ("parallel", parallel_block ());
      ("analytics", analytics_block ());
      ("durability", durability_block ());
      ("serve", serve_block ());
      ("tiered", tiered_block ());
    ]

let print_metrics_block ~json_only =
  let j = metrics_block () in
  if json_only then print_endline (Json.to_string j)
  else begin
    Printf.printf "\n-- metrics — observability report (front-door workload, probes on)\n";
    print_endline (Json.to_string_pretty j)
  end;
  flush stdout

(* ------------------------------------------------------------------ *)

let () =
  let flag f = Array.exists (String.equal f) Sys.argv in
  let json_only = flag "--json" in
  let quick = flag "--quick" in
  if json_only then print_metrics_block ~json_only:true
  else begin
    Printf.printf "wavelet-trie benchmark harness (experiment ids match DESIGN.md)\n";
    Printf.printf "bechamel quota per microbench: %.2fs\n" quota;
    f_figures ();
    if not quick then begin
      t1_build ();
      t1_space ();
      t1_static_query ();
      t1_append_query ();
      t1_dynamic_query ();
      t1_append_append ();
      t1_dynamic_updates ();
      s5_range ();
      s6_balanced ();
      s7_cache ();
      a_init ();
      a_rrr ();
      a_dynwt ();
      a_dict ();
      a_quad ();
      a_huffman ()
    end;
    print_metrics_block ~json_only:false;
    Printf.printf "\ndone.\n"
  end
