(* End-to-end soak: a long randomized session mixing every operation the
   library offers, checked by the one oracle (oracle.ml), on a workload resembling the
   paper's motivation (skewed URL log with a growing alphabet).  Catches
   interaction bugs that per-module tests cannot. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Naive = Wt_core.Indexed_sequence.Naive
module Dynamic_wt = Wt_core.Dynamic_wt
module Append_wt = Wt_core.Append_wt
module Urls = Wt_workload.Urls

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Dynamic_check = Oracle.Check (Wtrie.Dynamic)
module Append_check = Oracle.Check (Wtrie.Append)

let test_dynamic_soak () =
  let rng = Xoshiro.create 31337 in
  let gen = Urls.create ~seed:31337 ~hosts:12 ~paths_per_host:10 () in
  let oracle = Naive.create () in
  let wt = Dynamic_wt.create () in
  let fresh = ref 0 in
  for step = 1 to 12_000 do
    let n = Naive.length oracle in
    (match Xoshiro.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
        (* insert a (possibly repeated) log line at a random position *)
        let s = Urls.next_encoded gen in
        let pos = Xoshiro.int rng (n + 1) in
        Naive.insert oracle pos s;
        Dynamic_wt.insert wt pos s
    | 7 | 8 | 9 ->
        (* append *)
        let s = Urls.next_encoded gen in
        Naive.append oracle s;
        Dynamic_wt.append wt s
    | 10 | 11 ->
        (* brand-new string: alphabet grows *)
        incr fresh;
        let s = Binarize.of_bytes (Printf.sprintf "novel://%d" !fresh) in
        let pos = Xoshiro.int rng (n + 1) in
        Naive.insert oracle pos s;
        Dynamic_wt.insert wt pos s
    | 12 | 13 | 14 | 15 | 16 when n > 0 ->
        let pos = Xoshiro.int rng n in
        Naive.delete oracle pos;
        Dynamic_wt.delete wt pos
    | _ when n > 0 ->
        (* point query *)
        let pos = Xoshiro.int rng n in
        check_bool "access" true
          (Bitstring.equal (Naive.access oracle pos) (Dynamic_wt.access wt pos))
    | _ -> ());
    (* periodic deep checks *)
    if step mod 1500 = 0 then begin
      Dynamic_wt.check_invariants wt;
      let m = Oracle.model (Array.map Binarize.to_bytes (Naive.to_array oracle)) in
      let ctx = Printf.sprintf "dynamic soak step %d" step in
      let rng = Xoshiro.create step in
      Dynamic_check.point ~ctx wt m (Oracle.Gen.ops rng m);
      Dynamic_check.totals ~ctx wt m;
      (* one random window: its tally, top-1, majority and quantiles *)
      let n = Naive.length oracle in
      let lo = Xoshiro.int rng ((n / 2) + 1) in
      let hi = lo + Xoshiro.int rng (n - lo + 1) in
      Dynamic_check.range ~ctx ~windows:[ (lo, hi) ] ~prefixes:[ None ] ~ks:[ 1 ] wt m
    end
  done;
  Dynamic_wt.check_invariants wt

let test_append_soak () =
  (* a long stream of appends, verified periodically *)
  let gen = Urls.create ~seed:555 ~hosts:20 () in
  let strings = Urls.raw_sequence gen 30_000 in
  let wt = Wtrie.Append.create () in
  Array.iteri
    (fun i s ->
      Wtrie.Append.append wt s;
      let step = i + 1 in
      if step mod 6000 = 0 then begin
        Append_wt.check_invariants wt;
        let m = Oracle.model (Array.sub strings 0 step) in
        let ctx = Printf.sprintf "append soak step %d" step in
        (* every host's prefix ("http://NAME.example.com/") counted *)
        let host s = String.sub s 0 (String.index_from s 7 '/' + 1) in
        let hosts = List.sort_uniq compare (List.init step (fun i -> host strings.(i))) in
        check_int "every host seen" (Urls.host_count gen) (List.length hosts);
        let host_ops = List.map (fun prefix -> Wtrie.Rank_prefix { prefix; pos = step }) hosts in
        Append_check.point ~ctx wt m
          (Array.append (Oracle.Gen.ops ~n:256 (Xoshiro.create step) m) (Array.of_list host_ops));
        Append_check.totals ~ctx wt m
      end)
    strings

(* Deterministic concurrency stress: hammer one 4-way domain pool with a
   fixed-seed stream of mixed-size batches — empty, size-1, and up to a
   few thousand ops — through the parallel executor, asserting (1) every
   result lands at its own index (no reordering, no lost items: the
   expected vector is computed by the sequential engine up front) and
   (2) the obs counters sum exactly across domains: every op is counted
   exactly once no matter which domain ran its shard, and the pool's
   always-on per-domain histograms account for every task. *)
let test_par_soak () =
  let module Probe = Wt_obs.Probe in
  let module Pool = Wt_par.Pool in
  let rng = Xoshiro.create 4242 in
  let n = 4096 in
  let gen = Urls.create ~seed:4242 () in
  let strings = Urls.raw_sequence gen n in
  let wt = Wtrie.Static.of_array strings in
  let engine = Wt_exec.Exec.Static.query_batch in
  (* all-valid ops so the Exec_* counters are exactly predictable *)
  let valid_ops nops =
    Array.init nops (fun i ->
        if i land 1 = 0 then Wtrie.Access { pos = Xoshiro.int rng n }
        else Wtrie.Rank { s = strings.(Xoshiro.int rng n); pos = Xoshiro.int rng (n + 1) })
  in
  let sizes = [ 0; 1; 2; 3; 5; 16; 64; 257; 1024; 4999 ] in
  let rounds = 25 in
  let batches =
    List.concat_map (fun _ -> List.map valid_ops sizes) (List.init rounds Fun.id)
  in
  (* expected results and counter totals, before probes are on *)
  let expected = List.map (fun ops -> engine wt ops) batches in
  let exp_tasks = ref 0 and exp_par_batches = ref 0 and exp_engine_calls = ref 0 in
  let exp_ops = ref 0 in
  List.iter
    (fun ops ->
      let s = Array.length ops in
      let shards = min 4 s in
      exp_ops := !exp_ops + s;
      if shards >= 2 then begin
        incr exp_par_batches;
        exp_tasks := !exp_tasks + shards;
        exp_engine_calls := !exp_engine_calls + shards
      end
      else if s > 0 then incr exp_engine_calls)
    batches;
  let pool = Pool.create ~size:4 () in
  Probe.reset ();
  Probe.enable ();
  List.iter2
    (fun ops exp ->
      let got =
        Wt_par.Par_exec.query_batch ~pool ~min_shard:1 ~domains:4 engine wt ops
      in
      if Array.length got <> Array.length ops then
        Alcotest.failf "batch of %d: %d results" (Array.length ops) (Array.length got);
      Array.iteri
        (fun i r -> if r <> exp.(i) then Alcotest.failf "batch of %d: op %d differs"
                       (Array.length ops) i)
        got)
    batches expected;
  let c m = Probe.counter m in
  Probe.disable ();
  check_int "par_batch" !exp_par_batches (c Wt_obs.Metric.Par_batch);
  check_int "par_shard_count" !exp_tasks (c Wt_obs.Metric.Par_shards);
  check_int "par_task" !exp_tasks (c Wt_obs.Metric.Par_task);
  check_bool "par_steal <= par_task" true
    (c Wt_obs.Metric.Par_steal <= c Wt_obs.Metric.Par_task);
  check_int "exec_batch (engine calls)" !exp_engine_calls (c Wt_obs.Metric.Exec_batch);
  check_int "exec_batch_ops (no op lost or duplicated)" !exp_ops
    (c Wt_obs.Metric.Exec_batch_ops);
  (* per-shard latency histogram: one sample per shard run *)
  check_int "par_shard_run samples" !exp_tasks
    (Probe.histogram Wt_obs.Metric.Par_shard_run).Wt_obs.Histogram.count;
  (* the pool's per-domain histograms account for every task exactly once *)
  let domain_total =
    Array.fold_left
      (fun acc (_, s) -> acc + s.Wt_obs.Histogram.count)
      0 (Pool.domain_latencies pool)
  in
  check_int "per-domain task counts sum" !exp_tasks domain_total;
  Pool.shutdown pool;
  Probe.reset ()

(* Tiered-store soak: sustained ingest through many background and
   forced compactions, with lockstep oracle queries, periodic
   close/reopen (WAL replay + manifest + run reopen), and a final
   clean-verify.  Wall-clock capped at 60s and gated behind WTRIE_SOAK
   so the default runtest stays fast; CI and `WTRIE_SOAK=1 dune exec
   test/test_soak.exe` run it for real. *)
let test_tiered_soak () =
  match Sys.getenv_opt "WTRIE_SOAK" with
  | None -> ()
  | Some _ ->
      let module T = Wtrie.Tiered in
      let module Pool = Wt_par.Pool in
      let deadline = Unix.gettimeofday () +. 60.0 in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "wt_soak_tiered_%d" (Unix.getpid ()))
      in
      let rm_rf d =
        if Sys.file_exists d then begin
          Array.iter (fun e -> Sys.remove (Filename.concat d e)) (Sys.readdir d);
          Sys.rmdir d
        end
      in
      rm_rf dir;
      let t = ref (T.create ~threshold:2048 dir) in
      let gen = Urls.create ~seed:777 ~hosts:16 () in
      let rng = Xoshiro.create 777 in
      let oracle = Naive.create () in
      let pool = Pool.create ~size:4 () in
      let steps = ref 0 and reopens = ref 0 and forced = ref 0 in
      while Unix.gettimeofday () < deadline && !steps < 400_000 do
        incr steps;
        let line = Urls.next gen in
        Naive.append oracle (Binarize.of_bytes line);
        T.ingest !t line;
        if !steps mod 5_000 = 0 then begin
          let n = Naive.length oracle in
          check_int "soak length" n (T.length !t);
          for _ = 1 to 32 do
            let pos = Xoshiro.int rng n in
            check_bool "soak access" true
              (T.access !t ~pos = Ok (Binarize.to_bytes (Naive.access oracle pos)))
          done;
          let probe = Binarize.to_bytes (Naive.access oracle (Xoshiro.int rng n)) in
          check_int "soak count" (Naive.rank oracle (Binarize.of_bytes probe) n) (T.count !t probe);
          (* merged batch across the live tiers, on the parallel engine *)
          let ops =
            Array.init 64 (fun i ->
                if i land 1 = 0 then Wtrie.Access { pos = Xoshiro.int rng n }
                else Wtrie.Rank { s = probe; pos = Xoshiro.int rng (n + 1) })
          in
          Array.iteri
            (fun i r ->
              match (ops.(i), r) with
              | Wtrie.Access { pos }, Ok (Wtrie.Str s) ->
                  check_bool "soak batch access" true
                    (s = Binarize.to_bytes (Naive.access oracle pos))
              | Wtrie.Rank { s; pos }, Ok (Wtrie.Int c) ->
                  check_int "soak batch rank" (Naive.rank oracle (Binarize.of_bytes s) pos) c
              | _ -> Alcotest.fail "soak batch: unexpected result shape")
            (T.query_batch ~domains:4 !t ops)
        end;
        if !steps mod 17_000 = 0 then begin
          incr forced;
          T.compact ~pool !t
        end;
        if !steps mod 50_000 = 0 then begin
          incr reopens;
          T.close !t;
          let t', r = T.open_ ~threshold:2048 dir in
          check_bool "soak reopen clean" true
            ((not r.T.r_wal_reset) && r.T.r_dropped_bytes = 0);
          t := t';
          check_int "soak reopen length" (Naive.length oracle) (T.length !t)
        end
      done;
      T.compact ~pool !t;
      Pool.shutdown pool;
      check_int "soak final length" (Naive.length oracle) (T.length !t);
      check_bool "soak ran through compactions" true (T.generation !t >= 2);
      T.close !t;
      let rep = T.verify dir in
      check_bool "soak final verify clean" true rep.T.v_clean;
      check_int "soak final verify length" (Naive.length oracle) rep.T.v_length;
      Printf.printf "tiered soak: %d ingests, %d forced compactions, %d reopens, %d runs\n%!"
        !steps !forced !reopens rep.T.v_runs;
      rm_rf dir

let () =
  Alcotest.run "wt_soak"
    [
      ( "soak",
        [
          Alcotest.test_case "dynamic 12k mixed ops" `Slow test_dynamic_soak;
          Alcotest.test_case "append-only 30k stream" `Slow test_append_soak;
          Alcotest.test_case "domain pool mixed-size batches" `Slow test_par_soak;
          Alcotest.test_case "tiered 60s ingest/compact (WTRIE_SOAK)" `Slow test_tiered_soak;
        ] );
    ]
