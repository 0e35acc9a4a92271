(* Differential harness for the tiered store (lib/tiered).

   - QCheck scenarios: random interleavings of ingest / flush /
     compact / publish, applied in lockstep to the tiered store, a
     naive list-of-strings oracle, and a pure [Wtrie.Dynamic] run.
     After every compaction and at the end of the scenario the whole
     query surface must agree: scalar ops against the oracle,
     query_batch (at 1/2/4 domains) and the range suite against
     the dynamic run, plus a close -> reopen leg so the WAL replay /
     manifest / run files round-trip every scenario's final state.
     Explicit compactions rotate through 1/2/4-domain pools.
   - Concurrent snapshot reads: reader domains hammer the epoch
     handle while the owner ingests through many background
     compactions; every view a reader obtains must be a consistent
     prefix of the (append-only) oracle. *)

module T = Wtrie.Tiered
module Pool = Wtrie.Pool
module Snapshot = Wtrie.Snapshot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Filesystem helpers *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("wt_tiered_" ^ name)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_dir name =
  let d = tmp name in
  rm_rf d;
  d

(* ------------------------------------------------------------------ *)
(* Scenario ops *)

type sop = Ingest of string | Flush | Compact | Publish

let pp_sop = function
  | Ingest s -> Printf.sprintf "ingest %S" s
  | Flush -> "flush"
  | Compact -> "compact"
  | Publish -> "publish"

(* A small alphabet makes duplicates and shared prefixes common, which
   is where the per-tier rank/select merging can go wrong. *)
let word_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 1 5))

let sop_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun s -> Ingest s) word_gen);
        (1, return Flush);
        (1, return Compact);
        (1, return Publish);
      ])

let scenario_gen = QCheck.Gen.(list_size (int_range 1 90) sop_gen)

let scenario_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_sop ops))
    scenario_gen

(* ------------------------------------------------------------------ *)
(* The differential check: tiered vs list oracle vs pure dynamic *)

let ok_value = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" (fun ppf -> Wtrie.pp_error ppf) e

let check_result what expected got =
  if expected <> got then
    Alcotest.failf "%s: tiered disagrees with the dynamic run" what

let distinct_of oracle =
  List.sort_uniq compare (Array.to_list oracle)

let batch_domains = [| 1; 2; 4 |]

let differential ?(tag = "") t (oracle : string array) (dyn : Wtrie.Dynamic.t) =
  let n = Array.length oracle in
  let ctx what = Printf.sprintf "%s%s (n=%d)" tag what n in
  check_int (ctx "length") n (T.length t);
  check_int (ctx "dyn length") n (Wtrie.Dynamic.length dyn);
  (* access: every position against the oracle *)
  for pos = 0 to n - 1 do
    check_bool (ctx "access") true (T.access t ~pos = Ok oracle.(pos))
  done;
  check_bool (ctx "access out of range") true
    (T.access t ~pos:n = Error (Wtrie.Position_out_of_bounds { pos = n; len = n }));
  check_bool (ctx "access negative") true
    (T.access t ~pos:(-1) = Error (Wtrie.Position_out_of_bounds { pos = -1; len = n }));
  let distinct = distinct_of oracle in
  check_int (ctx "distinct_count") (List.length distinct) (T.distinct_count t);
  (* rank / select for every stored string, plus one absent string *)
  let probe_strings = if n = 0 then [ "a" ] else "zzz" :: distinct in
  List.iter
    (fun s ->
      let occs = ref [] in
      Array.iteri (fun i x -> if x = s then occs := i :: !occs) oracle;
      let occs = Array.of_list (List.rev !occs) in
      let c = Array.length occs in
      check_int (ctx ("count " ^ s)) c (T.count t s);
      for pos = 0 to n do
        let naive = Array.fold_left (fun a p -> if p < pos then a + 1 else a) 0 occs in
        check_int (ctx ("rank " ^ s)) naive (ok_value (T.rank t s ~pos))
      done;
      Array.iteri
        (fun k p -> check_int (ctx ("select " ^ s)) p (ok_value (T.select t s ~count:k)))
        occs;
      check_bool
        (ctx ("select past " ^ s))
        true
        (T.select t s ~count:c = Error (Wtrie.No_occurrence { count = c; occurrences = c }));
      check_bool
        (ctx ("select negative " ^ s))
        true
        (T.select t s ~count:(-1) = Error (Wtrie.Negative_count { count = -1 })))
    probe_strings;
  (* prefix family, differentially against the dynamic run *)
  let prefixes = [ ""; "a"; "ab"; "b"; "c"; "zz" ] in
  List.iter
    (fun prefix ->
      check_result
        (ctx ("count_prefix " ^ prefix))
        (Wtrie.Dynamic.count_prefix dyn ~prefix)
        (T.count_prefix t ~prefix);
      check_result
        (ctx ("rank_prefix " ^ prefix))
        (Wtrie.Dynamic.rank_prefix dyn ~prefix ~pos:(n / 2))
        (T.rank_prefix t ~prefix ~pos:(n / 2));
      for count = 0 to min 4 n do
        check_result
          (ctx ("select_prefix " ^ prefix))
          (Wtrie.Dynamic.select_prefix dyn ~prefix ~count)
          (T.select_prefix t ~prefix ~count)
      done)
    prefixes;
  (* one mixed batch, compared op-for-op with the dynamic engine, at
     1/2/4 domains *)
  let ops =
    Array.concat
      [
        Array.init (min n 16) (fun i -> Wtrie.Access { pos = i * ((n / 16) + 1) });
        [| Wtrie.Access { pos = n }; Wtrie.Access { pos = -1 } |];
        Array.of_list
          (List.concat_map
             (fun s ->
               [
                 Wtrie.Rank { s; pos = n };
                 Wtrie.Rank { s; pos = n / 2 };
                 Wtrie.Select { s; count = 0 };
                 Wtrie.Select { s; count = max 0 (T.count t s - 1) };
                 Wtrie.Select { s; count = T.count t s };
                 Wtrie.Select { s; count = -2 };
               ])
             probe_strings);
        Array.of_list
          (List.concat_map
             (fun prefix ->
               [
                 Wtrie.Rank_prefix { prefix; pos = n };
                 Wtrie.Select_prefix { prefix; count = 1 };
               ])
             prefixes);
        [| Wtrie.Rank { s = "a"; pos = n + 1 } |];
      ]
  in
  let expected = Wtrie.Dynamic.query_batch dyn ops in
  Array.iter
    (fun domains ->
      let got = T.query_batch ~domains t ops in
      check_bool (ctx (Printf.sprintf "query_batch ~domains:%d" domains)) true
        (expected = got))
    batch_domains;
  (* range queries over a few windows, differentially: the whole
     sequence, a half, a middle slice, an empty window, and one window
     straddling each tier boundary *)
  let straddles =
    Array.to_list (T.current_view t).T.View.offsets
    |> List.filter (fun b -> 0 < b && b < n)
    |> List.map (fun b -> (max 0 (b - 2), min n (b + 3)))
  in
  let windows = [ (0, n); (0, n / 2); (n / 3, n - (n / 4)); (n / 2, n / 2) ] @ straddles in
  List.iter
    (fun (lo, hi) ->
      if lo <= hi then
        List.iter
          (fun prefix ->
            let prefix = if prefix = "" then None else Some prefix in
            check_bool (ctx "select_all") true
              (Wtrie.Dynamic.select_all ?prefix ~lo ~hi dyn
              = T.select_all ?prefix ~lo ~hi t);
            check_bool (ctx "range_count") true
              (Wtrie.Dynamic.range_count ?prefix dyn ~lo ~hi
              = T.range_count ?prefix t ~lo ~hi);
            check_bool (ctx "range_distinct") true
              (Wtrie.Dynamic.range_distinct ?prefix ~lo ~hi dyn
              = T.range_distinct ?prefix ~lo ~hi t);
            List.iter
              (fun k ->
                check_bool (ctx "range_topk") true
                  (Wtrie.Dynamic.range_topk ?prefix ~lo ~hi dyn ~k
                  = T.range_topk ?prefix ~lo ~hi t ~k))
              [ 0; 1; 2; 1000 ];
            check_bool (ctx "range_majority") true
              (Wtrie.Dynamic.range_majority ?prefix ~lo ~hi dyn
              = T.range_majority ?prefix ~lo ~hi t);
            List.iter
              (fun threshold ->
                check_bool (ctx "range_at_least") true
                  (Wtrie.Dynamic.range_at_least ?prefix ~lo ~hi dyn ~threshold
                  = T.range_at_least ?prefix ~lo ~hi t ~threshold))
              [ -1; 0; 1; 2; 3; 1000 ];
            List.iter
              (fun k ->
                check_bool (ctx "range_quantile") true
                  (Wtrie.Dynamic.range_quantile ?prefix ~lo ~hi dyn ~k
                  = T.range_quantile ?prefix ~lo ~hi t ~k))
              [ -1; 0; 1; (hi - lo) / 2; hi - lo - 1; hi - lo ])
          [ ""; "a"; "ab" ])
    windows;
  (* window validation errors *)
  check_bool (ctx "bad window") true
    (T.range_count t ~lo:(-1) ~hi:0
    = Error (Wtrie.Position_out_of_bounds { pos = -1; len = n }));
  check_bool (ctx "bad topk") true
    (T.range_topk t ~k:(-1) = Error (Wtrie.Negative_count { count = -1 }));
  check_bool (ctx "bad quantile") true
    (T.range_quantile t ~k:(-1) = Error (Wtrie.Negative_count { count = -1 }));
  check_bool (ctx "bad majority window") true
    (T.range_majority t ~hi:(n + 1)
    = Error (Wtrie.Position_out_of_bounds { pos = n + 1; len = n }))

(* ------------------------------------------------------------------ *)
(* The scenario property *)

let scenario_id = ref 0

let pools = lazy (Array.map (fun size -> Pool.create ~size ()) [| 1; 2; 4 |])

let prop_scenario ops =
  incr scenario_id;
  let dir = fresh_dir (Printf.sprintf "scen%d_%d" (Unix.getpid ()) !scenario_id) in
  (* a tiny threshold makes background auto-compaction fire mid-scenario *)
  let t = T.create ~threshold:6 dir in
  let dyn = Wtrie.Dynamic.create () in
  let oracle = ref [] in
  let compactions = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Ingest s ->
          T.ingest t s;
          Wtrie.Dynamic.append dyn s;
          oracle := s :: !oracle
      | Flush -> T.flush t
      | Compact ->
          let pool = (Lazy.force pools).(!compactions mod 3) in
          incr compactions;
          T.compact ~pool t;
          differential ~tag:"post-compact " t
            (Array.of_list (List.rev !oracle))
            dyn
      | Publish -> T.publish t)
    ops;
  let oracle = Array.of_list (List.rev !oracle) in
  differential ~tag:"final " t oracle dyn;
  (* runs + delta and the generation history round-trip through disk *)
  T.flush t;
  let gen = T.generation t and runs = T.run_count t in
  T.close t;
  let t2, r = T.open_ dir in
  check_int "reopen generation" gen r.T.r_generation;
  check_int "reopen runs" runs r.T.r_runs;
  check_int "reopen replay" (T.delta_length t2) r.T.r_replayed;
  check_bool "reopen clean" true
    ((not r.T.r_wal_reset) && (not r.T.r_rolled_forward) && r.T.r_dropped_bytes = 0);
  differential ~tag:"reopened " t2 oracle dyn;
  (* compacting everything into runs changes no answer *)
  T.compact t2;
  check_int "delta empty after compact" 0 (T.delta_length t2);
  differential ~tag:"fully-compacted " t2 oracle dyn;
  T.close t2;
  rm_rf dir;
  true

(* ------------------------------------------------------------------ *)
(* Concurrent snapshot reads during compaction: every view a reader
   pulls off the epoch handle must be a prefix of the append-only
   oracle — never torn, never mixing tiers from two generations. *)

let test_concurrent_readers () =
  let dir = fresh_dir (Printf.sprintf "conc_%d" (Unix.getpid ())) in
  let t = T.create ~threshold:64 dir in
  let total = 3_000 in
  let word i = Printf.sprintf "%c%c-%d" (Char.chr (97 + (i mod 7))) (Char.chr (97 + (i mod 3))) (i mod 11) in
  (* the oracle the readers check against: grown before each ingest,
     so any published view is a prefix of what readers observe *)
  let oracle = Array.init total word in
  let published = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let stop = Atomic.make false in
  let handle = T.handle t in
  let reader () =
    let rng = Random.State.make [| 42 |] in
    while not (Atomic.get stop) do
      let v = Snapshot.read handle in
      let len = T.View.length v in
      let limit = Atomic.get published in
      (* the view was published before [published] advanced past it *)
      if len > limit then Atomic.incr failures
      else if len > 0 then begin
        let probe pos =
          let got = T.View.Seq.access v pos in
          if Wt_strings.Binarize.to_bytes got <> oracle.(pos) then Atomic.incr failures
        in
        probe (Random.State.int rng len);
        probe (len - 1);
        (* a small merged batch on the frozen view *)
        let ops = [| Wtrie.Access { pos = len - 1 }; Wtrie.Rank { s = oracle.(0); pos = len } |] in
        match T.View.query_batch v ops with
        | [| Ok (Wtrie.Str s); Ok (Wtrie.Int _) |] ->
            if s <> oracle.(len - 1) then Atomic.incr failures
        | _ -> Atomic.incr failures
      end
    done
  in
  let readers = Array.init 2 (fun _ -> Domain.spawn reader) in
  for i = 0 to total - 1 do
    Atomic.set published (i + 1);
    T.ingest t (word i);
    if i mod 16 = 0 then T.publish t
  done;
  T.publish t;
  T.compact t;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  check_int "no reader anomalies" 0 (Atomic.get failures);
  check_bool "compactions happened" true (T.run_count t >= 2);
  check_int "all ingests present" total (T.length t);
  T.close t;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Run sizes do not depend on the compactor's timing: the writer seals
   the delta the moment it reaches the threshold, waiting for a running
   compaction first, and each seal's run absorbs every newest run no
   longer than itself, so after k seals of one-at-a-time ingests the
   runs are [threshold] times the set bits of k, largest first, with an
   empty delta — and a reopen finds the same runs. *)

let test_run_sizes () =
  let threshold = 64 in
  List.iter
    (fun k ->
      let dir = fresh_dir (Printf.sprintf "sizes_%d_%d" (Unix.getpid ()) k) in
      let t = T.create ~threshold dir in
      for i = 0 to (k * threshold) - 1 do
        T.ingest t (Printf.sprintf "host%d.example/%d" (i mod 7) (i mod 101))
      done;
      T.wait_compaction t;
      let expected =
        List.filter_map
          (fun bit -> if k land (1 lsl bit) <> 0 then Some (threshold lsl bit) else None)
          [ 4; 3; 2; 1; 0 ]
      in
      let sizes v =
        Array.to_list v.T.View.tiers
        |> List.filter_map (function
             | T.View.Run f -> Some (Wt_core.Flat_wt.length f)
             | T.View.App d ->
                 check_int "delta tier empty" 0 (Wt_core.Append_wt.length d);
                 None)
      in
      let ctx what = Printf.sprintf "%d seals: %s" k what in
      Alcotest.(check (list int)) (ctx "run sizes") expected (sizes (T.current_view t));
      (* a merge deletes the files of the runs it replaced *)
      let run_files =
        Array.to_list (Sys.readdir dir) |> List.filter (fun f -> String.starts_with ~prefix:"run-" f)
      in
      check_int (ctx "run files") (List.length expected) (List.length run_files);
      check_int (ctx "delta empty") 0 (T.delta_length t);
      check_int (ctx "all ingests present") (k * threshold) (T.length t);
      T.close t;
      let t, r = T.open_ ~threshold dir in
      check_int (ctx "reopened runs") (List.length expected) r.T.r_runs;
      Alcotest.(check (list int)) (ctx "reopened run sizes") expected (sizes (T.current_view t));
      T.close t;
      rm_rf dir)
    [ 1; 2; 3; 6; 7; 8; 11 ]

(* A run opened from its file (mmap) and then replaced by a merge stays
   readable from a view published before the merge, although its file
   is gone, until the store closes. *)
let test_retired_runs () =
  let dir = fresh_dir (Printf.sprintf "retired_%d" (Unix.getpid ())) in
  let t = T.create ~threshold:max_int dir in
  List.iter (T.ingest t) [ "a"; "b"; "c"; "d" ];
  T.compact t;
  T.close t;
  let t, _ = T.open_ dir in
  List.iter (T.ingest t) [ "e"; "f"; "g"; "h" ];
  T.publish t;
  let before = Snapshot.read (T.handle t) in
  T.compact t;
  check_int "one merged run" 1 (T.run_count t);
  check_bool "replaced file deleted" false (Sys.file_exists (Filename.concat dir "run-000000.wtx"));
  let read v pos = Wt_strings.Binarize.to_bytes (T.View.Seq.access v pos) in
  check_bool "older view reads the replaced run" true
    (List.init 8 (read before) = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]);
  T.close t;
  check_bool "closed with the store" true
    (match read before 0 with _ -> false | exception Wt_core.Flat_wt.Closed -> true);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Store lifecycle edges *)

let test_edges () =
  let dir = fresh_dir (Printf.sprintf "edges_%d" (Unix.getpid ())) in
  (* empty store: every query total, compact a no-op *)
  let t = T.create dir in
  check_int "empty length" 0 (T.length t);
  check_int "empty distinct" 0 (T.distinct_count t);
  T.compact t;
  check_int "empty compact makes no run" 0 (T.run_count t);
  check_bool "empty select" true
    (T.select t "x" ~count:0 = Error (Wtrie.No_occurrence { count = 0; occurrences = 0 }));
  check_bool "empty select_all" true (T.select_all t = Ok [||]);
  T.close t;
  (* closed store: queries answer Trie_closed, mutations raise *)
  check_bool "closed access" true (T.access t ~pos:0 = Error Wtrie.Trie_closed);
  check_bool "closed ingest raises" true
    (match T.ingest t "x" with exception Failure _ -> true | () -> false);
  (* double create refuses *)
  check_bool "double create refuses" true
    (match T.create dir with
    | exception Wt_durable.Container.Format_error _ -> true
    | t' ->
        T.close t';
        false);
  (* read-only handle refuses mutation but answers queries *)
  let t2, _ = T.open_ dir in
  T.ingest t2 "ro";
  T.flush t2;
  T.close t2;
  let ro, r = T.open_read_only dir in
  check_int "ro replayed" 1 r.T.r_replayed;
  check_bool "ro access" true (T.access ro ~pos:0 = Ok "ro");
  check_bool "ro ingest refuses" true
    (match T.ingest ro "x" with exception Failure _ -> true | () -> false);
  T.close ro;
  rm_rf dir

let () =
  let qcheck =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"tiered = oracle = dynamic under interleavings"
         ~count:25 scenario_arb prop_scenario)
  in
  Alcotest.run "wt_tiered"
    [
      ("differential", [ qcheck ]);
      ( "concurrency",
        [ Alcotest.test_case "snapshot readers during compaction" `Quick test_concurrent_readers ] );
      ( "compaction",
        [
          Alcotest.test_case "run sizes are the seal count's bits" `Quick test_run_sizes;
          Alcotest.test_case "older views read replaced runs" `Quick test_retired_runs;
        ] );
      ("edges", [ Alcotest.test_case "lifecycle edges" `Quick test_edges ]);
    ]
