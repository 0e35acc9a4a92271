(* The tiered store (lib/tiered).

   - Scenarios: random interleavings of ingest / flush / compact /
     publish / reopen, checked by the one oracle ([Oracle.Scenario])
     after every compaction and reopen and at the end.
   - Concurrent snapshot reads: reader domains hammer the epoch
     handle while the owner ingests through many background
     compactions; every view a reader obtains must be a consistent
     prefix of the (append-only) oracle. *)

module T = Wtrie.Tiered
module Snapshot = Wtrie.Snapshot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Scenarios *)

let scenario_id = ref 0

let prop_scenario steps =
  incr scenario_id;
  Oracle.Scenario.run ~dir:(Oracle.temp_dir (Printf.sprintf "tiered_scen%d" !scenario_id)) steps;
  true

(* ------------------------------------------------------------------ *)
(* Concurrent snapshot reads during compaction: every view a reader
   pulls off the epoch handle must be a prefix of the append-only
   oracle — never torn, never mixing tiers from two generations. *)

let test_concurrent_readers () =
  let dir = Oracle.temp_dir "tiered_conc" in
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
          match T.View.query_batch v [| Wtrie.Access { pos } |] with
          | [| Ok (Wtrie.Str got) |] -> if got <> oracle.(pos) then Atomic.incr failures
          | _ -> Atomic.incr failures
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
  Oracle.rm_rf dir

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
      let dir = Oracle.temp_dir (Printf.sprintf "tiered_sizes_%d" k) in
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
      Oracle.rm_rf dir)
    [ 1; 2; 3; 6; 7; 8; 11 ]

(* A run opened from its file (mmap) and then replaced by a merge stays
   readable from a view published before the merge, although its file
   is gone, until the store closes. *)
let test_retired_runs () =
  let dir = Oracle.temp_dir "tiered_retired" in
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
  let read v pos =
    match T.View.query_batch v [| Wtrie.Access { pos } |] with
    | [| Ok (Wtrie.Str s) |] -> s
    | _ -> Alcotest.fail "access through the view failed"
  in
  check_bool "older view reads the replaced run" true
    (List.init 8 (read before) = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]);
  T.close t;
  check_bool "closed with the store" true
    (match read before 0 with _ -> false | exception Wt_core.Flat_wt.Closed -> true);
  Oracle.rm_rf dir

(* ------------------------------------------------------------------ *)
(* Store lifecycle edges *)

let test_edges () =
  let dir = Oracle.temp_dir "tiered_edges" in
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
  Oracle.rm_rf dir

let () =
  let qcheck =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"tiered = oracle = dynamic under interleavings"
         ~count:25 (Oracle.Scenario.arb ~crashes:false ()) prop_scenario)
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
