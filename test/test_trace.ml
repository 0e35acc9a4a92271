(* Span tracing and the flight recorder: deterministic span trees under
   the injected clock, parent links across Exec levels and across
   domains, counted sampling that never tears a subtree, ring-buffer
   wraparound, crash-dump content, and the zero-cost-when-disabled
   contract mirroring test_obs.ml. *)

module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace
module Flight = Wt_obs.Flight
module Fault = Wt_durable.Fault

let check_int = Alcotest.(check int)

(* Every clock read advances exactly 1000 "ns", so span endpoints are
   exact integers.  [Trace.with_span] passes its own timestamps through
   to the flight recorder, so a span costs exactly two ticks. *)
let with_fake_clock f =
  let ticks = ref 0 in
  Probe.set_clock (fun () ->
      ticks := !ticks + 1000;
      !ticks);
  Fun.protect ~finally:(fun () -> Probe.set_clock Probe.default_clock) f

let traced ?sample_every f =
  Trace.reset ();
  Trace.enable ?sample_every ();
  Fun.protect ~finally:Trace.disable f

let by_name name evs = List.filter (fun e -> e.Trace.name = name) evs
let the name evs =
  match by_name name evs with
  | [ e ] -> e
  | l -> Alcotest.failf "expected exactly one %S span, got %d" name (List.length l)

(* ------------------------------------------------------------------ *)
(* (a) Span trees *)

let test_span_tree_deterministic () =
  with_fake_clock (fun () ->
      traced (fun () ->
          Trace.with_span "a" (fun () ->
              Trace.with_span "b" (fun () -> ());
              Trace.with_span ~args:[ ("k", 7) ] "c" (fun () -> ())));
      let evs = Trace.events () in
      check_int "three spans" 3 (List.length evs);
      let a = the "a" evs and b = the "b" evs and c = the "c" evs in
      check_int "a is a root" (-1) a.Trace.parent;
      check_int "b under a" a.Trace.id b.Trace.parent;
      check_int "c under a" a.Trace.id c.Trace.parent;
      Alcotest.(check (list (pair string int))) "args survive" [ ("k", 7) ] c.Trace.args;
      (* two ticks per span, in stack order *)
      check_int "a.t0" 1000 a.Trace.t0_ns;
      check_int "b.t0" 2000 b.Trace.t0_ns;
      check_int "b.t1" 3000 b.Trace.t1_ns;
      check_int "c.t0" 4000 c.Trace.t0_ns;
      check_int "c.t1" 5000 c.Trace.t1_ns;
      check_int "a.t1" 6000 a.Trace.t1_ns)

(* An exception must close the span and re-raise; the sibling after it
   still nests correctly. *)
let test_span_exception () =
  traced (fun () ->
      Trace.with_span "root" (fun () ->
          (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
          Trace.with_span "after" (fun () -> ())));
  let evs = Trace.events () in
  let root = the "root" evs in
  check_int "boom closed under root" root.Trace.id (the "boom" evs).Trace.parent;
  check_int "after still under root" root.Trace.id (the "after" evs).Trace.parent

let test_exec_level_nesting () =
  let strings = Array.init 128 (fun i -> Printf.sprintf "h%d.net/p/%d" (i mod 5) (i mod 17)) in
  let wt = Wtrie.Static.of_array strings in
  let ops =
    Array.init 64 (fun i ->
        if i land 1 = 0 then Wtrie.Access { pos = i }
        else Wtrie.Rank { s = strings.(i); pos = i })
  in
  traced (fun () -> ignore (Wtrie.Static.query_batch wt ops));
  let evs = Trace.events () in
  let batch = the "exec.batch" evs in
  Alcotest.(check (list (pair string int))) "batch args" [ ("ops", 64) ] batch.Trace.args;
  let levels = by_name "exec.level" evs in
  Alcotest.(check bool) "at least one level" true (List.length levels > 0);
  List.iteri
    (fun i l ->
      check_int (Printf.sprintf "level %d under batch" i) batch.Trace.id l.Trace.parent;
      check_int
        (Printf.sprintf "level %d indexed in order" i)
        i (List.assoc "level" l.Trace.args);
      Alcotest.(check bool)
        (Printf.sprintf "level %d contained in batch" i)
        true
        (batch.Trace.t0_ns <= l.Trace.t0_ns && l.Trace.t1_ns <= batch.Trace.t1_ns))
    levels

(* ------------------------------------------------------------------ *)
(* (b) Cross-domain parenting *)

(* Explicit [Domain.spawn]: the guaranteed two-domain case.  [~parent]
   carries the chain; the child span records the executing domain. *)
let test_cross_domain_parent () =
  traced (fun () ->
      Trace.with_span "submit" (fun () ->
          let parent = Trace.current_id () in
          let d =
            Domain.spawn (fun () -> Trace.with_span ~parent "remote" (fun () -> 41 + 1))
          in
          check_int "child result" 42 (Domain.join d)));
  let evs = Trace.events () in
  let submit = the "submit" evs and remote = the "remote" evs in
  check_int "remote under submit" submit.Trace.id remote.Trace.parent;
  Alcotest.(check bool)
    "spans from two distinct domains" true
    (submit.Trace.dom <> remote.Trace.dom)

(* The sharded executor: every par.shard span is parented to the
   par.batch span even when a shard runs on a pool worker, and results
   are identical to the sequential engine. *)
let test_shard_spans () =
  let strings = Array.init 512 (fun i -> Printf.sprintf "s%d.io/%d" (i mod 7) (i mod 29)) in
  let wt = Wtrie.Static.of_array strings in
  let ops = Array.init 256 (fun i -> Wtrie.Access { pos = i }) in
  let engine = Wt_exec.Exec.Static.query_batch in
  let expected = engine wt ops in
  let pool = Wt_par.Pool.create ~size:4 () in
  traced (fun () ->
      let got = Wt_par.Par_exec.query_batch ~pool ~min_shard:1 ~domains:4 engine wt ops in
      Alcotest.(check bool) "sharded = sequential" true (got = expected));
  Wt_par.Pool.shutdown pool;
  let evs = Trace.events () in
  let batch = the "par.batch" evs in
  check_int "shards arg" 4 (List.assoc "shards" batch.Trace.args);
  let shards = by_name "par.shard" evs in
  check_int "one span per shard" 4 (List.length shards);
  List.iter
    (fun s -> check_int "shard under batch" batch.Trace.id s.Trace.parent)
    shards;
  (* each shard span also leaves begin/end breadcrumbs in the ring *)
  let marks =
    List.filter
      (fun (e : Flight.event) -> e.kind = Flight.Span_begin && e.note = "par.shard")
      (Flight.dump ())
  in
  Alcotest.(check bool) "flight saw the shards" true (List.length marks >= 4)

(* ------------------------------------------------------------------ *)
(* (c) Counted sampling: every 2nd root recorded, subtrees never torn *)

let test_sampling_whole_subtrees () =
  traced ~sample_every:2 (fun () ->
      for _ = 1 to 4 do
        Trace.with_span "root" (fun () -> Trace.with_span "kid" (fun () -> ()))
      done);
  let evs = Trace.events () in
  let roots = by_name "root" evs and kids = by_name "kid" evs in
  check_int "half the roots" 2 (List.length roots);
  check_int "their kids, all of them" 2 (List.length kids);
  let root_ids = List.map (fun r -> r.Trace.id) roots in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        "kid parented to a recorded root" true
        (List.mem k.Trace.parent root_ids))
    kids

(* ------------------------------------------------------------------ *)
(* (d) Dynamic mutations *)

let test_mutation_spans () =
  let wt = Wtrie.Dynamic.of_list [ "a"; "b"; "a" ] in
  traced (fun () ->
      Wtrie.Dynamic.insert wt ~pos:1 "c";
      Wtrie.Dynamic.delete wt ~pos:1;
      Wtrie.Dynamic.append wt "d");
  let evs = Trace.events () in
  check_int "insert span" 1 (List.assoc "pos" (the "wt.insert" evs).Trace.args);
  check_int "delete span" 1 (List.assoc "pos" (the "wt.delete" evs).Trace.args);
  ignore (the "wt.append" evs)

(* ------------------------------------------------------------------ *)
(* (e) Flight recorder *)

let test_flight_wraparound () =
  with_fake_clock (fun () ->
      Flight.clear ();
      let extra = 50 in
      for i = 0 to Flight.capacity + extra - 1 do
        Flight.record ~a:i Flight.Mark
      done;
      let marks = List.filter (fun (e : Flight.event) -> e.kind = Flight.Mark) (Flight.dump ()) in
      check_int "ring keeps exactly capacity" Flight.capacity (List.length marks);
      check_int "oldest survivor" extra (List.hd marks).Flight.a;
      check_int "newest survivor"
        (Flight.capacity + extra - 1)
        (List.nth marks (Flight.capacity - 1)).Flight.a;
      (* timestamps non-decreasing after the merge-sort *)
      let rec mono = function
        | a :: (b :: _ as tl) ->
            Alcotest.(check bool) "chronological" true (a.Flight.t_ns <= b.Flight.t_ns);
            mono tl
        | _ -> ()
      in
      mono marks)

(* The injected-crash path drops a [Crash] marker after the WAL appends
   that led up to it — the "what happened just before" story the dump
   exists to tell.  The tiered store arms that marker; without it the
   ring holds no crash event. *)
let test_flight_crash_dump () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wt_trace_crash_%d" (Hashtbl.hash (Sys.time ())))
  in
  let t = Wtrie.Tiered.create ~threshold:max_int dir in
  Flight.clear ();
  Wtrie.Tiered.ingest t "alpha";
  Wtrie.Tiered.ingest t "beta";
  Fault.arm_crash_after_bytes 4;
  (match Wtrie.Tiered.ingest t "gamma" with
  | () -> Alcotest.fail "armed fault did not fire"
  | exception Fault.Injected_crash _ -> ());
  Fault.disarm ();
  Wtrie.Tiered.close t;
  let evs = Flight.dump () in
  let appends = List.filter (fun (e : Flight.event) -> e.kind = Flight.Wal_append) evs in
  check_int "both clean appends in the ring" 2 (List.length appends);
  (match List.filter (fun (e : Flight.event) -> e.kind = Flight.Crash) evs with
  | [ c ] ->
      Alcotest.(check bool)
        "crash note names the torn write" true
        (String.length c.note > 0
        && String.sub c.note 0 (min 14 (String.length c.note)) = "injected crash");
      List.iter
        (fun (a : Flight.event) ->
          Alcotest.(check bool) "appends precede the crash" true (a.t_ns <= c.t_ns))
        appends
  | l -> Alcotest.failf "expected exactly one crash event, got %d" (List.length l));
  (* the JSON dump is parseable and carries the same events *)
  match Wt_obs.Json.of_string (Wt_obs.Json.to_string (Flight.to_json ())) with
  | Error e -> Alcotest.failf "flight dump did not round-trip: %s" e
  | Ok j -> (
      match Wt_obs.Json.member "events" j with
      | Some (Wt_obs.Json.List l) -> check_int "dump size" (List.length evs) (List.length l)
      | _ -> Alcotest.fail "flight dump lacks an events list")

(* ------------------------------------------------------------------ *)
(* (f) Zero cost when disabled, mirroring test_obs.ml *)

let test_disabled_zero_cost () =
  Trace.reset ();
  Trace.disable ();
  let strings = Array.init 100 (fun i -> Printf.sprintf "z%d/%d" (i mod 9) (i mod 13)) in
  let wt = Wtrie.Static.of_array strings in
  let ops =
    Array.init 50 (fun i ->
        if i land 1 = 0 then Wtrie.Access { pos = i }
        else Wtrie.Rank { s = strings.(i); pos = i })
  in
  let off = Wtrie.Static.query_batch wt ops in
  check_int "no spans recorded" 0 (Trace.event_count ());
  check_int "nothing dropped" 0 (Trace.dropped_count ());
  check_int "no current span" (-1) (Trace.current_id ());
  (* enabling must not change any result *)
  let on = traced (fun () -> Wtrie.Static.query_batch wt ops) in
  Alcotest.(check bool) "trace state does not affect results" true (off = on);
  Trace.reset ()

let test_with_trace () =
  let wt = Wtrie.Static.of_array [| "x"; "y"; "x" |] in
  let r, j =
    Wtrie.with_trace (fun () -> Wtrie.Static.query_batch wt [| Wtrie.Access { pos = 0 } |])
  in
  Alcotest.(check bool) "result passes through" true (r = [| Ok (Wtrie.Str "x") |]);
  Alcotest.(check bool) "tracing off afterwards" false (Trace.enabled ());
  match Wt_obs.Json.member "traceEvents" j with
  | Some (Wt_obs.Json.List l) ->
      Alcotest.(check bool) "trace has events" true (List.length l > 0)
  | _ -> Alcotest.fail "with_trace did not produce trace_event JSON"

let () =
  Alcotest.run "wt_trace"
    [
      ( "spans",
        [
          Alcotest.test_case "deterministic span tree under injected clock" `Quick
            test_span_tree_deterministic;
          Alcotest.test_case "exceptions close spans" `Quick test_span_exception;
          Alcotest.test_case "exec levels nest under the batch" `Quick
            test_exec_level_nesting;
        ] );
      ( "cross-domain",
        [
          Alcotest.test_case "explicit spawn carries the parent" `Quick
            test_cross_domain_parent;
          Alcotest.test_case "par shards parent to the batch span" `Quick
            test_shard_spans;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "every 2nd root, subtrees intact" `Quick
            test_sampling_whole_subtrees;
        ] );
      ( "mutations",
        [ Alcotest.test_case "insert/delete/append spans" `Quick test_mutation_spans ] );
      ( "flight",
        [
          Alcotest.test_case "ring wraparound keeps the newest" `Quick
            test_flight_wraparound;
          Alcotest.test_case "crash dump tells the story" `Quick test_flight_crash_dump;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "disabled tracing records nothing, changes nothing"
            `Quick test_disabled_zero_cost;
          Alcotest.test_case "with_trace exports and restores" `Quick test_with_trace;
        ] );
    ]
