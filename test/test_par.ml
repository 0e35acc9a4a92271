(* The multicore serving layer (lib/par): every generated workload runs
   through (a) the scalar front-door ops, (b) the single-domain batch
   engine, and (c) the parallel sharded executor at 2 and 4 domains, and
   every result vector must equal the one oracle's (oracle.ml), for all
   three trie variants.  The dynamic variant is additionally hammered
   through an epoch-published snapshot while an owner domain concurrently
   applies appends/inserts/deletes to the working trie — readers must see
   exactly the sequence frozen at the epoch they grabbed.  Pool mechanics
   (ordering, exceptions, emptiness) get direct unit tests. *)

module Xoshiro = Wt_bits.Xoshiro
module I = Wt_core.Indexed_sequence
module Pool = Wt_par.Pool
module Snapshot = Wt_par.Snapshot
module Par_exec = Wt_par.Par_exec

(* Shared pools: spawning domains per QCheck case would dominate the
   suite's runtime.  Shut down at exit for a clean join. *)
let pool2 = Pool.create ~size:2 ()
let pool4 = Pool.create ~size:4 ()
let () = at_exit (fun () -> Pool.shutdown pool2; Pool.shutdown pool4)

(* ------------------------------------------------------------------ *)
(* Scalar, batch and parallel legs against the one oracle (oracle.ml),
   all three variants.  [~min_shard:1] forces genuine multi-shard
   execution even for the small batches qcheck generates. *)

let word_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 1 5))
let seq_gen = QCheck.Gen.(list_size (int_range 1 120) word_gen)

let workload_arb =
  QCheck.make
    ~print:(fun (l, seed) -> Printf.sprintf "seed %d: %s" seed (String.concat "," l))
    QCheck.Gen.(pair seq_gen (int_bound 1_000_000))

let parallel_legs ~ctx engine wt ops ~expected =
  List.iter
    (fun (pool, d) ->
      Oracle.agree ~ctx:(Printf.sprintf "%s parallel x%d" ctx d) ops ~expected
        (Par_exec.query_batch ~pool ~min_shard:1 ~domains:d engine wt ops))
    [ (pool2, 2); (pool4, 4) ]

let differential (type a) (module V : Wtrie.STRING_API with type t = a)
    ~(engine : a -> I.op array -> (I.value, I.error) result array) variant
    (words, seed) =
  let module C = Oracle.Check (V) in
  let arr = Array.of_list words in
  let m = Oracle.model arr and wt = V.of_array arr in
  let ops = Oracle.Gen.ops ~n:160 (Xoshiro.create seed) m in
  C.point ~ctx:variant wt m ops;
  parallel_legs ~ctx:variant engine wt ops ~expected:(Oracle.expected m ops);
  true

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"static: scalar = batch = parallel(2,4)" ~count:60 workload_arb
      (differential (module Wtrie.Static) ~engine:Wt_exec.Exec.Static.query_batch
         "static");
    Test.make ~name:"append: scalar = batch = parallel(2,4)" ~count:60 workload_arb
      (differential (module Wtrie.Append) ~engine:Wt_exec.Exec.Append.query_batch
         "append");
    Test.make ~name:"dynamic: scalar = batch = parallel(2,4)" ~count:60 workload_arb
      (differential (module Wtrie.Dynamic) ~engine:Wt_exec.Exec.Dynamic.query_batch
         "dynamic");
  ]

(* ------------------------------------------------------------------ *)
(* Front-door [~domains]: edge batches (empty, size-1, error slots) and
   equivalence with the sequential default on a large batch. *)

let test_front_door () =
  let rng = Xoshiro.create 7 in
  let arr =
    Array.init 500 (fun _ ->
        Printf.sprintf "host-%d.net/p/%d" (Xoshiro.int rng 7) (Xoshiro.int rng 31))
  in
  let wt = Wtrie.Static.of_array arr in
  List.iter
    (fun domains ->
      Alcotest.(check int)
        "empty batch" 0
        (Array.length (Wtrie.Static.query_batch ?domains wt [||]));
      let one = Wtrie.Static.query_batch ?domains wt [| I.Access { pos = 3 } |] in
      Alcotest.(check bool) "size-1 batch" true (one = [| Ok (I.Str arr.(3)) |]);
      let bad = Wtrie.Static.query_batch ?domains wt [| I.Access { pos = -1 } |] in
      Alcotest.(check bool)
        "error slot" true
        (bad = [| Error (I.Position_out_of_bounds { pos = -1; len = 500 }) |]))
    [ None; Some 1; Some 2; Some 4 ];
  let ops = Oracle.Gen.ops ~n:4096 rng (Oracle.model arr) in
  let expected = Wtrie.Static.query_batch wt ops in
  List.iter
    (fun domains ->
      Oracle.agree ~ctx:(Printf.sprintf "front door ~domains:%d" domains) ops ~expected
        (Wtrie.Static.query_batch ~domains wt ops))
    [ 4; 2 ]

(* ------------------------------------------------------------------ *)
(* Snapshot isolation under concurrent updates: an owner domain applies
   appends/inserts/deletes and publishes an epoch-stamped
   [Dynamic.snapshot] after each round, writing the matching mirror
   array to [mirrors.(epoch)] *before* publishing (the atomic swap in
   [Snapshot.publish] is the happens-before edge that makes both
   visible together).  Meanwhile this domain keeps grabbing the current
   (epoch, snapshot) pair and checking it against the oracle of that
   epoch's mirror — scalar ops, sequential engine and parallel x2/x4 —
   no matter how many updates have landed since.  After every tenth
   publish the owner waits for the checker to finish a round, so at
   least four rounds run while it mutates. *)

let test_snapshot_isolation () =
  let epochs = 40 in
  let universe =
    Array.init 64 (fun i -> Printf.sprintf "host-%d.net/p/%d" (i mod 7) i)
  in
  let initial = Array.init 50 (fun i -> universe.(i mod Array.length universe)) in
  let wt = Wtrie.Dynamic.of_array initial in
  let mirrors = Array.make (epochs + 1) [||] in
  mirrors.(0) <- initial;
  let handle = Snapshot.create (Wtrie.Dynamic.snapshot wt) in
  let rounds = Atomic.make 0 and owner_done = Atomic.make false in
  let await_round () =
    let seen = Atomic.get rounds and deadline = Unix.gettimeofday () +. 10. in
    while Atomic.get rounds = seen do
      if Unix.gettimeofday () > deadline then
        failwith "snapshot isolation: the checker finished no round in 10 s";
      Domain.cpu_relax ()
    done
  in
  let owner =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set owner_done true) @@ fun () ->
        let rng = Xoshiro.create 23 in
        let mirror = ref (Array.to_list initial) in
        for e = 1 to epochs do
          (* 1-5 mutations per epoch: append / insert / delete. *)
          for _ = 1 to 1 + Xoshiro.int rng 5 do
            let len = List.length !mirror in
            match Xoshiro.int rng 3 with
            | 0 ->
                let s = universe.(Xoshiro.int rng (Array.length universe)) in
                Wtrie.Dynamic.append wt s;
                mirror := !mirror @ [ s ]
            | 1 ->
                let s = universe.(Xoshiro.int rng (Array.length universe)) in
                let pos = Xoshiro.int rng (len + 1) in
                Wtrie.Dynamic.insert wt ~pos s;
                mirror := List.filteri (fun i _ -> i < pos) !mirror @ (s :: List.filteri (fun i _ -> i >= pos) !mirror)
            | _ ->
                if len > 1 then begin
                  let pos = Xoshiro.int rng len in
                  Wtrie.Dynamic.delete wt ~pos;
                  mirror := List.filteri (fun i _ -> i <> pos) !mirror
                end
          done;
          mirrors.(e) <- Array.of_list !mirror;
          ignore (Snapshot.publish handle (Wtrie.Dynamic.snapshot wt));
          if e mod 10 = 0 then await_round ()
        done)
  in
  let rng = Xoshiro.create 97 in
  let check_current () =
    let e, frozen = Snapshot.pair handle in
    let ctx = Printf.sprintf "epoch %d" e in
    let m = Oracle.model mirrors.(e) in
    Oracle.same (ctx ^ ": length") (Array.length mirrors.(e)) (Wtrie.Dynamic.length frozen);
    let ops = Oracle.Gen.ops ~n:120 rng m in
    let expected = Oracle.expected m ops in
    Oracle.agree ~ctx:(ctx ^ " scalar") ops ~expected
      (Array.map (Oracle.scalar (module Wtrie.Dynamic) frozen) ops);
    Oracle.agree ~ctx:(ctx ^ " sequential") ops ~expected
      (Wt_exec.Exec.Dynamic.query_batch frozen ops);
    parallel_legs ~ctx Wt_exec.Exec.Dynamic.query_batch frozen ops ~expected;
    Atomic.incr rounds
  in
  (* race with the owner, then drain: the final epochs are always
     validated even if the owner outpaced us *)
  while not (Atomic.get owner_done) do
    check_current ()
  done;
  Domain.join owner;
  check_current ();
  Alcotest.(check int) "final epoch" epochs (Snapshot.epoch handle);
  if Atomic.get rounds < 4 then Alcotest.fail "snapshot soak: fewer than 4 concurrent rounds ran"

(* The owner's updates must never leak into an already-taken snapshot:
   pin one epoch-0 snapshot, rewrite the working trie completely, and
   compare the snapshot string-for-string against the original. *)
let test_snapshot_frozen () =
  let initial = Array.init 200 (fun i -> Printf.sprintf "s-%d.example/%d" (i mod 9) i) in
  let wt = Wtrie.Dynamic.of_array initial in
  let frozen = Wtrie.Dynamic.snapshot wt in
  for _ = 1 to 200 do
    Wtrie.Dynamic.delete wt ~pos:0
  done;
  Array.iteri (fun i s -> Wtrie.Dynamic.insert wt ~pos:i (s ^ "/rewritten")) initial;
  Alcotest.(check int) "frozen length" 200 (Wtrie.Dynamic.length frozen);
  Array.iteri
    (fun pos s ->
      match Wtrie.Dynamic.access frozen ~pos with
      | Ok s' when s' = s -> ()
      | r -> Alcotest.failf "frozen access %d: %a, expected %S" pos Oracle.pp_result
               (Result.map (fun s -> I.Str s) r) s)
    initial;
  (* and the rewritten working trie is intact too *)
  Alcotest.(check bool)
    "working trie rewritten" true
    (Wtrie.Dynamic.access wt ~pos:0 = Ok (initial.(0) ^ "/rewritten"))

(* ------------------------------------------------------------------ *)
(* Pool unit tests: results land in the submitting order's slots, work
   is conserved, exceptions propagate after the fan-in. *)

let test_pool_ordering () =
  List.iter
    (fun pool ->
      List.iter
        (fun n ->
          let out = Array.make n (-1) in
          Pool.run pool
            (Array.init n (fun i () ->
                 (* stagger so completion order differs from submit order *)
                 if i land 7 = 0 then Domain.cpu_relax ();
                 out.(i) <- i * i));
          Array.iteri
            (fun i v -> if v <> i * i then Alcotest.failf "slot %d holds %d" i v)
            out)
        [ 0; 1; 2; 3; 17; 256 ])
    [ pool2; pool4 ]

let test_pool_exception () =
  let ran = Atomic.make 0 in
  (try
     Pool.run pool4
       (Array.init 16 (fun i () ->
            ignore (Atomic.fetch_and_add ran 1);
            if i = 11 then failwith "task 11"));
     Alcotest.fail "expected the task exception to propagate"
   with Failure msg -> Alcotest.(check string) "propagated" "task 11" msg);
  (* all tasks still ran: one failure never cancels its batch *)
  Alcotest.(check int) "work conserved" 16 (Atomic.get ran);
  (* and the pool is still usable afterwards *)
  let ok = Atomic.make 0 in
  Pool.run pool4 (Array.init 8 (fun _ () -> ignore (Atomic.fetch_and_add ok 1)));
  Alcotest.(check int) "pool alive" 8 (Atomic.get ok)

let test_pool_env_sizing () =
  Alcotest.(check bool)
    "default size positive" true
    (Pool.default_size () >= 1);
  Alcotest.(check int) "explicit size" 4 (Pool.size pool4);
  Alcotest.(check bool)
    "create rejects 0" true
    (try
       ignore (Pool.create ~size:0 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "wt_par"
    [
      ("differential", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "front-door",
        [ Alcotest.test_case "~domains edges and equivalence" `Quick test_front_door ] );
      ( "snapshot",
        [
          Alcotest.test_case "isolation under concurrent updates" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "pinned snapshot is frozen" `Quick test_snapshot_frozen;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordering and conservation" `Quick test_pool_ordering;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "sizing" `Quick test_pool_env_sizing;
        ] );
    ]
