(* The one differential oracle (oracle.ml), instantiated for every
   backend: the §3 pointer reference, the static arena (built, reopened
   by copy and by mmap, files of arena versions 2 to 7, and the legacy
   format-v2 indexes flattened on load), the append-only and dynamic
   tries, the tiered store through scenarios with injected crashes, and
   the served static and tiered backends over the wire at one and two
   execution domains. *)

module Xoshiro = Wt_bits.Xoshiro
module Server = Wt_serve.Server
module Snapshot = Wt_par.Snapshot
module T = Wtrie.Tiered

(* Few distinct strings with shared and proper prefixes ("ab" and
   "abc", 60-byte shared prefixes), the empty string and the extreme
   bytes: a byte-string arena's leaf labels then start at every bit
   depth mod 9, and include empty ones (the parent branched on a
   terminator) and terminator-only ones. *)
let corpus seed n =
  let rng = Xoshiro.create seed in
  let atoms =
    [|
      "";
      "a";
      "ab";
      "abc";
      "site.com/";
      "home";
      "blog.net/p";
      "\x00";
      "\xff";
      "https://shared.example/" ^ String.make 37 'p';
    |]
  in
  let atom () = atoms.(Xoshiro.int rng (Array.length atoms)) in
  Array.init n (fun _ -> atom () ^ atom ())

module C_static = Oracle.Check (Wtrie.Static)
module C_append = Oracle.Check (Wtrie.Append)
module C_dynamic = Oracle.Check (Wtrie.Dynamic)

let test_pointer () =
  let a = corpus 1 400 in
  let module C = Oracle.Check (Oracle.Pointer) in
  C.run ~ctx:"pointer" (Oracle.Pointer.of_array a) (Oracle.model a)

let test_static () =
  let a = corpus 2 500 in
  let m = Oracle.model a in
  let t = Wtrie.Static.of_array a in
  C_static.run ~ctx:"static" t m;
  Oracle.with_saved t (fun path ->
      List.iter
        (fun (ctx, mode) ->
          let t = Wtrie.Static.open_file_exn ~mode path in
          C_static.run ~ctx t m;
          C_static.exhaustive ~ctx t m;
          Wtrie.Static.close t)
        [ ("static, copy", `Copy); ("static, mmap", `Mmap) ])

(* [fixtures/v<version>/index.wt]: arena version 2 to 8, written from
   input.txt. *)
let test_static_fixture version () =
  let fixture name = Printf.sprintf "fixtures/v%d/%s" version name in
  let ctx = Printf.sprintf "arena version %d" version in
  let lines = In_channel.with_open_bin (fixture "input.txt") In_channel.input_lines |> Array.of_list in
  List.iter
    (fun mode ->
      let t = Wtrie.Static.open_file_exn ~mode (fixture "index.wt") and m = Oracle.model lines in
      Alcotest.(check int) (ctx ^ ": arena version") version (Wt_core.Flat_wt.version t);
      C_static.run ~ctx t m;
      C_static.exhaustive ~ctx t m;
      Wtrie.Static.close t)
    [ `Copy; `Mmap ]

(* Version-9 arenas at their byte codes' edges ([Oracle.code_edges]):
   one byte, all 256, and one dominant byte (a 4-bit end field). *)
let test_code_edges () =
  List.iter
    (fun (what, a) ->
      let t = Wtrie.Static.of_array a and m = Oracle.model a in
      let ctx = "code edges, " ^ what in
      C_static.run ~ctx t m;
      C_static.exhaustive ~ctx t m)
    Oracle.code_edges

let test_append () =
  let a = corpus 3 700 in
  let t = Wtrie.Append.create () in
  Array.iteri
    (fun i s ->
      if i = 350 then C_append.run ~ctx:"append, half" t (Oracle.model (Array.sub a 0 i));
      Wtrie.Append.append t s)
    a;
  C_append.run ~ctx:"append" t (Oracle.model a)

(* Random inserts, deletes and appends; then a snapshot keeps the state
   it saw while the owner goes on. *)
let test_dynamic () =
  let rng = Xoshiro.create 4 in
  let pool = corpus 5 40 in
  let t = Wtrie.Dynamic.create () in
  let mirror = ref [||] in
  let churn steps =
    for _ = 1 to steps do
      let n = Array.length !mirror in
      let s = pool.(Xoshiro.int rng (Array.length pool)) in
      match Xoshiro.int rng 4 with
      | 0 when n > 0 ->
          let pos = Xoshiro.int rng n in
          Wtrie.Dynamic.delete t ~pos;
          mirror := Oracle.delete !mirror pos
      | 1 ->
          Wtrie.Dynamic.append t s;
          mirror := Oracle.insert !mirror n s
      | _ ->
          let pos = Xoshiro.int rng (n + 1) in
          Wtrie.Dynamic.insert t ~pos s;
          mirror := Oracle.insert !mirror pos s
    done
  in
  churn 600;
  C_dynamic.run ~ctx:"dynamic" t (Oracle.model !mirror);
  let snap = Wtrie.Dynamic.snapshot t and seen = Oracle.model !mirror in
  churn 300;
  C_dynamic.run ~ctx:"dynamic snapshot" snap seen;
  C_dynamic.run ~ctx:"dynamic after the snapshot" t (Oracle.model !mirror)

let scenario_id = ref 0

let tiered_scenarios =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"tiered: scenarios with crashes and recovery"
       (Oracle.Scenario.arb ~steps:60 ())
       (fun steps ->
         incr scenario_id;
         let dir = Oracle.temp_dir (Printf.sprintf "oracle_%d" !scenario_id) in
         Oracle.Scenario.run ~dir steps;
         true))

(* ------------------------------------------------------------------ *)
(* Legacy Marshal-based fixtures (fixtures/legacy/README.md): format-v2
   indexes of every variant load as static arenas and convert, and
   snapshot+WAL directories migrate, with the contents of the README's
   formula. *)

let test_legacy_indexes () =
  List.iter
    (fun (name, variant, n) ->
      let m = Oracle.model (Array.init n Oracle.legacy_s) in
      let ops = Oracle.Gen.ops (Xoshiro.create 10) m in
      let file = Oracle.legacy (name ^ ".wt") in
      C_static.run ~ctx:file (Wtrie.Storage.load_index file) m;
      let v3 = Filename.temp_file "wt_oracle_legacy" ".wtx" in
      Fun.protect ~finally:(fun () -> Sys.remove v3) @@ fun () ->
      Alcotest.(check (pair string int)) "convert" (variant, n) (Wtrie.Storage.convert file v3);
      let t = Wtrie.Static.open_file_exn v3 in
      C_static.point ~ctx:(file ^ ", converted") t m ops;
      Wtrie.Static.close t)
    [
      ("static", "static", Oracle.legacy_n);
      ("append", "append", Oracle.legacy_n);
      ("dynamic", "dynamic", Oracle.legacy_n);
      (* its root's segment still pending *)
      ("append-pending", "append", Oracle.legacy_pending_n);
    ]

let test_legacy_directories () =
  let module C = Oracle.Check (T) in
  let dynamic = ref (Array.init 4400 Oracle.legacy_s) in
  for j = 0 to 59 do
    let len = Array.length !dynamic in
    let d = Oracle.insert !dynamic (j * 37 mod (len + 1)) (Oracle.legacy_s (j + 7)) in
    dynamic := Oracle.insert (Oracle.delete d (j * 53 mod (len + 1))) len (Oracle.legacy_s j)
  done;
  List.iter
    (fun (name, replayed, want) ->
      let dir = Oracle.copy_dir (Oracle.legacy name) ("oracle_" ^ name) in
      let r = T.recover dir in
      Alcotest.(check (pair bool int)) (name ^ " migrated, records replayed") (true, replayed)
        (r.T.r_migrated, r.T.r_replayed);
      let t, _ = T.open_ dir in
      C.run ~ctx:name t (Oracle.model want);
      T.close t;
      Oracle.rm_rf dir)
    [ ("append.d", 99, Array.init Oracle.legacy_n Oracle.legacy_s); ("dynamic.d", 180, !dynamic) ]

(* ------------------------------------------------------------------ *)
(* Served backends *)

let served ?(extra = [||]) ctx backend snap m =
  let ops = Array.append (Oracle.Gen.ops (Xoshiro.create 6) m) extra in
  List.iter
    (fun (domains, name) ->
      Oracle.serving ?domains backend snap (fun port ->
          Oracle.wire ~ctx:(Printf.sprintf "%s, domains %s" ctx name) ~port m ops))
    [ (None, "none"); (Some 2, "2") ]

(* What [wtrie serve FILE.txt] runs: the arena built in memory from
   the lines. *)
let test_served_built () =
  let a = corpus 7 300 in
  served "served in-memory build" Server.static_backend
    (Snapshot.create (Wtrie.Static.of_array a))
    (Oracle.model a)

let test_served_static () =
  let a = corpus 8 300 in
  Oracle.with_saved (Wtrie.Static.of_array a) (fun path ->
      let t = Wtrie.Static.open_file_exn ~mode:`Mmap path in
      served "served static" Server.static_backend (Snapshot.create t) (Oracle.model a);
      Wtrie.Static.close t)

(* Runs and a delta: the published view is what the server reads. *)
let test_served_tiered () =
  let a = corpus 9 300 in
  let dir = Oracle.temp_dir "oracle_served" in
  let t = T.create ~threshold:64 dir in
  Array.iter (T.ingest t) a;
  T.wait_compaction t;
  T.publish t;
  Alcotest.(check bool) "runs and a delta" true (T.run_count t > 0 && T.delta_length t > 0);
  let m = Oracle.model a and bounds = Oracle.Scenario.tier_bounds (Snapshot.read (T.handle t)) in
  let extra = Oracle.Gen.ranks m (Oracle.Gen.sides bounds) in
  served ~extra "served tiered" Server.tiered_backend (T.handle t) m;
  T.close t;
  Oracle.rm_rf dir

let () =
  Alcotest.run "wt_oracle"
    [
      ( "in-process",
        [
          Alcotest.test_case "pointer reference" `Quick test_pointer;
          Alcotest.test_case "static: built, copy, mmap" `Quick test_static;
          Alcotest.test_case "static: arena version 2" `Quick (test_static_fixture 2);
          Alcotest.test_case "static: arena version 3" `Quick (test_static_fixture 3);
          Alcotest.test_case "static: arena version 4" `Quick (test_static_fixture 4);
          Alcotest.test_case "static: arena version 5" `Quick (test_static_fixture 5);
          Alcotest.test_case "static: arena version 6" `Quick (test_static_fixture 6);
          Alcotest.test_case "static: arena version 7" `Quick (test_static_fixture 7);
          Alcotest.test_case "static: arena version 8" `Quick (test_static_fixture 8);
          Alcotest.test_case "static: byte codes at their edges" `Quick test_code_edges;
          Alcotest.test_case "append-only" `Quick test_append;
          Alcotest.test_case "dynamic and its snapshot" `Quick test_dynamic;
          tiered_scenarios;
          Alcotest.test_case "legacy v2 indexes load and convert" `Quick test_legacy_indexes;
          Alcotest.test_case "legacy directories migrate" `Quick test_legacy_directories;
        ] );
      ( "wire",
        [
          Alcotest.test_case "served in-memory build" `Quick test_served_built;
          Alcotest.test_case "served static" `Quick test_served_static;
          Alcotest.test_case "served tiered" `Quick test_served_tiered;
        ] );
    ]
