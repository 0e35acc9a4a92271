(* The range suite's byte façade (Wt_core.Range): select_all /
   range_count / range_distinct / range_topk / range_majority /
   range_at_least / range_quantile against the one oracle (oracle.ml),
   QCheck-driven on all three variants;
   interleaved dynamic inserts/deletes; frozen-snapshot reads while the
   owner mutates; the window/argument error contract; and the
   Analytics_* probe counters. *)

module Xoshiro = Wt_bits.Xoshiro
module I = Wt_core.Indexed_sequence
module Probe = Wt_obs.Probe

let check_int = Alcotest.(check int)
let positions = Alcotest.(array int)
let tallies = Alcotest.(array (pair string int))

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Format.asprintf "%a" I.pp_error e)

module Static_check = Oracle.Check (Wtrie.Static)
module Append_check = Oracle.Check (Wtrie.Append)
module Dynamic_check = Oracle.Check (Wtrie.Dynamic)

(* One (window, prefix, k) case of every range op against the oracle. *)
let check_dynamic ctx wt arr ?prefix ~lo ~hi ~k () =
  Dynamic_check.range ~ctx ~windows:[ (lo, hi) ] ~prefixes:[ prefix ] ~ks:[ k ] wt
    (Oracle.model arr)

(* ------------------------------------------------------------------ *)
(* QCheck property: random short-alphabet sequences (heavy collisions,
   so tallies and ties are exercised), random windows, random prefixes
   including the empty one. *)

let word_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 1 4))

let case_gen =
  let open QCheck.Gen in
  list_size (int_range 0 120) word_gen >>= fun xs ->
  let n = List.length xs in
  int_range 0 n >>= fun lo ->
  int_range lo n >>= fun hi ->
  oneof
    [
      return None;
      map Option.some (string_size ~gen:(char_range 'a' 'c') (int_range 0 2));
    ]
  >>= fun prefix ->
  int_range 0 6 >>= fun k -> return (xs, lo, hi, prefix, k)

let case_print (xs, lo, hi, prefix, k) =
  Printf.sprintf "[%s] lo=%d hi=%d prefix=%s k=%d" (String.concat "," xs) lo hi
    (match prefix with None -> "<none>" | Some p -> Printf.sprintf "%S" p)
    k

let qcheck_oracle =
  QCheck.Test.make ~count:200 ~name:"range ops = naive loop (all variants)"
    (QCheck.make ~print:case_print case_gen)
    (fun (xs, lo, hi, prefix, k) ->
      let arr = Array.of_list xs in
      let m = Oracle.model arr in
      let windows = [ (lo, hi) ] and prefixes = [ prefix ] and ks = [ k ] in
      Static_check.range ~ctx:"static" ~windows ~prefixes ~ks (Wtrie.Static.of_array arr) m;
      Append_check.range ~ctx:"append" ~windows ~prefixes ~ks (Wtrie.Append.of_array arr) m;
      Dynamic_check.range ~ctx:"dynamic" ~windows ~prefixes ~ks (Wtrie.Dynamic.of_array arr) m;
      true)

(* ------------------------------------------------------------------ *)
(* Golden URL-log cases: defaults (?lo/?hi omitted), prefix narrowing,
   the tie-break direction. *)

let urls =
  [|
    "site.com/home"; "site.com/login"; "blog.net/post"; "site.com/home";
    "shop.org/cart"; "site.com/home"; "blog.net/post"; "site.com/api/v1";
  |]

let test_golden () =
  let wt = Wtrie.Append.of_array urls in
  Alcotest.check positions "select_all defaults" [| 0; 1; 3; 5; 7 |]
    (ok (Wtrie.Append.select_all ~prefix:"site.com/" wt));
  Alcotest.check positions "select_all window" [| 3; 5 |]
    (ok (Wtrie.Append.select_all ~prefix:"site.com/home" ~lo:1 ~hi:6 wt));
  check_int "range_count" 2 (ok (Wtrie.Append.range_count ~prefix:"blog.net/" wt ~lo:2 ~hi:8));
  Alcotest.check tallies "distinct window"
    [| ("blog.net/post", 2); ("shop.org/cart", 1); ("site.com/api/v1", 1); ("site.com/home", 2) |]
    (ok (Wtrie.Append.range_distinct ~lo:2 ~hi:8 wt));
  (* counts tie at 2: blog.net/post sorts before site.com/home *)
  Alcotest.check tallies "topk tie-break"
    [| ("blog.net/post", 2); ("site.com/home", 2) |]
    (ok (Wtrie.Append.range_topk ~lo:2 ~hi:8 wt ~k:2));
  Alcotest.check tallies "topk k beyond distinct"
    [| ("site.com/home", 3); ("blog.net/post", 2); ("shop.org/cart", 1);
       ("site.com/api/v1", 1); ("site.com/login", 1) |]
    (ok (Wtrie.Append.range_topk wt ~k:99))

(* ------------------------------------------------------------------ *)
(* Dynamic variant: interleaved inserts/deletes, cross-checked against
   a maintained naive array every few mutations. *)

let test_dynamic_interleaved () =
  let rng = Xoshiro.create 77 in
  let wt = Wtrie.Dynamic.create () and mirror = ref [||] in
  let word () = Printf.sprintf "h%d.net/%d" (Xoshiro.int rng 5) (Xoshiro.int rng 13) in
  for step = 1 to 240 do
    let n = Array.length !mirror in
    (match Xoshiro.int rng 3 with
    | 0 when n > 4 ->
        let pos = Xoshiro.int rng n in
        Wtrie.Dynamic.delete wt ~pos;
        mirror := Oracle.delete !mirror pos
    | 1 ->
        let s = word () in
        Wtrie.Dynamic.append wt s;
        mirror := Oracle.insert !mirror n s
    | _ ->
        let s = word () in
        let pos = Xoshiro.int rng (n + 1) in
        Wtrie.Dynamic.insert wt ~pos s;
        mirror := Oracle.insert !mirror pos s);
    if step mod 20 = 0 then begin
      let arr = !mirror in
      let n = Array.length arr in
      let lo = Xoshiro.int rng (n + 1) in
      let hi = lo + Xoshiro.int rng (n - lo + 1) in
      let prefix = if Xoshiro.int rng 2 = 0 then None else Some (Printf.sprintf "h%d." (Xoshiro.int rng 5)) in
      check_dynamic "dynamic-interleaved" wt arr ?prefix ~lo ~hi ~k:(Xoshiro.int rng 5) ()
    end
  done

(* Snapshot isolation: a frozen snapshot keeps answering from the
   captured state while the owner keeps mutating. *)
let test_snapshot_reads () =
  let wt = Wtrie.Dynamic.of_array urls in
  let frozen = Array.copy urls in
  let snap = Wtrie.Dynamic.snapshot wt in
  (* owner churn after the snapshot *)
  for i = 0 to 49 do
    Wtrie.Dynamic.insert wt ~pos:0 (Printf.sprintf "new%d" i)
  done;
  Wtrie.Dynamic.delete wt ~pos:3;
  check_dynamic "snapshot" snap frozen ~prefix:"site.com/" ~lo:1 ~hi:7 ~k:3 ();
  check_dynamic "snapshot-nopfx" snap frozen ~lo:0 ~hi:(Array.length frozen) ~k:2 ();
  (* and the owner answers from its mutated state *)
  check_int "owner count" 1
    (ok (Wtrie.Dynamic.range_count ~prefix:"new7" wt ~lo:0 ~hi:(Wtrie.Dynamic.length wt)))

(* ------------------------------------------------------------------ *)
(* Error contract and degenerate windows. *)

let test_errors () =
  let wt = Wtrie.Append.of_array [| "a"; "b"; "a"; "c"; "a" |] in
  let err r = match r with Ok _ -> Alcotest.fail "expected error" | Error e -> e in
  Alcotest.(check bool) "lo negative" true
    (err (Wtrie.Append.select_all ~lo:(-1) wt) = I.Position_out_of_bounds { pos = -1; len = 5 });
  Alcotest.(check bool) "hi beyond n" true
    (err (Wtrie.Append.range_distinct ~hi:6 wt) = I.Position_out_of_bounds { pos = 6; len = 5 });
  Alcotest.(check bool) "hi < lo" true
    (err (Wtrie.Append.range_count wt ~lo:3 ~hi:2) = I.Position_out_of_bounds { pos = 2; len = 5 });
  Alcotest.(check bool) "negative k" true
    (err (Wtrie.Append.range_topk wt ~k:(-2)) = I.Negative_count { count = -2 });
  Alcotest.check tallies "k = 0" [||] (ok (Wtrie.Append.range_topk wt ~k:0));
  Alcotest.(check bool) "negative quantile" true
    (err (Wtrie.Append.range_quantile wt ~k:(-1)) = I.Negative_count { count = -1 });
  Alcotest.(check bool) "majority hi beyond n" true
    (err (Wtrie.Append.range_majority ~hi:6 wt) = I.Position_out_of_bounds { pos = 6; len = 5 });
  Alcotest.(check (option string)) "quantile past the window" None
    (ok (Wtrie.Append.range_quantile ~lo:1 ~hi:3 wt ~k:2));
  Alcotest.(check (option (pair string int))) "majority" (Some ("a", 3))
    (ok (Wtrie.Append.range_majority wt));
  Alcotest.(check (option (pair string int))) "no majority" None
    (ok (Wtrie.Append.range_majority ~lo:1 ~hi:5 wt));
  (* a threshold below 1 answers as 1: every string present *)
  Alcotest.check tallies "threshold 0" [| ("a", 3); ("b", 1); ("c", 1) |]
    (ok (Wtrie.Append.range_at_least wt ~threshold:0));
  Alcotest.check tallies "threshold negative" [| ("a", 1); ("c", 1) |]
    (ok (Wtrie.Append.range_at_least ~lo:2 ~hi:4 wt ~threshold:(-5)));
  Alcotest.check positions "absent prefix" [||]
    (ok (Wtrie.Append.select_all ~prefix:"zzz" wt));
  check_int "absent prefix count" 0 (ok (Wtrie.Append.range_count ~prefix:"zzz" wt ~lo:0 ~hi:5));
  Alcotest.check tallies "empty window" [||]
    (ok (Wtrie.Append.range_distinct ~lo:2 ~hi:2 wt));
  (* empty sequence: every default-window op answers, empty *)
  let e = Wtrie.Append.create () in
  Alcotest.check positions "empty seq select_all" [||] (ok (Wtrie.Append.select_all e));
  Alcotest.check tallies "empty seq distinct" [||] (ok (Wtrie.Append.range_distinct e));
  Alcotest.check tallies "empty seq topk" [||] (ok (Wtrie.Append.range_topk e ~k:3));
  check_int "empty seq count" 0 (ok (Wtrie.Append.range_count e ~lo:0 ~hi:0));
  Alcotest.(check (option (pair string int))) "empty seq majority" None
    (ok (Wtrie.Append.range_majority e));
  Alcotest.(check (option string)) "empty seq quantile" None
    (ok (Wtrie.Append.range_quantile e ~k:0))

(* ------------------------------------------------------------------ *)
(* Observability: one counter hit per front-door call. *)

let test_probes () =
  let wt = Wtrie.Append.of_array urls in
  Probe.reset ();
  Probe.enable ();
  ignore (ok (Wtrie.Append.select_all ~prefix:"site.com/" wt));
  ignore (ok (Wtrie.Append.range_count wt ~lo:0 ~hi:4));
  ignore (ok (Wtrie.Append.range_distinct wt));
  ignore (ok (Wtrie.Append.range_topk wt ~k:2));
  ignore (ok (Wtrie.Append.range_topk wt ~k:1));
  Probe.disable ();
  check_int "select_all counter" 1 (Probe.counter Wt_obs.Metric.Analytics_select_all);
  check_int "range_count counter" 1 (Probe.counter Wt_obs.Metric.Analytics_range_count);
  check_int "distinct counter" 1 (Probe.counter Wt_obs.Metric.Analytics_distinct);
  check_int "topk counter" 2 (Probe.counter Wt_obs.Metric.Analytics_topk);
  Probe.reset ()

let () =
  Alcotest.run "wt_analytics"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest qcheck_oracle;
          Alcotest.test_case "golden url-log" `Quick test_golden;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "interleaved mutations" `Quick test_dynamic_interleaved;
          Alcotest.test_case "frozen snapshot reads" `Quick test_snapshot_reads;
        ] );
      ("errors", [ Alcotest.test_case "window/argument contract" `Quick test_errors ]);
      ("probes", [ Alcotest.test_case "analytics counters" `Quick test_probes ]);
    ]
