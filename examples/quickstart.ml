(* Quickstart: the indexed-sequence-of-strings API in five minutes.

   Everything an application needs lives behind the [Wtrie] front door:
   the three variants (Static / Append / Dynamic) under one uniform
   byte-string API, plus the observability layer.

   Build:  dune exec examples/quickstart.exe *)

module Bitstring = Wt_strings.Bitstring

let () =
  (* A tiny access log: the sequence order is the time order. *)
  let log =
    [
      "site.com/home"; "site.com/login"; "blog.net/post/1"; "site.com/home";
      "blog.net/post/2"; "site.com/home"; "shop.org/cart"; "blog.net/post/1";
      "site.com/logout"; "site.com/home";
    ]
  in
  let wt = Wtrie.Static.of_list log in

  Printf.printf "sequence length: %d, distinct strings: %d\n"
    (Wtrie.Static.length wt) (Wtrie.Static.distinct_count wt);

  (* Every partial query returns a result with the one shared error
     type; [Wtrie.pp_error] prints it. *)

  (* Access: what was the 4th request? *)
  (match Wtrie.Static.access wt ~pos:4 with
  | Ok s -> Printf.printf "access 4        = %s\n" s
  | Error e -> Format.printf "access 4        = error: %a@." Wtrie.pp_error e);

  (* Rank: how many times was the home page hit in the first 6 requests? *)
  (match Wtrie.Static.rank wt "site.com/home" ~pos:6 with
  | Ok c -> Printf.printf "rank home, 6    = %d\n" c
  | Error e -> Format.printf "rank home, 6    = error: %a@." Wtrie.pp_error e);

  (* Select: when was the home page hit for the third time? *)
  (match Wtrie.Static.select wt "site.com/home" ~count:2 with
  | Ok pos -> Printf.printf "select home, 2  = position %d\n" pos
  | Error e -> Format.printf "select home, 2  = %a@." Wtrie.pp_error e);

  (* Prefix operations: whole-domain queries without grouping anything. *)
  (match Wtrie.Static.rank_prefix wt ~prefix:"site.com/" ~pos:10 with
  | Ok c -> Printf.printf "rank_prefix site.com, 10 = %d\n" c
  | Error _ -> ());
  (match Wtrie.Static.select_prefix wt ~prefix:"blog.net/" ~count:1 with
  | Ok pos -> Printf.printf "2nd blog.net access at position %d\n" pos
  | Error _ -> ());

  (* Batches: hand the whole query vector to the engine and it shares
     the trie traversal between the operations — results come back in
     order, per-op errors as data. *)
  let batch =
    Wtrie.Static.query_batch wt
      [|
        Access { pos = 0 };
        Rank { s = "site.com/home"; pos = 10 };
        Select { s = "shop.org/cart"; count = 0 };
        Rank_prefix { prefix = "blog.net/"; pos = 10 };
        Select { s = "shop.org/cart"; count = 5 };
      |]
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Format.printf "batch[%d] = %a@." i Wtrie.pp_value v
      | Error e -> Format.printf "batch[%d] = error: %a@." i Wtrie.pp_error e)
    batch;

  (* Section 5 range queries on a position window (= time window):
     [?lo]/[?hi] default to the whole sequence. *)
  Printf.printf "distinct in window [2, 9):\n";
  (match Wtrie.Static.range_distinct ~lo:2 ~hi:9 wt with
  | Ok tallies -> Array.iter (fun (s, c) -> Printf.printf "  %-18s x%d\n" s c) tallies
  | Error e -> Format.printf "  error: %a@." Wtrie.pp_error e);
  (match Wtrie.Static.range_majority wt with
  | Ok (Some (s, c)) -> Printf.printf "majority of the whole log: %s (%d/10)\n" s c
  | Ok None -> Printf.printf "no majority in the whole log\n"
  | Error e -> Format.printf "majority: error: %a@." Wtrie.pp_error e);

  (* The fully dynamic version: unseen strings may arrive at any moment. *)
  let dwt = Wtrie.Dynamic.of_list log in
  Wtrie.Dynamic.insert dwt ~pos:3 "api.io/v1/users"; (* a brand-new domain *)
  Printf.printf "after insert: access 3 = %s, distinct = %d\n"
    (Result.get_ok (Wtrie.Dynamic.access dwt ~pos:3))
    (Wtrie.Dynamic.distinct_count dwt);
  Wtrie.Dynamic.delete dwt ~pos:3; (* and gone again — the alphabet shrinks back *)
  Printf.printf "after delete: distinct = %d\n" (Wtrie.Dynamic.distinct_count dwt);

  (* Space accounting vs the information-theoretic lower bound. *)
  Format.printf "space: @[%a@]@." Wtrie.Stats.pp (Wt_core.Flat_wt.stats wt);

  (* Storage: the static trie saves as a format-v3 container whose
     payload is the query structure itself, so re-opening is a checksum
     check plus an mmap — no deserialization. *)
  let path = Filename.temp_file "quickstart" ".wtx" in
  (match Wtrie.Static.save_file wt path with
  | Ok () -> (
      match Wtrie.Static.open_file path (* ~mode:`Mmap is the default *) with
      | Ok wt2 ->
          Printf.printf "reopened from %s: length %d, home hits %d\n"
            (Filename.basename path) (Wtrie.Static.length wt2)
            (Wtrie.Static.count wt2 "site.com/home");
          Wtrie.Static.close wt2;
          (* after close, queries fail deterministically: *)
          (match Wtrie.Static.access wt2 ~pos:0 with
          | Error e -> Format.printf "after close: %a@." Wtrie.pp_error e
          | Ok _ -> assert false)
      | Error e -> Format.printf "open failed: %a@." Wtrie.pp_error e)
  | Error e -> Format.printf "save failed: %a@." Wtrie.pp_error e);
  Sys.remove path;

  (* Observability: flip the probes on, run some queries, snapshot a
     report (operation counters, traversal work, latency histograms). *)
  Wtrie.Probe.enable ();
  ignore (Wtrie.Static.count wt "site.com/home");
  ignore (Wtrie.Static.access wt ~pos:0);
  Format.printf "@.telemetry for the two queries above:@.%a@." Wtrie.Report.pp
    (Wtrie.Report.capture ());
  Wtrie.Probe.disable ();
  Wtrie.Probe.reset ();

  (* And the structure itself, in the style of the paper's Figure 2. *)
  let tiny =
    Wt_core.Wavelet_trie.of_list
      (List.map Bitstring.of_string
         [ "0001"; "0011"; "0100"; "00100"; "0100"; "00100"; "0100" ])
  in
  Format.printf "@.the paper's Figure 2 trie:@.%a@." Wt_core.Wavelet_trie.pp tiny
