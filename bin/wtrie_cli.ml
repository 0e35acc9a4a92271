(* wtrie — index a file of lines as a compressed sequence of strings and
   query it: the paper's Access/Rank/Select/RankPrefix/SelectPrefix plus
   the Section 5 range queries (distinct, majority, at-least, top-k,
   quantile), from the command line.  Every query command answers
   through the one [Wtrie.QUERY_API], whatever the source.

     dune exec bin/wtrie_cli.exe -- stats mylog.txt
     dune exec bin/wtrie_cli.exe -- rank mylog.txt "GET /index.html"
     dune exec bin/wtrie_cli.exe -- prefix-count mylog.txt "GET /api/"
     dune exec bin/wtrie_cli.exe -- majority mylog.txt --lo 1000 --hi 2000

   Each line of the file is one element of the sequence, in order.
   Sources go through one front door, and every file source is the one
   static representation, the flat arena: a line file builds one in
   memory, a saved index opens via [Wtrie.Storage] (format v3 maps the
   arena in place — O(1), zero-copy; a read-only format-v2 index of any
   variant is flattened on load), and a store directory opens its runs
   and replays its WAL.  Pass [--stats] to any query command to get the
   observability report (operation counters, latency histograms,
   space-vs-LB breakdown) on stderr.

   Durability: [index] writes a checksummed format-v3 static index
   atomically; [convert] rewrites any readable index as one; [ingest]
   appends to a crash-safe tiered store directory; [verify] deep-checks
   every form and [recover] truncates a torn WAL tail, completes an
   interrupted commit, compacts the delta, and migrates a snapshot+WAL
   directory of earlier versions.  Query commands accept a line file, a
   saved index or a store directory interchangeably. *)

module Stats = Wt_core.Stats
module Storage = Wtrie.Storage
module Json = Wtrie.Json
open Cmdliner

let read_lines path =
  let ic =
    if path = "-" then stdin
    else
      (* I/O failures (missing file, permissions) are exit 74 (EX_IOERR),
         distinct from 64 (bad arguments) and 2 (cannot run) *)
      try open_in path
      with Sys_error msg ->
        Printf.eprintf "wtrie: %s\n" msg;
        exit 74
  in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  if path <> "-" then close_in ic;
  Array.of_list (List.rev !lines)

(* What a query command runs against: a flat static arena (line files
   and every index file) or a tiered store.  Every query command, range
   queries included, goes through the uniform QUERY_API via [pack]; only
   stats, index and the serving commands match on the source. *)
type src = Flat of Wtrie.Static.t | Tier of Wtrie.Tiered.t

type packed = Packed : (module Wtrie.QUERY_API with type t = 'a) * 'a -> packed

let pack = function
  | Flat wt -> Packed ((module Wtrie.Static), wt)
  | Tier t -> Packed ((module Wtrie.Tiered), t)

let src_length src =
  let (Packed ((module Q), wt)) = pack src in
  Q.length wt

(* Build from a line file, or load directly when given a saved index or
   a store directory — every stored form behind [Wtrie.Storage], so a
   v3 index is an mmap away. *)
let build path =
  if path <> "-" && Sys.file_exists path && Sys.is_directory path then begin
    let t, r = Wtrie.Tiered.open_read_only path in
    if r.Wtrie.Tiered.r_dropped_bytes > 0 || r.Wtrie.Tiered.r_wal_reset then
      Printf.eprintf
        "warning: %s has a torn write-ahead log (%d bytes unrecovered); run 'wtrie recover %s'\n"
        path r.Wtrie.Tiered.r_dropped_bytes path;
    Tier t
  end
  else if path <> "-" && Sys.file_exists path && Storage.is_index_file path then
    Flat (Storage.load_index path)
  else Flat (Wtrie.Static.of_array (read_lines path))

(* Observability plumbing: when requested, probes cover the whole
   command (build + queries) and the report lands on stderr so stdout
   stays script-friendly. *)

let src_stats = function
  | Flat wt -> ("static", Wt_core.Flat_wt.stats wt)
  | Tier t -> ("tiered", Wtrie.Tiered.stats t)

let capture_report src =
  let variant, st = src_stats src in
  let r = Wtrie.Report.capture ~space:[ Wtrie.Stats.to_breakdown ~variant st ] () in
  Wtrie.Probe.disable ();
  Wtrie.Probe.reset ();
  r

let with_stats enabled f =
  if not enabled then ignore (f () : src)
  else begin
    Wtrie.Probe.reset ();
    Wtrie.Probe.enable ();
    let src = f () in
    Format.eprintf "%a@." Wtrie.Report.pp (capture_report src)
  end

(* common arguments *)
let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Input file; one string per line ('-' for stdin).")

let lo_arg =
  Arg.(value & opt int 0 & info [ "lo" ] ~docv:"LO" ~doc:"Range start position (inclusive).")

let hi_arg =
  Arg.(value & opt (some int) None & info [ "hi" ] ~docv:"HI" ~doc:"Range end position (exclusive; default: sequence length).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print the observability report (operation counters, latency histograms, space breakdown) to stderr.")

(* Malformed query arguments (positions/windows out of bounds, negative
   occurrence counts, ...) print the shared [Wtrie.pp_error] rendering
   and exit 64 (EX_USAGE) — distinct from 1 (query answered: no result),
   2 (cannot run at all) and the verify/durability codes. *)
let fail_query e =
  Format.eprintf "%a@." Wtrie.pp_error e;
  exit 64

let or_fail = function Ok v -> v | Error e -> fail_query e

(* One "COUNT  STRING" line per tally, for every command that lists
   strings with their window counts. *)
let print_tallies items = Array.iter (fun (s, c) -> Printf.printf "%8d  %s\n" c s) items

let index_cmd =
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output index file.")
  in
  let run file out =
    (* a line file or an index is already an arena; a store's tiers
       merge node by node into one *)
    let wt = match build file with Flat wt -> wt | Tier t -> Wtrie.Tiered.to_flat t in
    (* save_file writes atomically: a crash mid-save leaves any
       previous index at OUT intact.  The payload is the flat arena
       itself, so later opens are an mmap, not a deserialize. *)
    (match Wtrie.Static.save_file wt out with
    | Ok () -> ()
    | Error e -> fail_query e);
    Printf.printf "indexed %d strings into %s\n" (Wtrie.Static.length wt) out
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Build the static index once and save it atomically (format v3: the file is the query structure; opening it back is an O(1) mmap).  Query commands accept it in place of the text file.")
    Term.(const run $ file_arg $ out)

let convert_cmd =
  let src_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SRC" ~doc:"Existing index file (any format version or variant).")
  in
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output index file (format v3, static).")
  in
  let run src out =
    let variant, n = Storage.convert src out in
    Printf.printf "converted %s (%s index, length %d) into %s (v3 static)\n" src variant n
      out
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Rewrite any readable index as a format-v3 static index: the flat arena as the container payload, mmap-opened in O(1) by every other command.")
    Term.(const run $ src_arg $ out)

(* ------------------------------------------------------------------ *)
(* Durability commands: ingest (crash-safe tiered store), verify,
   recover. *)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")

let ingest_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc:"Store directory (created on first use).")
  in
  let file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Input file; one string per line ('-' for stdin).")
  in
  let compact_strings =
    Arg.(value & opt (some int) None & info [ "compact-strings" ] ~docv:"N" ~doc:"Compact the delta into a run once it holds N strings.")
  in
  let run dir file compact_strings =
    let lines = read_lines file in
    (match compact_strings with
    | Some n when n < 1 ->
        Printf.eprintf "wtrie ingest: --compact-strings must be >= 1 (got %d)\n" n;
        exit 64
    | _ -> ());
    let module T = Wtrie.Tiered in
    let t =
      if T.is_store dir then begin
        let t, r = T.open_ ?threshold:compact_strings dir in
        if r.T.r_replayed > 0 || r.T.r_dropped_bytes > 0 || r.T.r_rolled_forward then
          Printf.eprintf
            "recovered %s: %d WAL records replayed, %d torn bytes dropped%s\n" dir
            r.T.r_replayed r.T.r_dropped_bytes
            (if r.T.r_rolled_forward then ", mid-compaction commit completed" else "");
        t
      end
      else T.create ?threshold:compact_strings dir
    in
    Array.iter (T.ingest t) lines;
    T.wait_compaction t;
    T.flush t;
    let len = T.length t and gen = T.generation t in
    let runs = T.run_count t and delta = T.delta_length t in
    T.close t;
    Printf.printf
      "ingested %d strings into %s (tiered, length %d, generation %d, %d runs + %d in delta)\n"
      (Array.length lines) dir len gen runs delta
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Append a file of lines to a crash-safe tiered store (write-ahead logged; survives being killed mid-append): a small delta, immutable runs, and background compaction.")
    Term.(const run $ dir $ file $ compact_strings)

let verify_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INDEX" ~doc:"Index file or store directory.")
  in
  let run path json =
    let emit obj = print_endline (Json.to_string (Json.Obj obj)) in
    let codes_json codes =
      Json.Obj
        (List.map
           (fun (c : Wt_core.Flat_wt.code_stats) ->
             (c.code, Json.Obj [ ("blobs", Json.Int c.blobs); ("bits", Json.Int c.bits) ]))
           codes)
    in
    let codes_text codes =
      "beta codes: "
      ^ String.concat ", "
          (List.map
             (fun (c : Wt_core.Flat_wt.code_stats) ->
               Printf.sprintf "%s %d blobs %d bits" c.code c.blobs c.bits)
             codes)
    in
    (* a byte-string arena stores labels without their marker bits, the
       internal ones from version 8 *)
    let labels_json (l : Wt_core.Flat_wt.layout) =
      Json.Obj
        [
          ("stored", Json.Int l.stored_label_bits);
          ("logical", Json.Int l.logical_label_bits);
          ( "internal",
            Json.Obj
              [
                ("stored", Json.Int l.internal_stored_bits);
                ("logical", Json.Int l.internal_logical_bits);
              ] );
        ]
    in
    let labels_text (l : Wt_core.Flat_wt.layout) =
      Printf.sprintf "labels: %d bits stored, %d logical (internal: %d stored, %d logical)"
        l.stored_label_bits l.logical_label_bits l.internal_stored_bits l.internal_logical_bits
    in
    (* and codes each whole byte of a label in a byte code of its kind:
       the bytes it codes, its shortest and longest codeword, and the
       mean bits of a coded label byte *)
    let byte_code_json = function
      | None -> Json.Null
      | Some (c : Wt_core.Flat_wt.byte_code) ->
          Json.Obj
            [
              ("bytes", Json.Int c.bytes);
              ("shortest", Json.Int c.shortest);
              ("longest", Json.Int c.longest);
              ("mean_bits", Json.Float (Wt_core.Flat_wt.mean_bits c));
            ]
    in
    let byte_codes_json (l : Wt_core.Flat_wt.layout) =
      Json.Obj
        [
          ("set", Json.Int l.byte_set_size);
          ("leaf", byte_code_json l.leaf_code);
          ("internal", byte_code_json l.internal_code);
        ]
    in
    let byte_code_text kind = function
      | None -> kind ^ " none"
      | Some (c : Wt_core.Flat_wt.byte_code) when c.bytes = 0 -> kind ^ " 0 bytes"
      | Some (c : Wt_core.Flat_wt.byte_code) ->
          Printf.sprintf "%s %d bytes in %d to %d bits, %.2f per byte" kind c.bytes c.shortest
            c.longest (Wt_core.Flat_wt.mean_bits c)
    in
    let byte_codes_text (l : Wt_core.Flat_wt.layout) =
      if l.byte_set_size = 0 then "byte codes: none"
      else
        Printf.sprintf "byte codes: B %d bytes; %s; %s" l.byte_set_size
          (byte_code_text "leaf" l.leaf_code)
          (byte_code_text "internal" l.internal_code)
    in
    match
      if Sys.file_exists path && Sys.is_directory path then begin
        let module T = Wtrie.Tiered in
        let r = T.verify path in
        (* (arena version, runs at it), by version *)
        let versions =
          let of_run (run : T.run_report) = run.run_version in
          List.sort_uniq compare (List.map of_run r.T.v_run_reports)
          |> List.map (fun v ->
                 (v, List.length (List.filter (fun run -> of_run run = v) r.T.v_run_reports)))
        in
        if json then
          emit
            [
              ("ok", Json.Bool r.T.v_clean);
              ("kind", Json.Str "store");
              ("variant", Json.Str "tiered");
              ("generation", Json.Int r.T.v_generation);
              ("runs", Json.Int r.T.v_runs);
              ( "run_arena_versions",
                Json.Obj (List.map (fun (v, k) -> (string_of_int v, Json.Int k)) versions) );
              ( "run_reports",
                Json.List
                  (List.map
                     (fun (run : T.run_report) ->
                       Json.Obj
                         [
                           ("file", Json.Str run.run_file);
                           ("arena_version", Json.Int run.run_version);
                           ("length", Json.Int run.run_length);
                           ("beta_codes", codes_json run.run_layout.codes);
                           ("label_bits", labels_json run.run_layout);
                           ("byte_codes", byte_codes_json run.run_layout);
                         ])
                     r.T.v_run_reports) );
              ("length", Json.Int r.T.v_length);
              ("distinct", Json.Int r.T.v_distinct);
              ("wal_records", Json.Int r.T.v_wal_records);
              ("wal_dropped_bytes", Json.Int r.T.v_dropped_bytes);
              ("wal_reset_needed", Json.Bool r.T.v_wal_reset);
              ("rolled_forward", Json.Bool r.T.v_rolled_forward);
            ]
        else if r.T.v_clean then begin
          Printf.printf
            "%s: ok (tiered store, generation %d, %d runs%s, length %d, wal records %d)\n"
            path r.T.v_generation r.T.v_runs
            (if versions = [] then ""
             else
               Printf.sprintf " (%s)"
                 (String.concat ", "
                    (List.map (fun (v, k) -> Printf.sprintf "%d at arena version %d" k v)
                       versions)))
            r.T.v_length r.T.v_wal_records;
          List.iter
            (fun (run : T.run_report) ->
              Printf.printf "  %s: arena version %d, length %d, %s; %s; %s\n" run.run_file
                run.run_version run.run_length
                (codes_text run.run_layout.codes)
                (labels_text run.run_layout)
                (byte_codes_text run.run_layout))
            r.T.v_run_reports
        end
        else
          Printf.printf
            "%s: recoverable (tiered store, %d wal records intact, %d bytes torn%s%s); run 'wtrie recover %s'\n"
            path r.T.v_wal_records r.T.v_dropped_bytes
            (if r.T.v_wal_reset then ", wal header reset needed" else "")
            (if r.T.v_rolled_forward then ", mid-compaction commit pending" else "")
            path;
        r.T.v_clean
      end
      else begin
        let tag, length, version, layout = Storage.verify_index path in
        if json then
          emit
            ([
               ("ok", Json.Bool true);
               ("kind", Json.Str "file");
               ("variant", Json.Str tag);
               ("length", Json.Int length);
               ("arena_version", match version with Some v -> Json.Int v | None -> Json.Null);
             ]
            @
            if version = None then []
            else
              [
                ("beta_codes", codes_json layout.codes);
                ("label_bits", labels_json layout);
                ("byte_codes", byte_codes_json layout);
              ])
        else begin
          Printf.printf "%s: ok (%s index%s, length %d)\n" path tag
            (match version with Some v -> Printf.sprintf ", arena version %d" v | None -> "")
            length;
          (* a format-v2 file's arena is built on load: its codes are not the file's *)
          if version <> None then
            Printf.printf "  %s\n  %s\n  %s\n" (codes_text layout.codes) (labels_text layout)
              (byte_codes_text layout)
        end;
        true
      end
    with
    | true -> ()
    | false -> exit 1
    | exception Storage.Format_error msg ->
        if json then
          emit [ ("ok", Json.Bool false); ("error", Json.Str msg) ]
        else Printf.eprintf "%s: corrupt: %s\n" path msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Deep-verify an index file or store: checksums, WAL scan, structural invariants.  Exit 0 clean, 1 recoverable, 2 corrupt.")
    Term.(const run $ path $ json_arg)

let recover_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc:"Store directory.")
  in
  let run path json =
    let module T = Wtrie.Tiered in
    match T.recover path with
    | r ->
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("ok", Json.Bool true);
                    ("replayed", Json.Int r.T.r_replayed);
                    ("dropped_bytes", Json.Int r.T.r_dropped_bytes);
                    ("wal_reset", Json.Bool r.T.r_wal_reset);
                    ("rolled_forward", Json.Bool r.T.r_rolled_forward);
                    ("migrated", Json.Bool r.T.r_migrated);
                    ("generation", Json.Int r.T.r_generation);
                  ]))
        else
          Printf.printf
            "recovered %s: replayed %d records, dropped %d bytes%s%s, delta compacted into a run\n"
            path r.T.r_replayed r.T.r_dropped_bytes
            (if r.T.r_migrated then ", migrated a snapshot+WAL store" else "")
            (if r.T.r_rolled_forward then ", completed a mid-compaction commit" else "")
    | exception Storage.Format_error msg ->
        if json then
          print_endline
            (Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]))
        else Printf.eprintf "%s: unrecoverable: %s\n" path msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Replay a store's WAL, truncate any torn tail, complete an interrupted commit and compact the delta into a run.  A snapshot+WAL directory of earlier versions is migrated into a tiered store first.")
    Term.(const run $ path $ json_arg)

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full observability report as JSON on stdout (same shape as the bench metrics block).")
  in
  let run file json =
    Wtrie.Probe.reset ();
    Wtrie.Probe.enable ();
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    ignore (Q.count_prefix wt ~prefix:"");
    let _, st = src_stats src in
    let report = capture_report src in
    if json then print_endline (Wtrie.Report.to_json_string report)
    else begin
      Format.printf "%a@." Stats.pp st;
      Printf.printf "distinct strings: %d\n" (Q.distinct_count wt);
      Format.printf "%a@." Wtrie.Report.pp report
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Build the index and report its space against the LB, plus the observability report.")
    Term.(const run $ file_arg $ json)

(* The query subcommands share one argument convention: [--at POS] for
   positions, [--prefix P] for byte prefixes, [--count K] for occurrence
   indices/limits.  Query errors print via [Wtrie.pp_error] and exit 64. *)

let at_arg ~doc = Arg.(value & opt (some int) None & info [ "at" ] ~docv:"POS" ~doc)

let prefix_arg =
  Arg.(required & opt (some string) None & info [ "prefix" ] ~docv:"PREFIX" ~doc:"Byte prefix to match against stored strings.")

let count_arg ~doc = Arg.(value & opt (some int) None & info [ "count" ] ~docv:"K" ~doc)

let access_cmd =
  let at = Arg.(required & opt (some int) None & info [ "at" ] ~docv:"POS" ~doc:"Position to read.") in
  let run file at stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    print_endline (or_fail (Q.access wt ~pos:at));
    src
  in
  Cmd.v (Cmd.info "access" ~doc:"Print the string at position --at.")
    Term.(const run $ file_arg $ at $ stats_arg)

let rank_cmd =
  let s = Arg.(required & pos 1 (some string) None & info [] ~docv:"STRING") in
  let at = at_arg ~doc:"Count occurrences before POS (default: sequence length)." in
  let run file s at stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    let pos = match at with None -> Q.length wt | Some p -> p in
    Printf.printf "%d\n" (or_fail (Q.rank wt s ~pos));
    src
  in
  Cmd.v (Cmd.info "rank" ~doc:"Count occurrences of STRING before --at.")
    Term.(const run $ file_arg $ s $ at $ stats_arg)

let select_cmd =
  let s = Arg.(required & pos 1 (some string) None & info [] ~docv:"STRING") in
  let count =
    Arg.(required & opt (some int) None & info [ "count" ] ~docv:"K" ~doc:"Occurrence index (0-based).")
  in
  let run file s count stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    Printf.printf "%d\n" (or_fail (Q.select wt s ~count));
    src
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Position of the --count-th (0-based) occurrence of STRING.")
    Term.(const run $ file_arg $ s $ count $ stats_arg)

let prefix_count_cmd =
  let at = at_arg ~doc:"Count matches before POS (default: sequence length)." in
  let run file p at stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    (match at with
    | None -> Printf.printf "%d\n" (or_fail (Q.rank_prefix wt ~prefix:p ~pos:(Q.length wt)))
    | Some pos -> Printf.printf "%d\n" (or_fail (Q.rank_prefix wt ~prefix:p ~pos)));
    src
  in
  Cmd.v
    (Cmd.info "prefix-count" ~doc:"Count strings starting with --prefix before --at.")
    Term.(const run $ file_arg $ prefix_arg $ at $ stats_arg)

let prefix_list_cmd =
  let count = count_arg ~doc:"Print at most K matches (default 20)." in
  let run file p count stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    let limit = match count with None -> 20 | Some k -> k in
    (* two batches: the SelectPrefix of every match listed, then the
       Access at each position found; sized by the matches, so a huge
       --count allocates nothing extra *)
    let k = max 0 (min limit (or_fail (Q.rank_prefix wt ~prefix:p ~pos:(Q.length wt)))) in
    let batch ops value = Array.map (fun r -> value (or_fail r)) (Q.query_batch wt ops) in
    let positions =
      batch
        (Array.init k (fun count -> Wtrie.Select_prefix { prefix = p; count }))
        (function Wtrie.Int pos -> pos | Wtrie.Str _ -> assert false)
    in
    let strings =
      batch
        (Array.map (fun pos -> Wtrie.Access { pos }) positions)
        (function Wtrie.Str s -> s | Wtrie.Int _ -> assert false)
    in
    Array.iter2 (fun pos s -> Printf.printf "%8d  %s\n" pos s) positions strings;
    src
  in
  Cmd.v
    (Cmd.info "prefix-list"
       ~doc:"List the first occurrences of strings starting with --prefix (SelectPrefix).")
    Term.(const run $ file_arg $ prefix_arg $ count $ stats_arg)

(* ------------------------------------------------------------------ *)
(* Trace mode: run a Zipf-skewed query batch under span tracing and
   export Chrome trace_event JSON for Perfetto / chrome://tracing. *)

let trace_cmd =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Input file, saved index or store directory; omitted: a synthetic URL-log workload is generated.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"OUT" ~doc:"Write the Chrome trace_event JSON here (load it in Perfetto or chrome://tracing).")
  in
  let gen_ops =
    Arg.(value & opt int 10_000 & info [ "gen-ops" ] ~docv:"N" ~doc:"Number of queries in the traced batch (positions and strings drawn Zipf-skewed).")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc:"Execute the traced batch on up to $(docv) domains; shard spans then cross domains in the trace.")
  in
  let sample =
    Arg.(value & opt int 1 & info [ "sample" ] ~docv:"N" ~doc:"Record every $(docv)-th root span (with its whole subtree); 1 records everything.")
  in
  let run file out gen_ops domains sample =
    if gen_ops < 1 then begin
      Printf.eprintf "--gen-ops must be >= 1 (got %d)\n" gen_ops;
      exit 2
    end;
    let src =
      match file with
      | Some f -> build f
      | None ->
          Flat
            (Wtrie.Static.of_array
               (Wt_workload.Urls.raw_sequence (Wt_workload.Urls.create ~seed:42 ()) 4096))
    in
    let (Packed ((module Q), wt)) = pack src in
    let n = Q.length wt in
    if n = 0 then begin
      Printf.eprintf "cannot trace over an empty sequence\n";
      exit 2
    end;
    (* Zipf-skewed op mix: positions and query strings are drawn from
       the same skewed rank distribution the bench uses, so the trace
       shows the cache behaviour of a realistic batch. *)
    let rng = Wt_bits.Xoshiro.create 11 in
    let zipf = Wt_workload.Zipf.create n in
    let str_at pos =
      match Q.access wt ~pos with Ok s -> s | Error _ -> assert false
    in
    let ops =
      Array.init gen_ops (fun i ->
          let pos = Wt_workload.Zipf.sample zipf rng in
          match i mod 5 with
          | 0 -> Wtrie.Access { pos }
          | 1 -> Wtrie.Rank { s = str_at pos; pos = Wt_bits.Xoshiro.int rng (n + 1) }
          | 2 -> Wtrie.Select { s = str_at pos; count = Wt_bits.Xoshiro.int rng 4 }
          | 3 ->
              let s = str_at pos in
              let plen = min (String.length s) (1 + Wt_bits.Xoshiro.int rng 8) in
              Wtrie.Rank_prefix { prefix = String.sub s 0 plen; pos = Wt_bits.Xoshiro.int rng (n + 1) }
          | _ ->
              let s = str_at pos in
              let plen = min (String.length s) (1 + Wt_bits.Xoshiro.int rng 8) in
              Wtrie.Select_prefix { prefix = String.sub s 0 plen; count = Wt_bits.Xoshiro.int rng 4 })
    in
    let results, trace =
      Wtrie.with_trace ~sample_every:sample (fun () ->
          Q.query_batch ?domains wt ops)
    in
    ignore (results : (Wtrie.value, Wtrie.error) result array);
    let oc = open_out out in
    output_string oc (Json.to_string trace);
    output_string oc "\n";
    close_out oc;
    let evs = Wtrie.Trace.events () in
    let doms =
      List.length (List.sort_uniq compare (List.map (fun e -> e.Wtrie.Trace.dom) evs))
    in
    Printf.printf "traced %d ops into %s (%d spans across %d domains)\n" gen_ops out
      (List.length evs) doms
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a Zipf-skewed query batch under span tracing and export Chrome trace_event JSON (query → level → shard, one timeline row per domain).")
    Term.(const run $ file $ out $ gen_ops $ domains $ sample)

(* ------------------------------------------------------------------ *)
(* Batch mode: read a vector of operations, evaluate it through the
   batch engine, print one result line per operation.  Per-op failures
   are data (printed as [error: ...]), not process failures. *)

let parse_op lineno line =
  let fail () =
    Printf.eprintf
      "line %d: cannot parse %S (expected: access POS | rank STRING POS | select STRING K | rank-prefix PREFIX POS | select-prefix PREFIX K)\n"
      lineno line;
    exit 2
  in
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
  in
  (* the string/prefix argument is everything between the op name and
     the trailing integer, so it may contain spaces *)
  let split_tail = function
    | [] -> fail ()
    | words -> (
        match List.rev words with
        | last :: rev_mid -> (
            match int_of_string_opt last with
            | None -> fail ()
            | Some k -> (String.concat " " (List.rev rev_mid), k))
        | [] -> fail ())
  in
  match words with
  | [] -> fail ()
  | [ "access"; p ] -> (
      match int_of_string_opt p with
      | Some pos -> Wtrie.Access { pos }
      | None -> fail ())
  | "rank" :: rest ->
      let s, pos = split_tail rest in
      Wtrie.Rank { s; pos }
  | "select" :: rest ->
      let s, count = split_tail rest in
      Wtrie.Select { s; count }
  | "rank-prefix" :: rest ->
      let prefix, pos = split_tail rest in
      Wtrie.Rank_prefix { prefix; pos }
  | "select-prefix" :: rest ->
      let prefix, count = split_tail rest in
      Wtrie.Select_prefix { prefix; count }
  | _ -> fail ()

let query_cmd =
  let batch =
    Arg.(value & opt (some string) None & info [ "batch" ] ~docv:"OPS" ~doc:"File of operations, one per line ('-' for stdin): access POS, rank STRING POS, select STRING K, rank-prefix PREFIX POS, select-prefix PREFIX K.")
  in
  let select_all =
    Arg.(value & flag & info [ "select-all" ] ~doc:"Report every position in [--lo, --hi) whose string starts with --prefix, ascending, one per line (one frontier traversal).")
  in
  let count_range =
    Arg.(value & flag & info [ "count-range" ] ~doc:"Count the positions in [--lo, --hi) whose string starts with --prefix (one descent).")
  in
  let distinct =
    Arg.(value & flag & info [ "distinct" ] ~doc:"Distinct strings in [--lo, --hi) matching --prefix, with their in-window counts, lexicographically.")
  in
  let top_k =
    Arg.(value & opt (some int) None & info [ "top-k" ] ~docv:"K" ~doc:"The $(docv) most frequent strings in [--lo, --hi) matching --prefix, most frequent first (ties: lexicographically smaller wins).")
  in
  let prefix =
    Arg.(value & opt (some string) None & info [ "prefix" ] ~docv:"PREFIX" ~doc:"Byte prefix restricting the range query (default: all strings).")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc:"Execute the batch on up to $(docv) domains in parallel (sharded over the domain pool; pool size follows WTRIE_DOMAINS or the machine).  Results are identical to the sequential run, in input order.")
  in
  let run file batch select_all count_range distinct top_k prefix lo hi domains stats =
    (match domains with
    | Some d when d < 1 ->
        Printf.eprintf "--domains must be >= 1 (got %d)\n" d;
        exit 2
    | _ -> ());
    let modes =
      (match batch with Some _ -> 1 | None -> 0)
      + (if select_all then 1 else 0)
      + (if count_range then 1 else 0)
      + (if distinct then 1 else 0)
      + match top_k with Some _ -> 1 | None -> 0
    in
    if modes <> 1 then begin
      Printf.eprintf
        "query: pass exactly one of --batch, --select-all, --count-range, --distinct, --top-k\n";
      exit 2
    end;
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    (match batch with
    | Some batch ->
        let lines = read_lines batch in
        let ops =
          Array.of_list
            (List.concat
               (List.mapi
                  (fun i l -> if String.trim l = "" then [] else [ parse_op (i + 1) l ])
                  (Array.to_list lines)))
        in
        Array.iter
          (function
            | Ok v -> Format.printf "%a@." Wtrie.pp_value v
            | Error e -> Format.printf "error: %a@." Wtrie.pp_error e)
          (Q.query_batch ?domains wt ops)
    | None ->
        if select_all then
          Array.iter
            (fun pos -> Printf.printf "%d\n" pos)
            (or_fail (Q.select_all ?prefix ~lo ?hi wt))
        else if count_range then begin
          let hi = match hi with None -> Q.length wt | Some h -> h in
          Printf.printf "%d\n" (or_fail (Q.range_count ?prefix wt ~lo ~hi))
        end
        else if distinct then
          print_tallies (or_fail (Q.range_distinct ?prefix ~lo ?hi wt))
        else
          match top_k with
          | Some k -> print_tallies (or_fail (Q.range_topk ?prefix ~lo ?hi wt ~k))
          | None -> assert false);
    src
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate queries against the index: --batch for a vector of point operations in one amortized traversal (per-op errors are printed as data, exit 0), or one of the range-analytics modes --select-all / --count-range / --distinct / --top-k over the [--lo, --hi) window.")
    Term.(const run $ file_arg $ batch $ select_all $ count_range $ distinct $ top_k
          $ prefix $ lo_arg $ hi_arg $ domains $ stats_arg)

let distinct_cmd =
  let run file lo hi stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    print_tallies (or_fail (Q.range_distinct ~lo ?hi wt));
    src
  in
  Cmd.v
    (Cmd.info "distinct" ~doc:"Distinct strings (with counts) in [--lo, --hi).")
    Term.(const run $ file_arg $ lo_arg $ hi_arg $ stats_arg)

let majority_cmd =
  let run file lo hi stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    (match or_fail (Q.range_majority ~lo ?hi wt) with
    | Some (s, c) ->
        let hi = Option.value hi ~default:(Q.length wt) in
        Printf.printf "%s (%d of %d)\n" s c (hi - lo)
    | None ->
        print_endline "no majority";
        exit 1);
    src
  in
  Cmd.v
    (Cmd.info "majority" ~doc:"The majority string of [--lo, --hi), if any.")
    Term.(const run $ file_arg $ lo_arg $ hi_arg $ stats_arg)

let top_k_cmd =
  let k = Arg.(required & pos 1 (some int) None & info [] ~docv:"K") in
  let run file k lo hi stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    print_tallies (or_fail (Q.range_topk ~lo ?hi wt ~k));
    src
  in
  Cmd.v
    (Cmd.info "top-k" ~doc:"The K most frequent strings in [--lo, --hi) (exact; ties go to the lexicographically smaller string).")
    Term.(const run $ file_arg $ k $ lo_arg $ hi_arg $ stats_arg)

let quantile_cmd =
  let k = Arg.(required & pos 1 (some int) None & info [] ~docv:"K") in
  let run file k lo hi stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    (match or_fail (Q.range_quantile ~lo ?hi wt ~k) with
    | Some s -> print_endline s
    | None ->
        prerr_endline "k out of range";
        exit 1);
    src
  in
  Cmd.v
    (Cmd.info "quantile"
       ~doc:"The K-th lexicographically smallest string in [--lo, --hi).")
    Term.(const run $ file_arg $ k $ lo_arg $ hi_arg $ stats_arg)

let at_least_cmd =
  let t = Arg.(required & pos 1 (some int) None & info [] ~docv:"T") in
  let run file threshold lo hi stats =
    with_stats stats @@ fun () ->
    let src = build file in
    let (Packed ((module Q), wt)) = pack src in
    print_tallies (or_fail (Q.range_at_least ~lo ?hi wt ~threshold));
    src
  in
  Cmd.v
    (Cmd.info "at-least"
       ~doc:"Strings occurring at least T times in [--lo, --hi) (a T below 1 lists every string present).")
    Term.(const run $ file_arg $ t $ lo_arg $ hi_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* Serving: the overload-safe TCP front-end and its load generator.
   Socket-level failures exit 74 (EX_IOERR); malformed flags exit 64. *)

module Server = Wtrie.Serve.Server
module Sclient = Wtrie.Serve.Client
module Swire = Wtrie.Serve.Wire

let serve_usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("wtrie serve: " ^ m);
      exit 64)
    fmt

let serve_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let port_arg =
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")
  in
  let port_file_arg =
    Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"PATH" ~doc:"Write the bound port here once listening (for scripts using --port 0).")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc:"Execute batches sharded over N domains (default: the serving domain alone).")
  in
  let batch_ops_arg =
    Arg.(value & opt (some int) None & info [ "batch-ops" ] ~docv:"K" ~doc:"Cut a batch at K coalesced operations.")
  in
  let window_us_arg =
    Arg.(value & opt (some int) None & info [ "window-us" ] ~docv:"US" ~doc:"Cut a batch when its oldest operation has waited US microseconds.")
  in
  let queue_max_arg =
    Arg.(value & opt (some int) None & info [ "queue-max" ] ~docv:"N" ~doc:"Admission-control watermark: shed queries past N queued operations.")
  in
  let max_conns_arg =
    Arg.(value & opt (some int) None & info [ "max-conns" ] ~docv:"N" ~doc:"Stop accepting past N concurrent connections.")
  in
  let read_timeout_arg =
    Arg.(value & opt (some int) None & info [ "read-timeout-ms" ] ~docv:"MS" ~doc:"Close a connection stalled mid-frame for MS milliseconds.")
  in
  let metrics_port_arg =
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc:"Also serve the Prometheus metrics exposition over plain TCP on PORT (0 = ephemeral): each connection gets one HTTP/1.0 response and is closed, so curl and nc both work.")
  in
  let metrics_port_file_arg =
    Arg.(value & opt (some string) None & info [ "metrics-port-file" ] ~docv:"PATH" ~doc:"Write the bound metrics port here once listening (for scripts using --metrics-port 0).")
  in
  let slow_ms_arg =
    Arg.(value & opt (some int) None & info [ "slow-ms" ] ~docv:"MS" ~doc:"Record a slow-query exemplar (kind, queue-wait vs execution split, span id) for every request taking at least MS milliseconds; 0 logs every request. Exemplars ride the metrics exposition and the Stats reply.")
  in
  let run file host port port_file domains batch_ops window_us queue_max max_conns read_timeout_ms
      metrics_port metrics_port_file slow_ms =
    if port < 0 || port > 65535 then serve_usage "--port must be in 0..65535 (got %d)" port;
    (match metrics_port with
    | Some p when p < 0 || p > 65535 ->
        serve_usage "--metrics-port must be in 0..65535 (got %d)" p
    | _ -> ());
    (match slow_ms with
    | Some ms when ms < 0 -> serve_usage "--slow-ms must be >= 0 (got %d)" ms
    | _ -> ());
    let positive flag v =
      match v with
      | Some v when v < 1 -> serve_usage "%s must be >= 1 (got %d)" flag v
      | _ -> v
    in
    let batch_ops = positive "--batch-ops" batch_ops in
    let queue_max = positive "--queue-max" queue_max in
    let max_conns = positive "--max-conns" max_conns in
    let read_timeout_ms = positive "--read-timeout-ms" read_timeout_ms in
    let domains = positive "--domains" domains in
    (match window_us with
    | Some w when w < 0 -> serve_usage "--window-us must be >= 0 (got %d)" w
    | _ -> ());
    let src = build file in
    let d = Server.default_config () in
    let cfg =
      {
        d with
        host;
        port;
        domains;
        batch_max = Option.value ~default:d.Server.batch_max batch_ops;
        window_us = Option.value ~default:d.Server.window_us window_us;
        queue_max = Option.value ~default:d.Server.queue_max queue_max;
        max_conns = Option.value ~default:d.Server.max_conns max_conns;
        read_timeout_ms = Option.value ~default:d.Server.read_timeout_ms read_timeout_ms;
        metrics_port;
        slow_ms;
      }
    in
    (* the serving process is always live-scrapable: recording is on
       and the runtime-events bridge feeds GC pauses into rt_* metrics *)
    Wtrie.Probe.enable ();
    Wtrie.Runtime.start ();
    let srv =
      try
        match src with
        | Flat wt ->
            Server.create ~config:cfg ~backend:Server.static_backend
              (Wtrie.Snapshot.create wt)
        | Tier t ->
            (* serve the store's epoch-published merged views; ingest
               processes publish new tier lists through the same handle *)
            Server.create ~config:cfg ~backend:Server.tiered_backend
              (Wtrie.Tiered.handle t)
      with Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "wtrie serve: cannot listen on %s:%d: %s (%s)\n" host port
          (Unix.error_message e) fn;
        exit 74
    in
    Printf.printf "listening on %s:%d (%d strings, pid %d)\n%!" host (Server.port srv)
      (src_length src) (Unix.getpid ());
    (match Server.metrics_port srv with
    | Some mp -> Printf.printf "metrics on %s:%d\n%!" host mp
    | None -> ());
    (match port_file with
    | Some p ->
        let oc = open_out p in
        Printf.fprintf oc "%d\n" (Server.port srv);
        close_out oc
    | None -> ());
    (match (metrics_port_file, Server.metrics_port srv) with
    | Some p, Some mp ->
        let oc = open_out p in
        Printf.fprintf oc "%d\n" mp;
        close_out oc
    | _ -> ());
    let stop _ = Server.request_stop srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Server.serve srv;
    let st = Server.stats srv in
    Printf.printf
      "drained: %d connections, %d requests, %d batches, %d shed, %d expired, %d bad frames, %d slow\n%!"
      st.Server.accepted st.Server.requests st.Server.batches st.Server.shed st.Server.expired
      st.Server.bad_frames st.Server.slow
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve FILE over TCP: concurrently arriving queries are coalesced into micro-batches with admission control, per-request deadlines, and graceful SIGTERM drain (see docs/serving.md). With --metrics-port the live telemetry plane is scrapable over plain TCP.")
    Term.(const run $ file_arg $ host_arg $ port_arg $ port_file_arg $ domains_arg
          $ batch_ops_arg $ window_us_arg $ queue_max_arg $ max_conns_arg $ read_timeout_arg
          $ metrics_port_arg $ metrics_port_file_arg $ slow_ms_arg)

let loadgen_cmd =
  let target_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc:"Server address.")
  in
  let conns_arg =
    Arg.(value & opt int 4 & info [ "conns" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let ops_arg =
    Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Total requests to drive.")
  in
  let window_arg =
    Arg.(value & opt int 8 & info [ "window" ] ~docv:"N" ~doc:"Pipelined requests kept outstanding per connection.")
  in
  let timeout_us_arg =
    Arg.(value & opt int 0 & info [ "timeout-us" ] ~docv:"US" ~doc:"Per-request deadline (0 = none).")
  in
  let connect_timeout_arg =
    Arg.(value & opt float 5.0 & info [ "connect-timeout" ] ~docv:"S" ~doc:"Retry refused connections for S seconds.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let fail_usage fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("wtrie loadgen: " ^ m);
        exit 64)
      fmt
  in
  let run target conns ops window timeout_us connect_timeout json =
    let host, port =
      match String.rindex_opt target ':' with
      | Some i -> (
          let h = String.sub target 0 i in
          let p = String.sub target (i + 1) (String.length target - i - 1) in
          match int_of_string_opt p with
          | Some p when p > 0 && p <= 65535 -> (h, p)
          | _ -> fail_usage "TARGET must be HOST:PORT (got %s)" target)
      | None -> fail_usage "TARGET must be HOST:PORT (got %s)" target
    in
    if conns < 1 then fail_usage "--conns must be >= 1 (got %d)" conns;
    if ops < 1 then fail_usage "--ops must be >= 1 (got %d)" ops;
    if window < 1 then fail_usage "--window must be >= 1 (got %d)" window;
    let io_fail e =
      Printf.eprintf "wtrie loadgen: cannot reach %s:%d: %s\n" host port (Unix.error_message e);
      exit 74
    in
    (* sample real strings off the server so Rank/Select/prefix ops in
       the generated mix query values that actually occur *)
    let n, samples =
      match Sclient.connect ~retry_for_s:connect_timeout ~host ~port () with
      | exception Unix.Unix_error (e, _, _) -> io_fail e
      | probe ->
          let n = Sclient.length probe in
          let samples =
            if n = 0 then [||]
            else
              Array.init 16 (fun i ->
                  match
                    Sclient.call probe
                      (Swire.Query (Wt_core.Indexed_sequence.Access { pos = i * n / 16 }))
                  with
                  | Swire.Ok_value (Wt_core.Indexed_sequence.Str s) -> s
                  | _ -> "")
          in
          Sclient.close probe;
          (n, samples)
    in
    let rng = Random.State.make [| 0x5eed; ops; conns |] in
    let opgen _i =
      let module Is = Wt_core.Indexed_sequence in
      if n = 0 then Swire.Ping
      else begin
        let sample () = samples.(Random.State.int rng (Array.length samples)) in
        match Random.State.int rng 8 with
        | 0 | 1 | 2 | 3 -> Swire.Query (Is.Access { pos = Random.State.int rng n })
        | 4 | 5 -> Swire.Query (Is.Rank { s = sample (); pos = Random.State.int rng (n + 1) })
        | 6 -> Swire.Query (Is.Select { s = sample (); count = 1 + Random.State.int rng 2 })
        | _ ->
            let s = sample () in
            let prefix = String.sub s 0 (min (String.length s) (1 + Random.State.int rng 3)) in
            Swire.Query (Is.Rank_prefix { prefix; pos = Random.State.int rng (n + 1) })
      end
    in
    let r =
      match Sclient.run_load ~host ~port ~conns ~window ~ops ~timeout_us ~opgen () with
      | r -> r
      | exception Unix.Unix_error (e, _, _) -> io_fail e
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("sent", Json.Int r.Sclient.sent);
                ("completed", Json.Int r.Sclient.completed);
                ("ok", Json.Int r.Sclient.ok);
                ("query_error", Json.Int r.Sclient.query_error);
                ("overloaded", Json.Int r.Sclient.overloaded);
                ("expired", Json.Int r.Sclient.expired);
                ("bad", Json.Int r.Sclient.bad);
                ("lost", Json.Int r.Sclient.lost);
                ("elapsed_s", Json.Float r.Sclient.elapsed_s);
                ("throughput_rps", Json.Float r.Sclient.throughput_rps);
                ("p50_us", Json.Float r.Sclient.p50_us);
                ("p90_us", Json.Float r.Sclient.p90_us);
                ("p99_us", Json.Float r.Sclient.p99_us);
                ("max_us", Json.Float r.Sclient.max_us);
              ]))
    else begin
      Printf.printf "sent %d  completed %d  ok %d  query-errors %d  shed %d  expired %d  bad %d  lost %d\n"
        r.Sclient.sent r.Sclient.completed r.Sclient.ok r.Sclient.query_error r.Sclient.overloaded
        r.Sclient.expired r.Sclient.bad r.Sclient.lost;
      Printf.printf "throughput %.0f req/s  latency p50 %.0f us  p90 %.0f us  p99 %.0f us  max %.0f us\n"
        r.Sclient.throughput_rps r.Sclient.p50_us r.Sclient.p90_us r.Sclient.p99_us r.Sclient.max_us
    end;
    (* a run that never completed a single request could not actually
       talk to the server: that's an I/O failure, not a report *)
    if r.Sclient.completed = 0 then exit 74
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Closed-loop pipelined load generator against a running 'wtrie serve' (mixed Access/Rank/Select/prefix workload sampled from the served sequence).")
    Term.(const run $ target_arg $ conns_arg $ ops_arg $ window_arg $ timeout_us_arg
          $ connect_timeout_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* wtrie top: a polling live view over a running server's telemetry,
   built entirely on the Stats wire op — counters become rates between
   frames, histograms become per-interval percentiles by diffing raw
   buckets.  [--once] renders one cumulative frame and exits (tests). *)

let top_cmd =
  let target_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc:"Server address.")
  in
  let interval_arg =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"S" ~doc:"Seconds between frames.")
  in
  let count_arg =
    Arg.(value & opt (some int) None & info [ "count" ] ~docv:"N" ~doc:"Exit after N frames.")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Render a single cumulative frame and exit (for scripts and tests).")
  in
  let fail_usage fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("wtrie top: " ^ m);
        exit 64)
      fmt
  in
  let run target interval count once =
    let host, port =
      match String.rindex_opt target ':' with
      | Some i -> (
          let h = String.sub target 0 i in
          let p = String.sub target (i + 1) (String.length target - i - 1) in
          match int_of_string_opt p with
          | Some p when p > 0 && p <= 65535 -> (h, p)
          | _ -> fail_usage "TARGET must be HOST:PORT (got %s)" target)
      | None -> fail_usage "TARGET must be HOST:PORT (got %s)" target
    in
    if interval <= 0. then fail_usage "--interval must be > 0 (got %g)" interval;
    (match count with
    | Some c when c < 1 -> fail_usage "--count must be >= 1 (got %d)" c
    | _ -> ());
    let frames = if once then 1 else Option.value ~default:max_int count in
    let module Report = Wtrie.Report in
    let client =
      match Sclient.connect ~host ~port () with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "wtrie top: cannot reach %s:%d: %s\n" host port (Unix.error_message e);
          exit 74
    in
    let geti obj k = match Json.member k obj with Some (Json.Int i) -> i | _ -> 0 in
    let fmt_ns ns =
      let f = float_of_int ns in
      if f >= 1e9 then Printf.sprintf "%.2fs" (f /. 1e9)
      else if f >= 1e6 then Printf.sprintf "%.1fms" (f /. 1e6)
      else if f >= 1e3 then Printf.sprintf "%.1fus" (f /. 1e3)
      else Printf.sprintf "%dns" ns
    in
    let find_lat r op = List.find_opt (fun l -> l.Report.op = op) r.Report.latencies in
    (* per-interval percentiles: the raw log-buckets are cumulative, so
       the interval distribution is the bucket-wise difference from the
       previous frame (the whole history when there is none) *)
    let interval_quantiles prev r op =
      match find_lat r op with
      | None -> None
      | Some ln ->
          let pb, pc =
            match Option.bind prev (fun p -> find_lat p op) with
            | Some lp -> (lp.Report.buckets, lp.Report.count)
            | None -> ([], 0)
          in
          let db =
            List.filter_map
              (fun (b, c) ->
                let c = c - (match List.assoc_opt b pb with Some x -> x | None -> 0) in
                if c > 0 then Some (b, c) else None)
              ln.Report.buckets
          in
          let dc = ln.Report.count - pc in
          if dc <= 0 then None
          else
            Some
              ( Report.quantile_of_buckets ~count:dc ~max_ns:ln.Report.max_ns db 0.50,
                Report.quantile_of_buckets ~count:dc ~max_ns:ln.Report.max_ns db 0.99,
                dc )
    in
    let rate prev r name =
      match prev with
      | None -> "-"
      | Some p ->
          Printf.sprintf "%.0f/s"
            (float_of_int (Report.counter r name - Report.counter p name) /. interval)
    in
    let render frame_i j prev =
      let report =
        match Option.map Report.of_json (Json.member "report" j) with
        | Some (Ok r) -> r
        | Some (Error _) | None ->
            prerr_endline "wtrie top: malformed stats reply";
            exit 74
      in
      let server = match Json.member "server" j with Some s -> s | None -> Json.Obj [] in
      let exemplars =
        match Json.member "slow_queries" j with Some (Json.List l) -> List.length l | _ -> 0
      in
      Printf.printf "wtrie top %s:%d  frame %d\n" host port frame_i;
      Printf.printf "  requests %d (%s)  batches %d (%s)  shed %d  expired %d  bad %d\n"
        (geti server "requests") (rate prev report "serve_request")
        (geti server "batches") (rate prev report "serve_batch")
        (geti server "shed") (geti server "expired") (geti server "bad_frames");
      Printf.printf "  conns %d  pending %d  slow %d (exemplars kept %d)\n"
        (geti server "conns") (geti server "pending_ops") (geti server "slow") exemplars;
      (match interval_quantiles prev report "serve_queue_wait" with
      | Some (p50, p99, dc) ->
          Printf.printf "  queue-wait p50 %s  p99 %s  (%d samples)\n" (fmt_ns p50) (fmt_ns p99) dc
      | None -> Printf.printf "  queue-wait (no samples)\n");
      let gc_line label op =
        match interval_quantiles prev report op with
        | Some (p50, p99, dc) ->
            Printf.printf "  %s p50 %s  p99 %s  (%d pauses)\n" label (fmt_ns p50) (fmt_ns p99) dc
        | None -> Printf.printf "  %s (no pauses)\n" label
      in
      gc_line "gc-minor" "rt_gc_minor";
      gc_line "gc-major" "rt_gc_major";
      Printf.printf "  gc-time %s total (%s)  runtime-events lost %d\n%!"
        (fmt_ns (Report.counter report "rt_gc_ns"))
        (rate prev report "rt_gc_ns")
        (Report.counter report "rt_events_lost");
      report
    in
    let prev = ref None in
    (try
       let i = ref 0 in
       while !i < frames do
         incr i;
         let j =
           match Json.of_string (Sclient.stats_json client) with
           | Ok j -> j
           | Error m ->
               prerr_endline ("wtrie top: malformed stats reply: " ^ m);
               exit 74
         in
         prev := Some (render !i j !prev);
         if !i < frames then ignore (Unix.select [] [] [] interval)
       done
     with Sclient.Server_closed ->
       prerr_endline "wtrie top: server closed the connection";
       exit 74);
    Sclient.close client
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live view over a running 'wtrie serve': polls the Stats op and renders request rates, queue-wait and GC-pause percentiles per interval, and slow-query exemplar counts.")
    Term.(const run $ target_arg $ interval_arg $ count_arg $ once_arg)

let () =
  (* CI and tests can kill the store writer mid-write by setting
     WTRIE_FAULT_CRASH_AFTER=<bytes>; the process then exits 70 with a
     torn file, exactly like a crash. *)
  Wt_durable.Fault.arm_from_env ();
  let doc = "compressed indexed sequences of strings (Wavelet Trie)" in
  let info = Cmd.info "wtrie" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        index_cmd; convert_cmd; ingest_cmd; verify_cmd; recover_cmd; stats_cmd; access_cmd;
        rank_cmd; select_cmd; prefix_count_cmd; prefix_list_cmd; query_cmd;
        trace_cmd; distinct_cmd; majority_cmd; at_least_cmd; top_k_cmd;
        quantile_cmd; serve_cmd; loadgen_cmd; top_cmd;
      ]
  in
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Wt_durable.Fault.Injected_crash msg ->
      Printf.eprintf "wtrie: %s\n" msg;
      (* Crash forensics: with WTRIE_FLIGHT_DUMP=<path>, write the
         flight-recorder ring — ending in the [crash] marker the fault
         hook recorded — before dying, like a kernel core pattern. *)
      (match Sys.getenv_opt "WTRIE_FLIGHT_DUMP" with
      | Some path when path <> "" ->
          let oc = open_out path in
          output_string oc (Json.to_string (Wtrie.Flight.to_json ()));
          output_string oc "\n";
          close_out oc;
          Printf.eprintf "wtrie: flight recorder dumped to %s\n" path
      | _ -> ());
      exit 70
  | exception Storage.Format_error msg ->
      Printf.eprintf "wtrie: %s\n" msg;
      exit 2
  (* anything the commands didn't map themselves: I/O trouble is 74 *)
  | exception Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "wtrie: %s (%s)\n" (Unix.error_message e) fn;
      exit 74
  | exception Sys_error msg ->
      Printf.eprintf "wtrie: %s\n" msg;
      exit 74
