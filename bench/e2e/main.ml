(* The end-to-end benchmark (see README.md).

     main.exe [--workload NAME]... [--seed N] [--repeat K] [--trace FILE]
              [--smoke] [--check-names BENCHMARK.json]

   Each workload runs in its own child process (this executable again,
   with --child); a serving workload starts one more, the server.  The
   command prints "workload metric value unit" for every metric, checks
   every answer, and ends with one JSON line:
     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
   holding the end-to-end metrics, or with --trace the per-layer ones.
   It exits 1 when any answer was wrong or a run did not finish. *)

let workloads = [ "serve_small"; "serve_wide"; "tiered_mixed"; "offline_scan" ]

(* The length of a run, fixed: BENCHMARK.json's "run_seconds".  The
   command line that file gives is called with "--seconds <run_seconds>"
   and "--trace 0|1"; both spellings are accepted for that reason only,
   and a run never changes its length. *)
let run_seconds = "20"

(* Serving legs, in seconds: about 18 of a run's 20. *)
let legs = { Serve_wl.warm_s = 1.; light_s = 6.; heavy_s = 6.; step_s = 1. }
let smoke_legs = { Serve_wl.warm_s = 0.1; light_s = 0.2; heavy_s = 0.2; step_s = 0.1 }

(* Rates are absolute, frozen on the commit that defined the benchmark so
   later commits are offered the same load: light is a tenth or less of
   the rate where the median latency starts to climb, heavy about a
   third of it (README.md). *)
let serve_small ~smoke =
  if smoke then
    { Serve_wl.shape = Gen.small; n = 4096; pool = 512; light_rps = 300.; heavy_rps = 1500.; legs = smoke_legs }
  else
    { Serve_wl.shape = Gen.small; n = 262_144; pool = 32_768; light_rps = 2000.; heavy_rps = 8000.; legs }

let serve_wide ~smoke =
  if smoke then { (serve_small ~smoke) with shape = Gen.wide }
  else { Serve_wl.shape = Gen.wide; n = 262_144; pool = 32_768; light_rps = 1300.; heavy_rps = 4500.; legs }

let tiered ~smoke =
  if smoke then { Tiered_wl.threshold = 256; preload = 1024; commits = 64 }
  else { Tiered_wl.threshold = 4096; preload = 16_384; commits = 1536 }

let offline ~smoke =
  if smoke then
    { Offline_wl.n = 4096; pool = 1024; batch_ops = 512; batches = 64; range_calls = 760; width = 512 }
  else
    {
      Offline_wl.n = 262_144;
      pool = 32_768;
      batch_ops = 16_384;
      batches = 40;
      range_calls = 1140;
      width = 16_384;
    }

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME]... [--seed N] [--repeat K] [--trace FILE] [--smoke] \
     [--check-names BENCHMARK.json]";
  Printf.eprintf "workloads: %s\n" (String.concat " " workloads);
  exit 64

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable repeat : int;
  mutable trace : string option;
  mutable smoke : bool;
  mutable check : string option;
  (* internal: a workload child or the server process *)
  mutable child : string option;
  mutable dir : string;
  mutable part : string option;
  mutable serve_index : string option;
}

let parse argv =
  let o =
    {
      names = [];
      seed = 1;
      repeat = 1;
      trace = None;
      smoke = false;
      check = None;
      child = None;
      dir = "";
      part = None;
      serve_index = None;
    }
  in
  let int s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: tl ->
        if not (List.mem w workloads) then usage ();
        o.names <- o.names @ [ w ];
        go tl
    | "--seed" :: n :: tl ->
        o.seed <- int n;
        go tl
    | "--seconds" :: s :: tl ->
        if s <> run_seconds then begin
          Printf.eprintf "a run lasts %s seconds; --seconds %s is not supported\n" run_seconds s;
          exit 64
        end;
        go tl
    | "--repeat" :: k :: tl ->
        o.repeat <- int k;
        if o.repeat < 1 then usage ();
        go tl
    | "--trace" :: f :: tl ->
        o.trace <- (match f with "0" -> None | "1" -> Some "" | f -> Some f);
        go tl
    | "--smoke" :: tl ->
        o.smoke <- true;
        go tl
    | "--check-names" :: f :: tl ->
        o.check <- Some f;
        go tl
    | "--child" :: w :: tl ->
        o.child <- Some w;
        go tl
    | "--dir" :: d :: tl ->
        o.dir <- d;
        go tl
    | "--trace-part" :: f :: tl ->
        o.part <- Some f;
        go tl
    | "--serve-index" :: f :: tl ->
        o.serve_index <- Some f;
        go tl
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if o.names = [] then o.names <- workloads;
  o

(* ------------------------------------------------------------------ *)
(* A workload child *)

let child o name =
  (* a wedged run ends here rather than holding the caller *)
  ignore (Unix.alarm 175);
  let traced = o.part <> None in
  Spans.on := traced;
  let seed = o.seed and smoke = o.smoke in
  let dir = Filename.concat o.dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Util.mkdir_p dir;
  let attempted, failed, wrong =
    Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
    match name with
    | "serve_small" -> Serve_wl.run (serve_small ~smoke) ~seed ~dir ~traced
    | "serve_wide" -> Serve_wl.run (serve_wide ~smoke) ~seed ~dir ~traced
    | "tiered_mixed" -> Tiered_wl.run (tiered ~smoke) ~seed ~dir ~traced
    | _ -> Offline_wl.run (offline ~smoke) ~seed ~dir ~traced
  in
  (match o.part with
  | None -> ()
  | Some part ->
      let own = Util.Vec.to_array Spans.recorded in
      Layers.self_times (Spans.self_ns own :: List.map (fun (_, s) -> Spans.self_ns s) !Spans.others);
      let pid = Unix.getpid () in
      let events =
        Spans.chrome_events ~pid ~pname:(name ^ " load") own
        @ List.concat
            (List.mapi
               (fun i (pname, s) -> Spans.chrome_events ~pid:((pid * 10) + i + 1) ~pname:(name ^ " " ^ pname) s)
               !Spans.others)
      in
      Out.metric Out.Info "trace.spans" "count"
        (float_of_int (Array.length own + List.fold_left (fun a (_, s) -> a + Array.length s) 0 !Spans.others));
      Out_channel.with_open_text part (fun oc -> output_string oc (String.concat ",\n" events)));
  if traced then Layers.finish ();
  Out.result ~attempted ~failed ~wrong;
  exit (if wrong > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)
(* The command *)

type metric = { cls : string; value : float; unit : string; n : int }

type run = {
  workload : string;
  metrics : (string * metric) list;  (** in output order *)
  attempted : int;
  failed : int;
  wrong : int;
  ok : bool;  (** the child finished and printed its result *)
}

let print_metric w name m =
  Printf.printf "%s %s %.12g %s%s\n%!" w name m.value m.unit
    (if m.n > 0 then Printf.sprintf " n=%d" m.n else "")

let run_child o ~dir ~part w =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; w; "--seed"; string_of_int o.seed; "--dir"; dir ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ match part with Some p -> [ "--trace-part"; p ] | None -> []
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let metrics = ref [] and result = ref None in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "M"; cls; name; v; unit; n ] ->
           let m = { cls; value = float_of_string v; unit; n = int_of_string n } in
           metrics := (name, m) :: !metrics;
           print_metric w name m
       | "I" :: _ -> Printf.printf "# %s %s\n%!" w (String.sub line 2 (String.length line - 2))
       | [ "R"; a; f; x ] -> result := Some (int_of_string a, int_of_string f, int_of_string x)
       | _ -> Printf.printf "# %s %s\n%!" w line
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let attempted, failed, wrong = Option.value ~default:(0, 0, 0) !result in
  let ok = !result <> None && (status = Unix.WEXITED 0 || (status = Unix.WEXITED 1 && wrong > 0)) in
  if not ok then Printf.eprintf "%s: the workload process did not finish\n%!" w;
  { workload = w; metrics = List.rev !metrics; attempted; failed; wrong; ok }

let read_file f = In_channel.with_open_text f In_channel.input_all

(* The commit, read from the checkout's own .git when there is one. *)
let commit () =
  let read f = try Some (String.trim (read_file (Filename.concat ".git" f))) with Sys_error _ -> None in
  match read "HEAD" with
  | None -> "unknown"
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read r with
      | Some sha -> sha
      | None -> (
          let packed = Option.value ~default:"" (read "packed-refs") in
          match
            List.find_opt
              (fun l -> String.ends_with ~suffix:(" " ^ r) l)
              (String.split_on_char '\n' packed)
          with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> "unknown"))
  | Some sha -> sha

(* Filesystem type of [dir]: the longest mount point above it. *)
let fs_type dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let mounts = try read_file "/proc/self/mounts" with Sys_error _ -> "" in
  let best = ref ("", "unknown") in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | _ :: mnt :: ty :: _ ->
          let under = mnt = "/" || dir = mnt || String.starts_with ~prefix:(mnt ^ "/") dir in
          if under && String.length mnt >= String.length (fst !best) then best := (mnt, ty)
      | _ -> ())
    (String.split_on_char '\n' mounts);
  snd !best

let header o ~workdir =
  let c = Wtrie.Serve.Server.default_config () in
  Printf.printf "# wtrie end-to-end benchmark\n";
  Printf.printf "# nproc=%d ocaml=%s commit=%s tmp=%s (%s) seed=%d seconds=%s repeat=%d trace=%s%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) workdir (fs_type workdir) o.seed run_seconds o.repeat
    (match o.trace with None -> "off" | Some _ -> "on")
    (if o.smoke then " smoke" else "");
  Printf.printf
    "# server: batch_max=%d window_us=%d queue_max=%d max_conns=%d conn_inflight_max=%d \
     outbuf_max=%d read_timeout_ms=%d domains=%s probes=on runtime_events=on\n%!"
    c.batch_max c.window_us c.queue_max c.max_conns c.conn_inflight_max c.outbuf_max
    c.read_timeout_ms
    (match c.domains with None -> "none" | Some d -> string_of_int d)

(* Names and bounds from BENCHMARK.json. *)
let bench_spec file =
  match Wtrie.Json.of_string (read_file file) with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok j ->
      let section k =
        List.filter_map
          (fun m ->
            match Option.bind (Wtrie.Json.member "name" m) Wtrie.Json.to_str with
            | Some name -> Some (name, Option.bind (Wtrie.Json.member "bound" m) Wtrie.Json.to_float)
            | None -> None)
          (Option.value ~default:[] (Option.bind (Wtrie.Json.member k j) Wtrie.Json.to_list))
      in
      (section "end_to_end", section "per_layer")

let main o =
  if
    Array.exists
      (fun kv -> String.starts_with ~prefix:"WTRIE_SERVE_" kv || String.starts_with ~prefix:"WTRIE_DOMAINS=" kv)
      (Unix.environment ())
  then begin
    prerr_endline "a WTRIE_SERVE_* or WTRIE_DOMAINS variable is set; it would change the server under test";
    exit 64
  end;
  (* the benchmark's temp dir: under the directory it runs from (the
     checkout's root), so a run writes nothing outside the checkout *)
  let workdir = Filename.concat (Sys.getcwd ()) ".bench_e2e" in
  Util.mkdir_p workdir;
  (* the runtime-events ring files of the processes this starts *)
  Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" workdir;
  header o ~workdir;
  let trace_file =
    match o.trace with None -> None | Some "" -> Some (Filename.concat workdir "trace.json") | Some f -> Some f
  in
  let parts = ref [] in
  let runs =
    List.concat_map
      (fun rep ->
        (* alternate the order, so no workload always runs first *)
        let order = if rep mod 2 = 1 then List.rev o.names else o.names in
        List.map
          (fun w ->
            let part =
              Option.map (fun _ -> Filename.concat workdir (Printf.sprintf "trace-%s-%d.part" w rep)) trace_file
            in
            let r = run_child o ~dir:workdir ~part w in
            Option.iter (fun p -> if Sys.file_exists p then parts := p :: !parts) part;
            r)
          order)
      (List.init o.repeat Fun.id)
  in
  (match trace_file with
  | None -> ()
  | Some f ->
      let events = List.rev_map read_file !parts in
      Out_channel.with_open_text f (fun oc ->
          output_string oc "{\"traceEvents\":[\n";
          output_string oc (String.concat ",\n" (List.filter (( <> ) "") events));
          output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n");
      List.iter Sys.remove !parts;
      Printf.printf "# trace written to %s\n" f);
  let spec = if Sys.file_exists "BENCHMARK.json" then Some (bench_spec "BENCHMARK.json") else None in
  let bound name =
    Option.bind spec (fun (e2e, _) -> Option.join (List.assoc_opt name e2e))
  in
  (* per workload and metric: its class, unit and every run's value *)
  let table =
    List.map
      (fun w ->
        let rs = List.filter (fun r -> r.workload = w) runs in
        let names = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.metrics) rs) in
        ( w,
          List.map
            (fun name ->
              let ms = List.filter_map (fun r -> List.assoc_opt name r.metrics) rs in
              let m = List.hd ms in
              (name, m.cls, m.unit, Array.of_list (List.map (fun m -> m.value) ms)))
            names ))
      o.names
  in
  if o.repeat > 1 then begin
    Printf.printf "# medians over %d runs: workload metric median unit q1 q3 spread\n" o.repeat;
    List.iter
      (fun (w, rows) ->
        List.iter
          (fun (name, _, unit, vs) ->
            let q1, med, q3 = Util.quartiles vs in
            let spread = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
            let flag =
              match bound name with
              | Some b when spread > b -> Printf.sprintf "  SPREAD ABOVE BOUND %g" b
              | _ -> ""
            in
            Printf.printf "%s %s %.12g %s q1=%.12g q3=%.12g spread=%.4f%s\n" w name med unit q1 q3 spread flag)
          rows)
      table
  end;
  let single = List.length o.names = 1 in
  let wanted = if o.trace = None then "e2e" else "layer" in
  let metrics =
    List.concat_map
      (fun (w, rows) ->
        List.filter_map
          (fun (name, cls, unit, vs) ->
            let _, med, _ = Util.quartiles vs in
            if cls = wanted then
              Some
                ( (if single then name else w ^ "/" ^ name),
                  Wtrie.Json.Obj [ ("value", Wtrie.Json.Float med); ("unit", Wtrie.Json.Str unit) ] )
            else None)
          rows)
      table
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let finished = List.for_all (fun r -> r.ok) runs in
  let correct = finished && sum (fun r -> r.wrong) = 0 in
  let names_ok =
    match o.check with
    | None -> true
    | Some f ->
        let e2e, layer = bench_spec f in
        let missing =
          List.concat_map
            (fun r ->
              let need cls names =
                List.filter_map
                  (fun (n, _) ->
                    match List.assoc_opt n r.metrics with
                    | Some m when m.cls = cls -> None
                    | _ -> Some (r.workload ^ " " ^ n))
                  names
              in
              need "e2e" e2e @ if o.trace = None then [] else need "layer" layer)
            runs
        in
        List.iter (fun m -> Printf.eprintf "missing metric: %s\n" m) missing;
        List.iter
          (fun r -> if r.failed > 0 then Printf.eprintf "%s: %d operations failed\n" r.workload r.failed)
          runs;
        missing = [] && sum (fun r -> r.failed) = 0
  in
  if not finished then exit 2;
  print_endline
    (Wtrie.Json.to_string
       (Wtrie.Json.Obj
          [
            ("correct", Wtrie.Json.Bool correct);
            ("attempted", Wtrie.Json.Int (sum (fun r -> r.attempted)));
            ("failed", Wtrie.Json.Int (sum (fun r -> r.failed)));
            ("metrics", Wtrie.Json.Obj metrics);
          ]));
  exit (if correct && names_ok then 0 else 1)

let () =
  let o = parse Sys.argv in
  match (o.serve_index, o.child) with
  | Some index, _ -> Serve_wl.server_main index
  | None, Some w -> child o w
  | None, None -> main o
