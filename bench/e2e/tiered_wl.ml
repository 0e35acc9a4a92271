(* tiered_mixed: writes beside reads, in process.

   A tiered store preloaded with URLs takes group commits from one
   closed-loop writer: each commit ingests [batch] new URLs, then
   flushes (the fsync that acknowledges them); after each commit the
   writer makes point reads on the merged view while the background
   compactor seals the delta into runs.  The flush policy, one fsync
   per commit, is fixed.  This is the only workload where the tiered
   store, the WAL and the dynamic delta do the work. *)

module T = Wtrie.Tiered

type cfg = {
  threshold : int;  (** delta size that triggers a compaction *)
  preload : int;
  commits : int;  (** group commits *)
}

let batch = 32

(* Reads after each commit: three accesses to one rank, so the median
   read is an access and the p99 a rank (a rank sums over every tier). *)
let reads = 32

let setup_reps = 3

(* Acknowledged strings in order, with each string's positions: the
   reference reads are checked against. *)
type acked = { strings : string Util.Vec.t; positions : (string, int Util.Vec.t) Hashtbl.t }

let acked_of preload =
  let a = { strings = Util.Vec.create ""; positions = Hashtbl.create 65536 } in
  let ack s =
    let v =
      match Hashtbl.find_opt a.positions s with
      | Some v -> v
      | None ->
          let v = Util.Vec.create 0 in
          Hashtbl.replace a.positions s v;
          v
    in
    Util.Vec.push v (Util.Vec.length a.strings);
    Util.Vec.push a.strings s
  in
  Array.iter ack preload;
  (a, ack)

(* Occurrences of [s] before [pos]: positions are ascending. *)
let rank a s pos =
  match Hashtbl.find_opt a.positions s with
  | None -> 0
  | Some v ->
      let lo = ref 0 and hi = ref (Util.Vec.length v) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Util.Vec.get v mid < pos then lo := mid + 1 else hi := mid
      done;
      !lo

let create_store cfg ~dir ~preload name =
  let path = Filename.concat dir name in
  let t = T.create ~threshold:cfg.threshold path in
  Array.iter (fun s -> Spans.with_span ~layer:"tiered" "Tiered.ingest" (fun _ -> T.ingest t s)) preload;
  Spans.with_span ~layer:"wal" "Tiered.flush" (fun _ -> T.flush t);
  T.wait_compaction t;
  (t, path)

type pass = {
  e2e : Out.pass;
  attempted : int;
  wrong : int;
  ingest_ns : float array;
  flush_ns : float array;
  read_idle : float array;
  read_compacting : float array;
  compactions : int;
  runs : int;
  wal_bytes : int;
  strings : int;
  wall_ns : int;
  peak_mb : float;  (** peak resident set once the store is closed *)
  stats : Wt_core.Stats.t;
  lb : Wt_core.Stats.t;  (** static index of every acknowledged string *)
  delta : Layers.delta;  (** probes over the commits and reads *)
  minor_words : float;
  majors : int;
}

let run_pass cfg ~seed ~store ~path ~preload ~fresh =
  let commits = cfg.commits in
  let rng = Gen.rng ~seed 2 in
  let acked, ack = acked_of preload in
  let ingest_ns = Util.Vec.create 0. and flush_ns = Util.Vec.create 0. in
  let ack_us = Util.Vec.create 0. and read_us = Util.Vec.create 0. in
  let idle = Util.Vec.create 0. and compacting = Util.Vec.create 0. in
  let wrong = ref 0 and nreads = ref 0 in
  let wal_bytes = ref 0 and commit_ns = ref 0 in
  let before = Layers.capture () and w0 = Layers.gc_words () and m0 = Layers.gc_majors () in
  let gen0 = T.generation store and t_start = Util.now_ns () in
  for c = 0 to commits - 1 do
    let strings = Array.sub fresh (c * batch) batch in
    let (), dt =
      Util.timed (fun () ->
          Spans.with_span ~layer:"bench" ~key:c "commit" (fun _ ->
              Array.iter
                (fun s ->
                  let (), dt =
                    Util.timed (fun () ->
                        Spans.with_span ~layer:"tiered" "Tiered.ingest" (fun _ -> T.ingest store s))
                  in
                  Util.Vec.push ingest_ns (float_of_int dt);
                  wal_bytes := !wal_bytes + Wt_durable.Wal.record_size (Wt_durable.Wal.Append s))
                strings;
              let (), dt =
                Util.timed (fun () ->
                    Spans.with_span ~layer:"wal" "Tiered.flush" (fun _ -> T.flush store))
              in
              Util.Vec.push flush_ns (float_of_int dt)))
    in
    commit_ns := !commit_ns + dt;
    Util.Vec.push ack_us (Util.us dt);
    Array.iter ack strings;
    (* each read is checked, outside its timing, against the
       acknowledged strings: an access names one, a rank counts them *)
    Spans.with_span ~layer:"bench" ~key:c "reads" (fun _ ->
        for r = 0 to reads - 1 do
          let len = Util.Vec.length acked.strings in
          let busy = T.is_compacting store in
          let ok, dt =
            if r mod 4 = 3 then begin
              let s = Util.Vec.get acked.strings (Gen.int rng len) and pos = Gen.int rng (len + 1) in
              let res, dt =
                Util.timed (fun () ->
                    Spans.with_span ~layer:"tiered" "Tiered.rank" (fun _ -> T.rank store s ~pos))
              in
              (res = Ok (rank acked s pos), dt)
            end
            else begin
              let pos = Gen.int rng len in
              let res, dt =
                Util.timed (fun () ->
                    Spans.with_span ~layer:"tiered" "Tiered.access" (fun _ -> T.access store ~pos))
              in
              (res = Ok (Util.Vec.get acked.strings pos), dt)
            end
          in
          incr nreads;
          if not ok then incr wrong;
          Util.Vec.push read_us (Util.us dt);
          Util.Vec.push (if busy then compacting else idle) (Util.us dt)
        done)
  done;
  let wall_ns = Util.now_ns () - t_start in
  let delta = { Layers.before; after = Layers.capture () } in
  let minor_words = Layers.gc_words () -. w0 and majors = Layers.gc_majors () - m0 in
  T.wait_compaction store;
  let stats = T.stats store and runs = T.run_count store in
  let compactions = T.generation store - gen0 in
  T.close store;
  (* what follows, the checks and the lower bound's index, is the
     benchmark's own work and stays out of the peak *)
  let peak_mb = Util.peak_rss_mb () in
  (* durability: reopen read-only and read back every acknowledged string *)
  let all = Util.Vec.to_array acked.strings in
  let ro, _ = T.open_read_only path in
  if T.length ro <> Array.length all then incr wrong;
  let chunk = 16_384 in
  let off = ref 0 in
  while !off < Array.length all do
    let m = min chunk (Array.length all - !off) in
    let base = !off in
    let res = T.query_batch ro (Array.init m (fun i -> Wtrie.Access { pos = base + i })) in
    Array.iteri (fun i r -> if r <> Ok (Wtrie.Str all.(base + i)) then incr wrong) res;
    off := !off + m
  done;
  T.close ro;
  let strings = commits * batch in
  {
    e2e =
      Out.latencies "light" (Util.Vec.to_array read_us)
      @ Out.latencies "heavy" (Util.Vec.to_array ack_us)
      @ [ ("ingest_per_s", "1/s", float_of_int strings /. Util.secs !commit_ns, strings) ];
    attempted = strings + !nreads + Array.length all;
    wrong = !wrong;
    ingest_ns = Util.Vec.to_array ingest_ns;
    flush_ns = Util.Vec.to_array flush_ns;
    read_idle = Util.Vec.to_array idle;
    read_compacting = Util.Vec.to_array compacting;
    compactions;
    runs;
    wal_bytes = !wal_bytes;
    strings;
    wall_ns;
    peak_mb;
    stats;
    lb = Wt_core.Flat_wt.stats (Wtrie.Static.of_array all);
    delta;
    minor_words;
    majors;
  }

let layer_metrics p =
  let d = p.delta in
  let ops = p.strings + Array.length p.read_idle + Array.length p.read_compacting in
  Layers.latency "tiered.ingest_us" (Array.map (fun ns -> ns /. 1e3) p.ingest_ns);
  Layers.emit "dynamic.node_splits_per_ingest"
    (Layers.ratio (Layers.counter d "wt_node_split") (Layers.counter d "tiered_ingest"));
  Layers.latency "tiered.flush_ms" (Array.map (fun ns -> ns /. 1e6) p.flush_ns);
  Layers.emit ~n:(Array.length p.read_idle) "tiered.read_idle_us.p99" (Util.quantile (Util.sorted p.read_idle) 0.99);
  Layers.emit ~n:(Array.length p.read_compacting) "tiered.read_compacting_us.p99"
    (Util.quantile (Util.sorted p.read_compacting) 0.99);
  Layers.emit "tiered.compactions" (float_of_int p.compactions);
  let compact, _, _ = Layers.hist d "tiered_compact" in
  Layers.emit "tiered.compact_ms.p50" (Util.bucket_quantile compact 0.5 /. 1e6);
  Layers.emit "tiered.runs_final" (float_of_int p.runs);
  Layers.emit "tiered.write_amp"
    (Layers.ratio (Layers.counter d "tiered_compact_bytes") (Layers.counter d "tiered_ingest_bytes"));
  Layers.emit "wal.bytes_per_string" (Layers.ratio p.wal_bytes p.strings);
  Layers.trie d ~ops;
  Layers.space { p.stats with seq_h0_bits = p.lb.seq_h0_bits; trie_lb_bits = p.lb.trie_lb_bits };
  Layers.emit "gc.minor_words_per_op" (p.minor_words /. float_of_int ops);
  Layers.emit "gc.major_collections" (float_of_int p.majors);
  Layers.runtime d ~wall_ns:p.wall_ns

(* A traced run splits its commits between an untraced and a traced
   pass. *)
let half cfg = { cfg with commits = max 1 (cfg.commits / 2) }

let run cfg ~seed ~dir ~traced =
  let data = Gen.urls ~seed Gen.wide (cfg.preload + (cfg.commits * batch)) in
  let preload = Array.sub data 0 cfg.preload in
  let fresh = Array.sub data cfg.preload (cfg.commits * batch) in
  (* set-up, timed [setup_reps] times; each earlier store is closed,
     removed and collected before the next one is made *)
  let rec setups rep times =
    Gc.full_major ();
    let (t, path), dt =
      Util.timed (fun () ->
          Spans.with_span ~layer:"bench" "setup" (fun _ ->
              create_store cfg ~dir ~preload (Printf.sprintf "store-%d" rep)))
    in
    if rep + 1 = setup_reps then (t, path, dt :: times)
    else begin
      T.close t;
      Util.rm_rf path;
      setups (rep + 1) (dt :: times)
    end
  in
  let store, path, times = setups 0 [] in
  let setup_s = Util.median (Array.of_list (List.map Util.secs times)) in
  let pass ~traced ~store ~path cfg =
    Spans.on := traced;
    run_pass cfg ~seed ~store ~path ~preload ~fresh
  in
  let untraced = pass ~traced:false ~store ~path (if traced then half cfg else cfg) in
  Out.metric ~n:setup_reps Out.E2e "setup_s" "s" setup_s;
  Out.emit_pass untraced.e2e;
  let space p = float_of_int p.stats.total_bits /. Wt_core.Stats.lower_bound p.lb in
  Out.metric Out.E2e "space_x_lb" "x" (space untraced);
  Out.metric Out.E2e "peak_rss_mb" "MB" untraced.peak_mb;
  let traced_pass =
    if not traced then None
    else begin
      (* a fresh store with the same preload replays the same commits
         and reads, so the two passes differ only in what the traced
         one records: spans and probe counts *)
      Spans.on := true;
      Wtrie.Probe.enable ();
      Wtrie.Runtime.start ();
      let store, path = create_store cfg ~dir ~preload "store-traced" in
      let p = pass ~traced:true ~store ~path (half cfg) in
      layer_metrics p;
      Out.overhead ~untraced:untraced.e2e ~traced:p.e2e;
      Some p
    end
  in
  let passes = untraced :: Option.to_list traced_pass in
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  (sum (fun p -> p.attempted), sum (fun p -> p.wrong), sum (fun p -> p.wrong))
