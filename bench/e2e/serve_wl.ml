(* serve_small / serve_wide: a format-v3 index of URLs served by its
   own process, opened by mmap with the configuration [wtrie serve]
   uses, and driven open loop from this process over two connections.

   Arrivals are Poisson (independent users), so a stall queues the
   requests due behind it; every latency is timed from the instant the
   request was due, and the generator's own lateness is reported.  One
   pass runs a warm-up, a light and a heavy fixed-rate leg, then a
   ladder that raises the rate until a step misses the limit. *)

module Server = Wtrie.Serve.Server
module Wire = Wtrie.Serve.Wire

(* Leg lengths in seconds. *)
type legs = { warm_s : float; light_s : float; heavy_s : float; step_s : float }

type cfg = {
  shape : Gen.shape;
  n : int;  (** strings served *)
  pool : int;  (** distinct operations, each with its reference answer *)
  light_rps : float;
  heavy_rps : float;
  legs : legs;
}

let max_steps = 5
let step_factor = 1.25

(* A ladder step keeps up when nothing failed and its median latency is
   within [knee] times the light leg's: queueing behind the load has at
   most doubled what a request costs when the server is nearly idle.
   The micro-batcher grows its batches with load, so latency rises
   gradually rather than at a sharp capacity; a limit relative to the
   same run's light-load latency keeps a uniformly slower machine from
   moving the crossing as much as an absolute limit would.  A p99 limit
   would not find the knee on the 2-vCPU machine this was built on: a
   3-5 ms scheduler stall every second or two puts a one-second step's
   p99 past 2 ms at any rate.  A step the generator ran more than
   [lag_limit_us] late (p99) did not offer its rate and is run again. *)
let knee = 2.0
let lag_limit_us = 1000.

(* ------------------------------------------------------------------ *)
(* The server process *)

(* The benchmark's own wrapper around the engine [Server.static_backend]
   runs appends one line per call to [calls_file index]: start,
   duration and ops.  Writing them out, not keeping them, leaves the
   server's memory as [wtrie serve]'s. *)
let calls_file index = index ^ ".calls"

(* Prints "port <port> <open t0> <open t1>" once listening; on SIGTERM
   drains, then prints its GC totals and peak RSS. *)
let server_main index =
  (* ends the process even if the load generator dies without stopping it *)
  ignore (Unix.alarm 175);
  Wtrie.Probe.enable ();
  Wtrie.Runtime.start ();
  let t0 = Util.now_ns () in
  let trie = Wtrie.Static.open_file_exn ~mode:`Mmap index in
  let t1 = Util.now_ns () in
  let calls = open_out (calls_file index) in
  let engine = Server.static_backend.Server.engine in
  let backend =
    {
      Server.static_backend with
      Server.engine =
        (fun ?pool ?domains trie ops ->
          let s = Util.now_ns () in
          let r = engine ?pool ?domains trie ops in
          let dt = Util.now_ns () - s in
          Printf.fprintf calls "%d %d %d\n" s dt (Array.length ops);
          r);
    }
  in
  let srv =
    Server.create ~config:(Server.default_config ()) ~backend (Wtrie.Snapshot.create trie)
  in
  Printf.printf "port %d %d %d\n%!" (Server.port srv) t0 t1;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.request_stop srv));
  Server.serve srv;
  close_out calls;
  let gc = Gc.quick_stat () in
  Printf.printf "gc %.0f %d %.6f\n" gc.Gc.minor_words gc.Gc.major_collections (Util.peak_rss_mb ());
  exit 0

type server = {
  pid : int;
  ic : in_channel;
  index : string;
  port : int;
  opened : int * int;  (** when the mmap open started and ended *)
  mutable live : bool;
}

type server_log = {
  minor_words : float;
  majors : int;
  rss_mb : float;
  calls : (int * int * int) array;  (** engine calls: start ns, duration ns, ops *)
}

let start_server index =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--serve-index"; index |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  match String.split_on_char ' ' (input_line ic) with
  | [ "port"; p; a; b ] ->
      { pid; ic; index; port = int_of_string p; opened = (int_of_string a, int_of_string b); live = true }
  | _ | (exception End_of_file) -> failwith "server process did not report its port"

let lines ic =
  let acc = ref [] in
  (try
     while true do
       acc := String.split_on_char ' ' (input_line ic) :: !acc
     done
   with End_of_file -> ());
  List.rev !acc

let stop_server s =
  if s.live then begin
    s.live <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let gc =
      List.fold_left
        (fun acc l ->
          match l with [ "gc"; w; m; r ] -> (float_of_string w, int_of_string m, float_of_string r) | _ -> acc)
        (0., 0, 0.) (lines s.ic)
    in
    close_in s.ic;
    ignore (Unix.waitpid [] s.pid);
    let calls =
      In_channel.with_open_text (calls_file s.index) (fun ic ->
          List.filter_map
            (function
              | [ a; b; c ] -> Some (int_of_string a, int_of_string b, int_of_string c) | _ -> None)
            (lines ic))
    in
    let minor_words, majors, rss_mb = gc in
    { minor_words; majors; rss_mb; calls = Array.of_list calls }
  end
  else { minor_words = 0.; majors = 0; rss_mb = 0.; calls = [||] }

(* ------------------------------------------------------------------ *)
(* The open-loop load generator *)

type conn = {
  fd : Unix.file_descr;
  rd : Wire.reader;
  pending : Buffer.t;  (** bytes the socket did not take yet *)
  mutable alive : bool;
  mutable inflight : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; rd = Wire.reader (); pending = Buffer.create 4096; alive = true; inflight = 0 }

let write c s =
  let len = String.length s in
  match Unix.single_write_substring c.fd s 0 len with
  | n ->
      Buffer.clear c.pending;
      if n < len then Buffer.add_substring c.pending s n (len - n);
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Buffer.clear c.pending;
      Buffer.add_string c.pending s;
      true
  | exception Unix.Unix_error _ -> false

let send c frame =
  if Buffer.length c.pending = 0 then write c frame
  else begin
    Buffer.add_string c.pending frame;
    true
  end

let flush c = Buffer.length c.pending = 0 || write c (Buffer.contents c.pending)

(* One leg: a Poisson schedule over [dur_ns], planned before it starts. *)
type leg = {
  dur_ns : int;
  due : int array;  (** offsets from the start, absolute once started *)
  opi : int array;  (** pool index of each request's operation *)
  via : int array;  (** connection of each request *)
  sent : int array;
  recv : int array;  (** 0 = no reply *)
  status : Wire.status array;
  mutable start : int;
  mutable bad : int;  (** undecodable or unexpected replies *)
}

let plan rng ~rate ~dur_s ~pool =
  let dur_ns = int_of_float (dur_s *. 1e9) in
  let offs = Util.Vec.create 0 in
  let t = ref (-.log (1. -. Random.State.float rng 1.) /. rate *. 1e9) in
  while !t < float_of_int dur_ns do
    Util.Vec.push offs (int_of_float !t);
    t := !t -. (log (1. -. Random.State.float rng 1.) /. rate *. 1e9)
  done;
  let due = Util.Vec.to_array offs in
  let k = Array.length due in
  {
    dur_ns;
    due;
    opi = Array.init k (fun _ -> Gen.int rng pool);
    via = Array.init k (fun _ -> Gen.int rng 2);
    sent = Array.make k 0;
    recv = Array.make k 0;
    status = Array.make k Wire.Pong;
    start = 0;
    bad = 0;
  }

(* How long to wait for replies after a leg's last request was due. *)
let drain_ns = 10_000_000_000

(* The generator sleeps in select until [spin_ns] before the next
   request is due and spins from there: a sleep overshoots by the
   kernel's timer slack, which would make the request late. *)
let spin_ns = 150_000

let run_leg conns (pool : Gen.pool) ~base lg =
  let k = Array.length lg.due in
  let start = Util.now_ns () + 1_000_000 in
  lg.start <- start;
  Array.iteri (fun i d -> lg.due.(i) <- start + d) lg.due;
  let next = ref 0 and outstanding = ref 0 in
  let scratch = Bytes.create 65536 in
  let give_up = start + lg.dur_ns + drain_ns in
  let kill c =
    if c.alive then begin
      c.alive <- false;
      outstanding := !outstanding - c.inflight;
      c.inflight <- 0;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let issue ci now =
    let i = !next in
    incr next;
    let c = conns.(ci) in
    if c.alive then begin
      c.inflight <- c.inflight + 1;
      incr outstanding;
      lg.sent.(i) <- now;
      let frame =
        Wire.encode_request
          { Wire.id = base + i; timeout_us = 0; body = Wire.Query pool.ops.(lg.opi.(i)) }
      in
      if not (send c frame) then kill c
    end
  in
  let deliver ci t payload =
    let c = conns.(ci) in
    match Wire.decode_reply payload with
    | Ok { Wire.rid; status } when rid >= base && rid < base + k && lg.recv.(rid - base) = 0 ->
        lg.recv.(rid - base) <- t;
        lg.status.(rid - base) <- status;
        c.inflight <- c.inflight - 1;
        decr outstanding
    | _ -> lg.bad <- lg.bad + 1
  in
  let receive ci =
    let c = conns.(ci) in
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> kill c
    | n ->
        let t = Util.now_ns () in
        Wire.feed c.rd scratch 0 n;
        let rec frames () =
          match Wire.next c.rd with
          | Wire.Frame p ->
              deliver ci t p;
              frames ()
          | Wire.Need_more -> ()
          | Wire.Broken _ -> kill c
        in
        frames ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> kill c
  in
  while (!next < k || !outstanding > 0) && Util.now_ns () < give_up do
    let now = Util.now_ns () in
    while !next < k && lg.due.(!next) <= now do
      issue lg.via.(!next) now
    done;
    let wait = if !next < k then lg.due.(!next) - Util.now_ns () else 10_000_000 in
    let timeout = if wait < 2 * spin_ns then 0. else float_of_int (wait - spin_ns) /. 1e9 in
    let live = List.filter (fun ci -> conns.(ci).alive) (List.init (Array.length conns) Fun.id) in
    let fd ci = conns.(ci).fd in
    let writes = List.filter (fun ci -> Buffer.length conns.(ci).pending > 0) live in
    match Unix.select (List.map fd live) (List.map fd writes) [] timeout with
    | readable, writable, _ ->
        List.iter
          (fun ci ->
            let c = conns.(ci) in
            if List.memq c.fd writable && not (flush c) then kill c;
            if c.alive && List.memq c.fd readable then receive ci)
          live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* A blocking Stats round trip on [c] between legs: the server's probe
   report and counters, answered inline by its loop. *)
type view = { report : Wtrie.Report.t; requests : int; batches : int; shed : int; expired : int }

let stats c =
  if not (send c (Wire.encode_request { Wire.id = 0; timeout_us = 0; body = Wire.Stats })) then
    failwith "stats: send failed";
  let scratch = Bytes.create 65536 in
  let deadline = Util.now_ns () + 10_000_000_000 in
  let rec await () =
    match Wire.next c.rd with
    | Wire.Frame p -> (
        match Wire.decode_reply p with
        | Ok { Wire.rid = 0; status = Wire.Ok_value (Wtrie.Str s) } -> s
        | _ -> await ())
    | Wire.Broken m -> failwith ("stats: " ^ m)
    | Wire.Need_more ->
        if Util.now_ns () > deadline then failwith "stats: no reply";
        let writes = if Buffer.length c.pending > 0 then [ c.fd ] else [] in
        (match Unix.select [ c.fd ] writes [] 0.1 with
        | r, w, _ ->
            if w <> [] && not (flush c) then failwith "stats: send failed";
            if r <> [] then begin
              match Unix.read c.fd scratch 0 (Bytes.length scratch) with
              | 0 -> failwith "stats: server closed the connection"
              | n -> Wire.feed c.rd scratch 0 n
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
            end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        await ()
  in
  let j = match Wtrie.Json.of_string (await ()) with Ok j -> j | Error e -> failwith e in
  let report =
    match Option.map Wtrie.Report.of_json (Wtrie.Json.member "report" j) with
    | Some (Ok r) -> r
    | _ -> failwith "stats: no report"
  in
  let server k =
    Option.value ~default:0
      (Option.bind (Wtrie.Json.member "server" j) (fun s ->
           Option.bind (Wtrie.Json.member k s) Wtrie.Json.to_int))
  in
  {
    report;
    requests = server "requests";
    batches = server "batches";
    shed = server "shed";
    expired = server "expired";
  }

(* What a leg did, once its replies are checked against the pool's
   reference answers. *)
type outcome = {
  attempted : int;
  wrong : int;
  failed : int;  (** wrong + shed + expired + lost + bad *)
  lat : float array;  (** µs from due to reply, answered requests *)
  lag : float array;  (** µs from due to sent *)
  ok_rate : float;  (** answered requests per second, to the last reply *)
  last_ns : int;  (** when the last reply arrived *)
}

let outcome (pool : Gen.pool) lg =
  let lat = Util.Vec.create 0. and lag = Util.Vec.create 0. in
  let ok = ref 0 and wrong = ref 0 and failed = ref lg.bad and last = ref lg.start in
  for i = 0 to Array.length lg.due - 1 do
    let due = lg.due.(i) in
    if lg.sent.(i) > 0 then Util.Vec.push lag (Util.us (lg.sent.(i) - due));
    let answered v =
      if pool.answers.(lg.opi.(i)) = v then begin
        incr ok;
        Util.Vec.push lat (Util.us (lg.recv.(i) - due))
      end
      else incr wrong
    in
    if lg.recv.(i) = 0 then incr failed
    else begin
      last := max !last lg.recv.(i);
      match lg.status.(i) with
      | Wire.Ok_value v -> answered (Ok v)
      | Wire.Query_error e -> answered (Error e)
      | _ -> incr failed
    end
  done;
  {
    attempted = Array.length lg.due;
    wrong = !wrong;
    failed = !failed + !wrong;
    lat = Util.Vec.to_array lat;
    lag = Util.Vec.to_array lag;
    ok_rate = float_of_int !ok /. Util.secs (max lg.dur_ns (!last - lg.start));
    last_ns = !last;
  }

let p99 xs = Util.quantile (Util.sorted xs) 0.99
let median = Util.median
let on_time o = p99 o.lag <= lag_limit_us
let passes ~limit o = o.failed = 0 && median o.lat <= limit

(* The rate at which the median latency crosses [limit], between a
   point within it and one past it, interpolating log latency against
   log rate. *)
let crossing ~limit (r0, l0) (r1, l1) =
  if l1 <= l0 || r1 <= r0 then r0
  else begin
    let f = (log limit -. log l0) /. (log l1 -. log l0) in
    exp (log r0 +. (Float.max 0. (Float.min 1. f) *. (log r1 -. log r0)))
  end

(* ------------------------------------------------------------------ *)
(* One measured pass *)

type pass = {
  e2e : Out.pass;
  outcomes : outcome list;
  heavy : leg;
  heavy_o : outcome;
  before : view;  (** Stats just before the heavy leg *)
  after : view;  (** and just after it *)
}

let run_pass cfg ~rng ~conns ~(pool : Gen.pool) ~next_id =
  let outcomes = ref [] in
  let limit = ref infinity in
  let run name rate dur_s =
    let lg = plan rng ~rate ~dur_s ~pool:(Array.length pool.ops) in
    let base = !next_id in
    next_id := base + Array.length lg.due;
    Spans.with_span ~layer:"bench" ("leg " ^ name) (fun parent ->
        run_leg conns pool ~base lg;
        Array.iteri
          (fun i recv ->
            if recv > 0 then Spans.add ~parent ~key:(base + i) ~layer:"serve" "request" ~t0:lg.due.(i) ~t1:recv)
          lg.recv);
    let o = outcome pool lg in
    outcomes := o :: !outcomes;
    let lat = Util.sorted o.lat in
    let note =
      if not (on_time o) then " (generator late)" else if passes ~limit:!limit o then "" else " (misses the limit)"
    in
    Out.info
      "%s: %.0f req/s offered, %.0f answered/s, p50 %.0f us, p90 %.0f us, p99 %.0f us, p99.9 %.0f us (n=%d), lag p99 %.0f us, %d failed%s"
      name rate o.ok_rate (Util.quantile lat 0.5) (Util.quantile lat 0.9) (Util.quantile lat 0.99)
      (Util.quantile lat 0.999) (Array.length lat) (p99 o.lag) o.failed note;
    (lg, o)
  in
  let legs = cfg.legs in
  ignore (run "warmup" cfg.light_rps legs.warm_s);
  let _, light = run "light" cfg.light_rps legs.light_s in
  limit := knee *. median light.lat;
  let limit = !limit in
  let before = stats conns.(0) in
  let heavy, heavy_o = run "heavy" cfg.heavy_rps legs.heavy_s in
  let after = stats conns.(0) in
  (* the ladder climbs from the heavy rate until a step misses the
     limit; a step the generator could not offer on time is run once
     more *)
  let point o = (o.ok_rate, median o.lat) in
  let rec ladder rate step last retried =
    if step >= max_steps then (fst last, "the ladder ended below the limit")
    else begin
      let _, o = run (Printf.sprintf "step%d" step) rate legs.step_s in
      if (not (on_time o)) && not retried then ladder rate (step + 1) last true
      else if passes ~limit o then ladder (rate *. step_factor) (step + 1) (point o) false
      else if o.failed > 0 then (fst last, "operations failed past it")
      else (crossing ~limit last (point o), "interpolated")
    end
  in
  let max_rate, how =
    if passes ~limit heavy_o then ladder (cfg.heavy_rps *. step_factor) 0 (point heavy_o) false
    else (crossing ~limit (point light) (point heavy_o), "interpolated below the heavy rate")
  in
  Out.info "max rate %.0f req/s at a median limit of %.0f us (%s)" max_rate limit how;
  {
    e2e =
      Out.latencies "light" light.lat
      @ Out.latencies "heavy" heavy_o.lat
      @ [ ("max_rate_rps", "1/s", max_rate, 0) ];
    outcomes = !outcomes;
    heavy;
    heavy_o;
    before;
    after;
  }

(* Per-layer metrics from the traced pass's heavy leg; shed, expired
   and GC totals cover the server's whole life ([final]). *)
let layer_metrics p ~final (log : server_log) ~st =
  let d = { Layers.before = p.before.report; after = p.after.report } in
  let t0 = p.heavy.start and t1 = p.heavy_o.last_ns in
  let calls = List.filter (fun (s, _, _) -> s >= t0 && s <= t1) (Array.to_list log.calls) in
  let engine_ns = List.fold_left (fun a (_, dt, _) -> a + dt) 0 calls in
  let ops = List.fold_left (fun a (_, _, n) -> a + n) 0 calls in
  let weighted = List.fold_left (fun a (_, dt, n) -> a +. (float_of_int dt *. float_of_int n)) 0. calls in
  let wait, _, wait_mean_ns = Layers.hist d "serve_queue_wait" in
  Layers.emit "serve.queue_wait_us.p50" (Util.bucket_quantile wait 0.5 /. 1e3);
  Layers.emit "serve.queue_wait_us.p99" (Util.bucket_quantile wait 0.99 /. 1e3);
  Layers.emit "serve.ops_per_batch"
    (Layers.ratio (p.after.requests - p.before.requests) (p.after.batches - p.before.batches));
  Layers.emit "serve.other_us.mean"
    (Util.mean p.heavy_o.lat -. (wait_mean_ns /. 1e3)
    -. (if ops = 0 then 0. else weighted /. float_of_int ops /. 1e3));
  Layers.emit "serve.shed" (float_of_int final.shed);
  Layers.emit "serve.expired" (float_of_int final.expired);
  Layers.emit ~n:(Array.length p.heavy_o.lag) "client.lag_us.p99" (p99 p.heavy_o.lag);
  let batch_us = Array.of_list (List.map (fun (_, dt, _) -> Util.us dt) calls) in
  Layers.latency "exec.batch_us" batch_us;
  Layers.emit "exec.ns_per_op" (Layers.ratio engine_ns ops);
  Layers.emit "exec.busy_frac" (Layers.ratio engine_ns (t1 - t0));
  Layers.levels_per_batch d;
  Layers.trie d ~ops:(Layers.counter d "exec_batch_ops");
  Layers.space st;
  Layers.emit "gc.minor_words_per_op" (log.minor_words /. float_of_int (max 1 final.requests));
  Layers.emit "gc.major_collections" (float_of_int log.majors);
  Layers.runtime d ~wall_ns:(t1 - t0)

(* ------------------------------------------------------------------ *)

let setup_reps = 3

(* A traced run splits its length between an untraced and a traced pass. *)
let half cfg =
  let l = cfg.legs in
  { cfg with legs = { warm_s = l.warm_s; light_s = l.light_s /. 2.; heavy_s = l.heavy_s /. 2.; step_s = l.step_s /. 2. } }

let run cfg ~seed ~dir ~traced =
  (* set-up, timed as a user pays it: generate, build, save, then start
     the server, which maps the file and listens; repeated so its median
     is steady, and only the last server is kept *)
  let setup rep =
    let t0 = Util.now_ns () in
    Spans.with_span ~layer:"bench" "setup" (fun _ ->
        let data = Gen.urls ~seed cfg.shape cfg.n in
        let wt = Spans.with_span ~layer:"trie" "Static.of_array" (fun _ -> Wtrie.Static.of_array data) in
        let index = Filename.concat dir (Printf.sprintf "index-%d.wt" rep) in
        Spans.with_span ~layer:"trie" "Static.save_file" (fun _ -> Wtrie.Static.save_file_exn wt index);
        let srv = Spans.with_span ~layer:"serve" "server start" (fun _ -> start_server index) in
        (data, wt, index, srv, Util.now_ns () - t0))
  in
  let rec setups rep times =
    let ((_, _, _, srv, dt) as s) = setup rep in
    if rep + 1 < setup_reps then begin
      ignore (stop_server srv);
      setups (rep + 1) (dt :: times)
    end
    else (s, dt :: times)
  in
  let (data, wt, index, srv, _), times = setups 0 [] in
  Fun.protect ~finally:(fun () -> ignore (stop_server srv)) @@ fun () ->
  let rng = Gen.rng ~seed 1 in
  let pool =
    Spans.with_span ~layer:"bench" "reference answers" (fun _ -> Gen.pool ~rng ~data ~index cfg.pool)
  in
  let st = Wt_core.Flat_wt.stats wt in
  let conns = Array.init 2 (fun _ -> connect srv.port) in
  let next_id = ref 1 in
  let pass ~traced cfg =
    Spans.on := traced;
    run_pass cfg ~rng ~conns ~pool ~next_id
  in
  let untraced, traced_pass =
    if traced then
      let u = pass ~traced:false (half cfg) in
      (u, Some (pass ~traced:true (half cfg)))
    else (pass ~traced:false cfg, None)
  in
  let final = stats conns.(0) in
  Array.iter (fun c -> if c.alive then Unix.close c.fd) conns;
  let log = stop_server srv in
  Out.metric ~n:setup_reps Out.E2e "setup_s" "s" (Util.median (Array.of_list (List.map Util.secs times)));
  Out.emit_pass untraced.e2e;
  Out.metric Out.E2e "space_x_lb" "x" (Gen.space_x_lb st);
  Out.metric Out.E2e "peak_rss_mb" "MB" log.rss_mb;
  (match traced_pass with
  | None -> ()
  | Some p ->
      Out.overhead ~untraced:untraced.e2e ~traced:p.e2e;
      layer_metrics p ~final log ~st;
      (* the server's spans: its mmap open, and every engine call keyed
         by its batch number *)
      let oa, ob = srv.opened in
      Spans.add_process ~pname:"server"
        (Array.append
           [| { Spans.dummy with id = 0; name = "Static.open_file"; layer = "trie"; t0 = oa; t1 = ob } |]
           (Array.mapi
              (fun i (s, dt, _) ->
                { Spans.dummy with id = i + 1; name = "engine"; layer = "exec"; key = i; t0 = s; t1 = s + dt })
              log.calls)));
  let all = untraced.outcomes @ Option.fold ~none:[] ~some:(fun p -> p.outcomes) traced_pass in
  let sum f = List.fold_left (fun a o -> a + f o) 0 all in
  (sum (fun o -> o.attempted), sum (fun o -> o.failed), sum (fun o -> o.wrong))
