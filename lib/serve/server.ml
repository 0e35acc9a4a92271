(** The overload-safe TCP serving front-end.

    A single-domain [Unix.select] event loop owns every socket; query
    execution is the only parallel part (sharded over the domain pool by
    {!Wt_par.Par_exec}, against the latest {!Wt_par.Snapshot}).  The
    loop accepts connections, peels {!Wire} frames off them, answers
    [Ping]/[Length] inline, and admits queries to the {!Batcher}; due
    batches are executed and their replies demultiplexed back to each
    connection's write buffer in request order.

    Degradation is graceful by construction:

    - a full queue or a connection past its in-flight cap answers
      [Overloaded] immediately ({!Batcher});
    - at [max_conns] the listener is simply left out of the select
      read set, so new connections queue in the kernel backlog instead
      of growing server state;
    - a connection that sends garbage, declares an absurd frame length,
      stalls mid-frame past the read timeout, or refuses to drain its
      replies past [outbuf_max] is closed — and only it: per-connection
      failures never reach the loop;
    - [SIGTERM]/{!request_stop} flips an atomic the loop polls; it then
      stops accepting, executes everything already admitted, drains
      write buffers within [drain_grace_ms], and returns so the process
      can exit 0.

    A fatal loop error (a bug, not a client) dumps the flight-recorder
    ring when [WTRIE_FLIGHT_DUMP] is set, then re-raises. *)

module Probe = Wt_obs.Probe
module Flight = Wt_obs.Flight
module Export = Wt_obs.Export
module Runtime = Wt_obs.Runtime
module Report = Wt_obs.Report
module Json = Wt_obs.Json
module Snapshot = Wt_par.Snapshot
module Is = Wt_core.Indexed_sequence

(* What the loop needs from a backend: its length (the inline [Length]
   reply), its batch engine, and the gauges it exports (each sampled
   from the currently published value at scrape time).  The value's type
   is packed away in {!source}, so one server type serves both the
   static arena and the tiered store. *)
type 'trie backend = {
  length : 'trie -> int;
  engine :
    ?pool:Wt_par.Pool.t ->
    ?domains:int ->
    'trie ->
    Is.op array ->
    (Is.value, Is.error) result array;
  gauges : (string * ('trie -> float)) list;
}

type source = Source : 'trie backend * 'trie Snapshot.t -> source

(* A closed or corrupt arena answers each op as [Wtrie.Static.query_batch]
   does, with [Trie_closed] or [Storage_error], instead of raising out of
   the serve loop. *)
let static_backend =
  {
    length = Wt_core.Flat_wt.length;
    engine =
      (fun ?pool ?domains trie ops ->
        Is.protect_batch (Wt_core.String_api.Static.protect trie) ops (fun () ->
            Wt_par.Par_exec.query_batch ?pool ?domains Wt_exec.Exec.Static.query_batch trie
              ops));
    (* the arena's space split: labels, β blobs, and the directory
       (header, topology, node offsets, padding) *)
    gauges =
      (let bits f t = float_of_int (f t) in
       [
         ("static_label_bits", bits Wt_core.Flat_wt.label_bits);
         ("static_bv_bits", bits Wt_core.Flat_wt.bv_bits);
         ("static_directory_bits", bits Wt_core.Flat_wt.directory_bits);
       ]);
  }

(* Serves the tiered store's epoch-published merged views ([runs…;
   delta]); the per-tier sub-batches go through the pool exactly like
   the single-trie backends, and a closed or corrupt tier answers as
   [Wt_tiered.Tiered.query_batch] does.  Pair it with
   [Wt_tiered.Tiered.handle]. *)
let tiered_backend =
  {
    length = Wt_tiered.Tiered.View.length;
    engine =
      (fun ?pool ?domains view ops ->
        let module V = Wt_tiered.Tiered.View in
        Is.protect_batch (V.protect ~dir:view.V.dir) ops (fun () ->
            V.query_batch ?pool ?domains view ops));
    gauges = [];
  }

type config = {
  host : string;
  port : int;  (** 0 = ephemeral; read the bound port with {!port} *)
  batch_max : int;
  window_us : int;
  queue_max : int;
  max_conns : int;
  max_frame : int;
  conn_inflight_max : int;
  outbuf_max : int;
  read_timeout_ms : int;  (** mid-frame stall allowance (slow-loris) *)
  drain_grace_ms : int;
  domains : int option;  (** [None] = execute on the loop's domain *)
  pool : Wt_par.Pool.t option;
  metrics_port : int option;
      (** also listen here for plain-TCP metrics scrapes: each accepted
          connection gets one HTTP/1.0 response carrying the Prometheus
          exposition, written through the select loop, then closed.
          [Some 0] = ephemeral; read the bound port with
          {!metrics_port}.  [None] (default) = no listener. *)
  slow_ms : int option;
      (** log an exemplar for any request whose queue-wait plus
          batch-execution time reaches this many milliseconds ([Some 0]
          = log every request); [None] (default) disables the log *)
}

let default_config () =
  {
    host = "127.0.0.1";
    port = 0;
    batch_max = 512;
    window_us = 200;
    queue_max = 8192;
    max_conns = 1024;
    max_frame = Wire.default_max_frame;
    conn_inflight_max = 1024;
    outbuf_max = 4 lsl 20;
    read_timeout_ms = 10_000;
    drain_grace_ms = 5_000;
    domains = None;
    pool = None;
    metrics_port = None;
    slow_ms = None;
  }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  rd : Wire.reader;
  outq : string Queue.t;  (** encoded frames awaiting the socket *)
  mutable out_head_pos : int;  (** bytes of the head frame already written *)
  mutable out_bytes : int;
  mutable inflight : int;  (** admitted queries not yet answered *)
  mutable last_rx_ns : int;
  mutable alive : bool;
}

(* Plain fields, not atomics: every mutation happens on the loop domain.
   Exposed so tests and the CLI can report what the server actually did. *)
type stats = {
  mutable accepted : int;
  mutable closed_defensive : int;
  mutable requests : int;
  mutable batches : int;
  mutable shed : int;
  mutable expired : int;
  mutable bad_frames : int;
  mutable slow : int;  (** requests past the slow-query threshold *)
}

(* A slow-query exemplar: enough to attribute one bad tail sample
   without a full trace — what kind of query, how long it waited in the
   batcher vs. how long its batch executed, and the [serve.batch] span
   it ran under (so a concurrently exported Chrome trace can be joined
   on the id). *)
type exemplar = {
  x_t_ns : int;  (** flush instant *)
  x_kind : string;  (** query kind: "access", "rank", ... *)
  x_rid : int;  (** client-assigned request id *)
  x_wait_ns : int;  (** admission to batch cut *)
  x_exec_ns : int;  (** the owning batch's execution time *)
  x_span : int;  (** [serve.batch] span id, [-1] when tracing is off *)
}

let slow_capacity = 64
(* Ring slots: the most recent exemplars survive, the rest age out —
   same bounded-memory discipline as the flight recorder. *)

let dummy_exemplar =
  { x_t_ns = 0; x_kind = ""; x_rid = 0; x_wait_ns = 0; x_exec_ns = 0; x_span = -1 }

(* A metrics-scrape connection: one pre-rendered response draining
   through the select loop, then closed.  Input (the HTTP request line
   curl sends) is read and discarded so the close is orderly. *)
type mconn = {
  mfd : Unix.file_descr;
  mbuf : string;
  mutable moff : int;
  mutable malive : bool;
}

type t = {
  cfg : config;
  source : source;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics_fd : Unix.file_descr option;
  metrics_bound_port : int;  (** [-1] when no metrics listener *)
  batcher : (conn * int) Batcher.t;
  conns : (int, conn) Hashtbl.t;
  stop : bool Atomic.t;
  stats : stats;
  scratch : Bytes.t;
  mutable next_cid : int;
  mutable mconns : mconn list;
  slow_ring : exemplar array;
  mutable slow_widx : int;
  mutable last_rt_poll_ns : int;
}

let port t = t.bound_port
let metrics_port t = if t.metrics_bound_port >= 0 then Some t.metrics_bound_port else None
let stats t = t.stats
let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

(* [create ?config snap] binds and listens; [Unix.Unix_error] from
   socket/bind propagates to the caller (the CLI maps it to exit 74). *)
let create ?config ~backend snap =
  let cfg = match config with Some c -> c | None -> default_config () in
  (* a peer that disappears mid-write must surface as EPIPE on the
     write call, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ());
  let listen_on port =
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, port) in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd addr;
       Unix.listen fd 128;
       Unix.set_nonblock fd
     with
    | () -> ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
    let bound =
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
    in
    (fd, bound)
  in
  let fd, bound_port = listen_on cfg.port in
  let metrics_fd, metrics_bound_port =
    match cfg.metrics_port with
    | None -> (None, -1)
    | Some p -> (
        match listen_on p with
        | mfd, mp -> (Some mfd, mp)
        | exception e ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            raise e)
  in
  Flight.record ~a:bound_port ~note:"serve.listen" Mark;
  let t =
    {
      cfg;
      source = Source (backend, snap);
      listen_fd = fd;
      bound_port;
      metrics_fd;
      metrics_bound_port;
      batcher =
        Batcher.create ~batch_max:cfg.batch_max ~window_ns:(cfg.window_us * 1000)
          ~queue_max:cfg.queue_max ();
      conns = Hashtbl.create 64;
      stop = Atomic.make false;
      stats =
        {
          accepted = 0;
          closed_defensive = 0;
          requests = 0;
          batches = 0;
          shed = 0;
          expired = 0;
          bad_frames = 0;
          slow = 0;
        };
      scratch = Bytes.create 65536;
      next_cid = 0;
      mconns = [];
      slow_ring = Array.make slow_capacity dummy_exemplar;
      slow_widx = 0;
      last_rt_poll_ns = 0;
    }
  in
  (* live-state gauges for the scrape: replaced by name, so restarting
     a server in-process keeps the gauge set stable *)
  Export.register_gauge "serve_open_conns" (fun () ->
      float_of_int (Hashtbl.length t.conns));
  Export.register_gauge "serve_pending_ops" (fun () ->
      float_of_int (Batcher.pending t.batcher));
  List.iter
    (fun (name, f) -> Export.register_gauge name (fun () -> f (Snapshot.read snap)))
    backend.gauges;
  t

(* ------------------------------------------------------------------ *)
(* Connection plumbing *)

let close_conn t ?(defensive = false) c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove t.conns c.cid;
    if defensive then begin
      t.stats.closed_defensive <- t.stats.closed_defensive + 1;
      Probe.hit Serve_conn_close
    end;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let send_reply t c reply =
  if c.alive then begin
    let s = Wire.encode_reply reply in
    Queue.push s c.outq;
    c.out_bytes <- c.out_bytes + String.length s;
    (* a reader that never drains its replies is backpressured by
       disconnect, not by unbounded server memory *)
    if c.out_bytes > t.cfg.outbuf_max then close_conn t ~defensive:true c
  end

let handle_write t c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.outq) do
    let head = Queue.peek c.outq in
    let len = String.length head - c.out_head_pos in
    match Unix.write_substring c.fd head c.out_head_pos len with
    | n ->
        c.out_bytes <- c.out_bytes - n;
        if n = len then begin
          ignore (Queue.pop c.outq);
          c.out_head_pos <- 0
        end
        else begin
          c.out_head_pos <- c.out_head_pos + n;
          continue := false
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (_, _, _) ->
        close_conn t c;
        continue := false
  done

(* ------------------------------------------------------------------ *)
(* Slow-query exemplars *)

let op_kind = function
  | Is.Access _ -> "access"
  | Is.Rank _ -> "rank"
  | Is.Select _ -> "select"
  | Is.Rank_prefix _ -> "rank_prefix"
  | Is.Select_prefix _ -> "select_prefix"

let note_slow t ~kind ~rid ~wait_ns ~exec_ns ~span =
  t.stats.slow <- t.stats.slow + 1;
  Probe.hit Serve_slow;
  Flight.record ~a:wait_ns ~b:exec_ns ~note:kind Slow_query;
  t.slow_ring.(t.slow_widx land (slow_capacity - 1)) <-
    { x_t_ns = Probe.now_ns (); x_kind = kind; x_rid = rid; x_wait_ns = wait_ns;
      x_exec_ns = exec_ns; x_span = span };
  t.slow_widx <- t.slow_widx + 1

let slow_exemplars t =
  let n = t.slow_widx in
  let lo = max 0 (n - slow_capacity) in
  List.init (n - lo) (fun i -> t.slow_ring.((lo + i) land (slow_capacity - 1)))

let exemplar_json x =
  Json.Obj
    [
      ("t_ns", Json.Int x.x_t_ns);
      ("kind", Json.Str x.x_kind);
      ("rid", Json.Int x.x_rid);
      ("wait_ns", Json.Int x.x_wait_ns);
      ("exec_ns", Json.Int x.x_exec_ns);
      ("span", Json.Int x.x_span);
    ]

(* ------------------------------------------------------------------ *)
(* Live telemetry rendering (Stats / Scrape / --metrics-port) *)

(* Both renderers poll the runtime bridge first, so GC pauses that
   happened since the last serve-loop poll are visible at the instant
   of the scrape (a no-op when the bridge was never started). *)

let stats_json t =
  ignore (Runtime.poll ());
  Json.Obj
    [
      ("report", Report.to_json (Report.capture ()));
      ( "server",
        Json.Obj
          [
            ("accepted", Json.Int t.stats.accepted);
            ("closed_defensive", Json.Int t.stats.closed_defensive);
            ("requests", Json.Int t.stats.requests);
            ("batches", Json.Int t.stats.batches);
            ("shed", Json.Int t.stats.shed);
            ("expired", Json.Int t.stats.expired);
            ("bad_frames", Json.Int t.stats.bad_frames);
            ("slow", Json.Int t.stats.slow);
            ("conns", Json.Int (Hashtbl.length t.conns));
            ("pending_ops", Json.Int (Batcher.pending t.batcher));
          ] );
      ("slow_queries", Json.List (List.map exemplar_json (slow_exemplars t)));
    ]

(* The exposition page: the full metric universe plus gauges, then one
   comment line per slow-query exemplar — comments keep the page valid
   for any Prometheus parser while still carrying the per-request
   attribution a TSDB cannot. *)
let scrape_text t =
  ignore (Runtime.poll ());
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Export.prometheus ());
  List.iter
    (fun x ->
      Buffer.add_string buf
        (Printf.sprintf
           "# EXEMPLAR wtrie_serve_slow_query kind=%s rid=%d span=%d wait_ns=%d exec_ns=%d t_ns=%d\n"
           x.x_kind x.x_rid x.x_span x.x_wait_ns x.x_exec_ns x.x_t_ns))
    (slow_exemplars t);
  Buffer.contents buf

let http_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    (String.length body) body

(* ------------------------------------------------------------------ *)
(* Metrics listener *)

let max_mconns = 32
(* Concurrent scrapes in flight; past this, accepts wait in the kernel
   backlog.  A scrape is one response and a close, so the cap only ever
   binds under a misbehaving scraper. *)

let close_mconn mc =
  if mc.malive then begin
    mc.malive <- false;
    try Unix.close mc.mfd with Unix.Unix_error _ -> ()
  end

let accept_metrics_burst t mfd =
  let continue = ref true in
  while !continue && List.length t.mconns < max_mconns do
    match Unix.accept mfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (* render once at accept: every scrape sees a consistent page,
           and the write path is pure buffer drain *)
        let mc = { mfd = fd; mbuf = http_response (scrape_text t); moff = 0; malive = true } in
        t.mconns <- mc :: t.mconns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* The request bytes (curl's GET line) are irrelevant — read them so the
   peer's send completes, discard them, and treat EOF/error as done. *)
let handle_mconn_read t mc =
  match Unix.read mc.mfd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> close_mconn mc
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_mconn mc

let handle_mconn_write mc =
  let continue = ref true in
  while !continue && mc.malive && mc.moff < String.length mc.mbuf do
    let len = String.length mc.mbuf - mc.moff in
    match Unix.write_substring mc.mfd mc.mbuf mc.moff len with
    | n ->
        mc.moff <- mc.moff + n;
        if n < len then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) ->
        close_mconn mc;
        continue := false
  done;
  if mc.malive && mc.moff >= String.length mc.mbuf then close_mconn mc

(* ------------------------------------------------------------------ *)
(* Requests *)

let overloaded t c rid =
  t.stats.shed <- t.stats.shed + 1;
  send_reply t c { Wire.rid; status = Wire.Overloaded }

let handle_frame t c now_ns payload =
  match Wire.decode_request payload with
  | Error msg ->
      (* a syntactically valid frame with an undecodable payload gets a
         correlated error reply; the connection survives *)
      t.stats.bad_frames <- t.stats.bad_frames + 1;
      Probe.hit Serve_bad_frame;
      send_reply t c { Wire.rid = Wire.request_id_hint payload; status = Wire.Bad_request msg }
  | Ok { Wire.id; timeout_us = _; body = Wire.Ping } ->
      send_reply t c { Wire.rid = id; status = Wire.Pong }
  | Ok { Wire.id; timeout_us = _; body = Wire.Length } ->
      let (Source (b, snap)) = t.source in
      let len = b.length (Snapshot.read snap) in
      send_reply t c { Wire.rid = id; status = Wire.Ok_value (Is.Int len) }
  | Ok { Wire.id; timeout_us = _; body = Wire.Stats } ->
      (* answered inline, never queued: telemetry must stay readable
         when the batcher is the thing being diagnosed *)
      send_reply t c
        { Wire.rid = id; status = Wire.Ok_value (Is.Str (Json.to_string (stats_json t))) }
  | Ok { Wire.id; timeout_us = _; body = Wire.Scrape } ->
      send_reply t c { Wire.rid = id; status = Wire.Ok_value (Is.Str (scrape_text t)) }
  | Ok { Wire.id; timeout_us; body = Wire.Query op } ->
      if c.inflight >= t.cfg.conn_inflight_max then begin
        Probe.hit Serve_shed;
        overloaded t c id
      end
      else begin
        match Batcher.admit t.batcher ~now_ns ~key:(c, id) ~timeout_us op with
        | Batcher.Overloaded -> overloaded t c id
        | Batcher.Admitted ->
            c.inflight <- c.inflight + 1;
            t.stats.requests <- t.stats.requests + 1
      end

let handle_read t c =
  match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> close_conn t c (* orderly EOF; any in-flight replies are dropped at demux *)
  | n ->
      c.last_rx_ns <- Probe.now_ns ();
      Wire.feed c.rd t.scratch 0 n;
      let continue = ref true in
      while !continue && c.alive do
        match Wire.next c.rd with
        | Wire.Need_more -> continue := false
        | Wire.Broken _ ->
            (* an implausible frame length: nothing downstream of it can
               be trusted, so the stream dies rather than resynchronise *)
            t.stats.bad_frames <- t.stats.bad_frames + 1;
            Probe.hit Serve_bad_frame;
            close_conn t ~defensive:true c;
            continue := false
        | Wire.Frame payload -> handle_frame t c (Probe.now_ns ()) payload
      done
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c

let accept_burst t =
  let continue = ref true in
  while !continue && Hashtbl.length t.conns < t.cfg.max_conns do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let cid = t.next_cid in
        t.next_cid <- cid + 1;
        let c =
          {
            fd;
            cid;
            rd = Wire.reader ~max_frame:t.cfg.max_frame ();
            outq = Queue.create ();
            out_head_pos = 0;
            out_bytes = 0;
            inflight = 0;
            last_rx_ns = Probe.now_ns ();
            alive = true;
          }
        in
        Hashtbl.replace t.conns cid c;
        t.stats.accepted <- t.stats.accepted + 1;
        Probe.hit Serve_accept
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* Batch execution *)

let flush_batch t =
  let now_ns = Probe.now_ns () in
  let (Source (b, snap)) = t.source in
  let trie = Snapshot.read snap in
  (* the slow-query hook only exists when a threshold is configured, so
     the common no-logging path pays nothing per op *)
  let on_done =
    match t.cfg.slow_ms with
    | None -> None
    | Some ms ->
        let thr_ns = ms * 1_000_000 in
        Some
          (fun (_, rid) op ~wait_ns ~exec_ns ~span ->
            if wait_ns + exec_ns >= thr_ns then
              note_slow t ~kind:(op_kind op) ~rid ~wait_ns ~exec_ns ~span)
  in
  let results =
    Batcher.flush ?on_done t.batcher ~now_ns ~exec:(fun ops ->
        b.engine ?pool:t.cfg.pool ?domains:t.cfg.domains trie ops)
  in
  if Array.length results > 0 then t.stats.batches <- t.stats.batches + 1;
  Array.iter
    (fun ((c, rid), res) ->
      c.inflight <- c.inflight - 1;
      match res with
      | None ->
          t.stats.expired <- t.stats.expired + 1;
          send_reply t c { Wire.rid; status = Wire.Deadline_exceeded }
      | Some (Ok v) -> send_reply t c { Wire.rid; status = Wire.Ok_value v }
      | Some (Error e) -> send_reply t c { Wire.rid; status = Wire.Query_error e })
    results

(* ------------------------------------------------------------------ *)
(* Event loop *)

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

let reap_stalled t now_ns =
  let timeout_ns = t.cfg.read_timeout_ms * 1_000_000 in
  if timeout_ns > 0 then
    List.iter
      (fun c ->
        (* only a connection stuck mid-frame is a slow-loris suspect; an
           idle connection with no partial frame may sit forever *)
        if Wire.buffered c.rd > 0 && now_ns - c.last_rx_ns > timeout_ns then
          close_conn t ~defensive:true c)
      (conn_list t)

let select_timeout t now_ns =
  match Batcher.due_at t.batcher with
  | None -> 0.05
  | Some due -> Float.max 0. (Float.min 0.05 (float_of_int (due - now_ns) /. 1e9))

let loop_once t =
  let now_ns = Probe.now_ns () in
  (* drain the runtime-events ring at most every 10ms: often enough
     that GC pause histograms track live, rare enough to be invisible
     in the loop's budget (a no-op when the bridge isn't started) *)
  if now_ns - t.last_rt_poll_ns > 10_000_000 then begin
    t.last_rt_poll_ns <- now_ns;
    ignore (Runtime.poll ())
  end;
  t.mconns <- List.filter (fun mc -> mc.malive) t.mconns;
  let conns = conn_list t in
  let reads =
    let base = List.map (fun c -> c.fd) conns in
    let base = List.fold_left (fun acc mc -> mc.mfd :: acc) base t.mconns in
    let base =
      match t.metrics_fd with
      | Some mfd when List.length t.mconns < max_mconns && not (stopping t) -> mfd :: base
      | _ -> base
    in
    (* accept pushback: past max_conns the listener stays out of the
       read set and new connections wait in the kernel backlog *)
    if Hashtbl.length t.conns < t.cfg.max_conns && not (stopping t) then t.listen_fd :: base
    else base
  in
  let writes = List.filter_map (fun c -> if c.out_bytes > 0 then Some c.fd else None) conns in
  let writes = List.fold_left (fun acc mc -> mc.mfd :: acc) writes t.mconns in
  let readable, writable, _ =
    match Unix.select reads writes [] (select_timeout t now_ns) with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if List.memq t.listen_fd readable then accept_burst t;
  (match t.metrics_fd with
  | Some mfd when List.memq mfd readable -> accept_metrics_burst t mfd
  | _ -> ());
  List.iter (fun c -> if List.memq c.fd readable then handle_read t c) conns;
  List.iter (fun mc -> if mc.malive && List.memq mc.mfd readable then handle_mconn_read t mc) t.mconns;
  let now_ns = Probe.now_ns () in
  while Batcher.due t.batcher ~now_ns do
    flush_batch t
  done;
  (* write after flushing so replies produced this iteration go out
     without waiting for the next select round *)
  List.iter (fun c -> if c.alive && (List.memq c.fd writable || c.out_bytes > 0) then handle_write t c) conns;
  List.iter (fun mc -> if mc.malive && List.memq mc.mfd writable then handle_mconn_write mc) t.mconns;
  reap_stalled t (Probe.now_ns ())

let close_metrics t =
  (match t.metrics_fd with
  | Some mfd -> ( try Unix.close mfd with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter close_mconn t.mconns;
  t.mconns <- []

let drain t =
  Flight.record ~note:"serve.drain" Mark;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  close_metrics t;
  (* everything already admitted is executed and answered *)
  while Batcher.pending t.batcher > 0 do
    flush_batch t
  done;
  let deadline = Probe.now_ns () + (t.cfg.drain_grace_ms * 1_000_000) in
  let rec pump () =
    let waiting = List.filter (fun c -> c.alive && c.out_bytes > 0) (conn_list t) in
    if waiting <> [] && Probe.now_ns () < deadline then begin
      (match Unix.select [] (List.map (fun c -> c.fd) waiting) [] 0.05 with
      | _, writable, _ ->
          List.iter (fun c -> if List.memq c.fd writable then handle_write t c) waiting
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      pump ()
    end
  in
  pump ();
  List.iter (fun c -> close_conn t c) (conn_list t)

(* [serve t] blocks until {!request_stop} (or SIGTERM via the CLI's
   handler), then drains and returns.  Per-connection failures are
   contained; anything that escapes the loop is a server bug and dumps
   the flight ring (when [WTRIE_FLIGHT_DUMP] is set) before re-raising. *)
let serve t =
  match
    while not (stopping t) do
      loop_once t
    done
  with
  | () -> drain t
  | exception e ->
      (match Sys.getenv_opt "WTRIE_FLIGHT_DUMP" with
      | Some path when path <> "" -> (
          try
            let oc = open_out path in
            output_string oc (Wt_obs.Json.to_string (Flight.to_json ()));
            output_string oc "\n";
            close_out oc
          with Sys_error _ -> ())
      | _ -> ());
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      close_metrics t;
      List.iter (fun c -> close_conn t c) (conn_list t);
      raise e
