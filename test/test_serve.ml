(* The serving front-end under test: the wire codec is fuzzed (random
   bytes, truncations, bit flips — decode must be total; encode∘decode
   must be the identity), and a live server on a loopback socket is
   held to the one oracle (oracle.ml) — every reply must equal its
   answer for the same operation — while clients misbehave
   around it: garbage frames, absurd declared lengths, mid-frame
   disconnects, overload past the admission watermark, and deadlines
   shorter than the batching window.  The server must shed and expire
   loudly (Overloaded / Deadline_exceeded), keep serving afterwards,
   and drain cleanly on request_stop. *)

module Xoshiro = Wt_bits.Xoshiro
module Is = Wt_core.Indexed_sequence
module Snapshot = Wt_par.Snapshot
module Wire = Wt_serve.Wire
module Batcher = Wt_serve.Batcher
module Server = Wt_serve.Server
module Client = Wt_serve.Client

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_string rng =
  let n = Xoshiro.int rng 12 in
  String.init n (fun _ -> Char.chr (Xoshiro.int rng 256))

let gen_op rng =
  match Xoshiro.int rng 5 with
  | 0 -> Is.Access { pos = Xoshiro.int rng 2000 - 100 }
  | 1 -> Is.Rank { s = gen_string rng; pos = Xoshiro.int rng 2000 - 100 }
  | 2 -> Is.Select { s = gen_string rng; count = Xoshiro.int rng 20 - 5 }
  | 3 -> Is.Rank_prefix { prefix = gen_string rng; pos = Xoshiro.int rng 2000 - 100 }
  | _ -> Is.Select_prefix { prefix = gen_string rng; count = Xoshiro.int rng 20 - 5 }

let gen_body rng =
  match Xoshiro.int rng 8 with 0 -> Wire.Ping | 1 -> Wire.Length | _ -> Wire.Query (gen_op rng)

let gen_request rng =
  {
    Wire.id = Xoshiro.int rng 1_000_000;
    timeout_us = (if Xoshiro.int rng 4 = 0 then Xoshiro.int rng 10_000 else 0);
    body = gen_body rng;
  }

let gen_status rng =
  match Xoshiro.int rng 8 with
  | 0 -> Wire.Ok_value (Is.Int (Xoshiro.int rng 10_000 - 5_000))
  | 1 -> Wire.Ok_value (Is.Str (gen_string rng))
  | 2 -> Wire.Pong
  | 3 ->
      Wire.Query_error
        (Is.Position_out_of_bounds { pos = Xoshiro.int rng 100 - 50; len = Xoshiro.int rng 100 })
  | 4 -> Wire.Query_error (Is.Negative_count { count = Xoshiro.int rng 100 - 99 })
  | 5 ->
      Wire.Query_error
        (Is.No_occurrence { count = Xoshiro.int rng 100; occurrences = Xoshiro.int rng 100 })
  | 6 -> Wire.Overloaded
  | _ -> if Xoshiro.int rng 2 = 0 then Wire.Deadline_exceeded else Wire.Bad_request (gen_string rng)

let payload_of_frame s = String.sub s 4 (String.length s - 4)

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let test_request_roundtrip () =
  let rng = Xoshiro.create 11 in
  for _ = 1 to 2_000 do
    let r = gen_request rng in
    match Wire.decode_request (payload_of_frame (Wire.encode_request r)) with
    | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
    | Error m -> Alcotest.failf "round-trip rejected: %s" m
  done

let test_reply_roundtrip () =
  let rng = Xoshiro.create 12 in
  for _ = 1 to 2_000 do
    let r = { Wire.rid = Xoshiro.int rng 1_000_000; status = gen_status rng } in
    match Wire.decode_reply (payload_of_frame (Wire.encode_reply r)) with
    | Ok r' -> Alcotest.(check bool) "reply round-trips" true (r = r')
    | Error m -> Alcotest.failf "round-trip rejected: %s" m
  done

(* decode is total: arbitrary bytes, truncations and bit flips of valid
   payloads may be rejected but must never raise *)
let decode_total =
  QCheck.Test.make ~count:2_000 ~name:"decode never raises on arbitrary bytes"
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      (match Wire.decode_request s with Ok _ | Error _ -> ());
      (match Wire.decode_reply s with Ok _ | Error _ -> ());
      true)

let test_decode_corrupted_total () =
  let rng = Xoshiro.create 13 in
  for _ = 1 to 2_000 do
    let p = payload_of_frame (Wire.encode_request (gen_request rng)) in
    let p =
      match Xoshiro.int rng 3 with
      | 0 -> String.sub p 0 (Xoshiro.int rng (String.length p + 1)) (* truncate *)
      | 1 ->
          let b = Bytes.of_string p in
          let i = Xoshiro.int rng (Bytes.length b) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Xoshiro.int rng 8)));
          Bytes.to_string b
      | _ -> p ^ gen_string rng (* trailing junk *)
    in
    match Wire.decode_request p with Ok _ | Error _ -> ()
  done

(* the incremental reader recovers exactly the sent frames regardless of
   how the byte stream is chopped up *)
let test_reader_chunked () =
  let rng = Xoshiro.create 14 in
  for _ = 1 to 200 do
    let reqs = Array.init (1 + Xoshiro.int rng 20) (fun _ -> gen_request rng) in
    let stream = String.concat "" (Array.to_list (Array.map Wire.encode_request reqs)) in
    let rd = Wire.reader () in
    let got = ref [] in
    let pos = ref 0 in
    while !pos < String.length stream do
      let n = min (1 + Xoshiro.int rng 40) (String.length stream - !pos) in
      Wire.feed rd (Bytes.of_string stream) !pos n;
      pos := !pos + n;
      let continue = ref true in
      while !continue do
        match Wire.next rd with
        | Wire.Frame p -> got := p :: !got
        | Wire.Need_more -> continue := false
        | Wire.Broken m -> Alcotest.failf "clean stream broke: %s" m
      done
    done;
    let got = Array.of_list (List.rev !got) in
    Alcotest.(check int) "frame count" (Array.length reqs) (Array.length got);
    Array.iteri
      (fun i p ->
        Alcotest.(check bool) "frame payload" true
          (Wire.decode_request p = Ok reqs.(i)))
      got
  done

(* a reader fed arbitrary garbage never raises and never allocates a
   frame bigger than max_frame *)
let reader_garbage_total =
  QCheck.Test.make ~count:500 ~name:"reader survives garbage streams"
    QCheck.(string_of_size Gen.(0 -- 256))
    (fun s ->
      let rd = Wire.reader ~max_frame:64 () in
      Wire.feed rd (Bytes.of_string s) 0 (String.length s);
      let continue = ref true in
      while !continue do
        match Wire.next rd with
        | Wire.Frame p ->
            if String.length p > 64 then failwith "oversized frame escaped";
            ()
        | Wire.Need_more | Wire.Broken _ -> continue := false
      done;
      true)

let test_reader_rejects_absurd_length () =
  let rd = Wire.reader ~max_frame:1024 () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0x7FFFFFFFl;
  Wire.feed rd b 0 4;
  (match Wire.next rd with
  | Wire.Broken _ -> ()
  | Wire.Frame _ | Wire.Need_more -> Alcotest.fail "absurd length not rejected at the header");
  (* and the stream stays broken *)
  match Wire.next rd with
  | Wire.Broken _ -> ()
  | _ -> Alcotest.fail "broken stream resynchronised"

(* ------------------------------------------------------------------ *)
(* Batcher semantics (no sockets) *)

let test_batcher_admission_and_deadline () =
  let b = Batcher.create ~batch_max:4 ~window_ns:1_000_000 ~queue_max:3 () in
  let admit ~now ~dl i =
    Batcher.admit b ~now_ns:now ~key:i ~timeout_us:dl (Is.Access { pos = i })
  in
  Alcotest.(check bool) "admit 1" true (admit ~now:0 ~dl:0 1 = Batcher.Admitted);
  Alcotest.(check bool) "admit 2" true (admit ~now:0 ~dl:500 2 = Batcher.Admitted);
  Alcotest.(check bool) "admit 3" true (admit ~now:0 ~dl:0 3 = Batcher.Admitted);
  Alcotest.(check bool) "queue full sheds" true (admit ~now:0 ~dl:0 4 = Batcher.Overloaded);
  Alcotest.(check bool) "not due yet" false (Batcher.due b ~now_ns:1);
  (* the 500us deadline pulls the due instant below the 1ms window *)
  (match Batcher.due_at b with
  | Some d -> Alcotest.(check bool) "deadline pulls flush earlier" true (d < 1_000_000)
  | None -> Alcotest.fail "queue non-empty but no due instant");
  (* flush at t=600us: request 2 (deadline 500us) expired, others run *)
  let results =
    Batcher.flush b ~now_ns:600_000 ~exec:(fun ops -> Array.map (fun _ -> `Ran) ops)
  in
  Alcotest.(check int) "all accounted" 3 (Array.length results);
  Array.iter
    (fun (k, r) ->
      match (k, r) with
      | 2, None -> ()
      | 2, Some _ -> Alcotest.fail "expired op was executed"
      | _, Some `Ran -> ()
      | _, None -> Alcotest.fail "live op was expired")
    results;
  Alcotest.(check int) "queue drained" 0 (Batcher.pending b)

let test_batcher_batch_max_cut () =
  let b = Batcher.create ~batch_max:2 ~window_ns:1_000_000_000 ~queue_max:100 () in
  for i = 1 to 5 do
    ignore (Batcher.admit b ~now_ns:0 ~key:i ~timeout_us:0 (Is.Access { pos = i }))
  done;
  Alcotest.(check bool) "due at batch_max regardless of window" true (Batcher.due b ~now_ns:1);
  let r = Batcher.flush b ~now_ns:1 ~exec:(fun ops -> Array.map (fun _ -> ()) ops) in
  Alcotest.(check int) "cut at batch_max" 2 (Array.length r);
  Alcotest.(check int) "remainder queued" 3 (Batcher.pending b)

(* ------------------------------------------------------------------ *)
(* Live-server harness *)

let strings =
  Array.init 500 (fun i ->
      match i mod 5 with
      | 0 -> Printf.sprintf "alpha-%d" i
      | 1 -> Printf.sprintf "beta-%d" (i mod 7)
      | 2 -> "common"
      | 3 -> Printf.sprintf "alpha-%d" (i mod 3)
      | _ -> Printf.sprintf "gamma/%d/x" i)

(* What [wtrie serve FILE.txt] runs: the arena built in memory from the
   lines. *)
let with_server ?(tweak = fun c -> c) f =
  let wt = Wtrie.Static.of_array strings in
  let cfg = tweak { (Server.default_config ()) with port = 0; window_us = 100 } in
  let srv = Server.create ~config:cfg ~backend:Server.static_backend (Snapshot.create wt) in
  let d = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      Domain.join d)
    (fun () -> f srv)

let model = Oracle.model strings

(* every socket reply equals the oracle's answer (oracle.ml), including
   the error cases *)
let test_oracle_sequential () =
  with_server (fun srv ->
      Oracle.wire ~clients:1 ~ctx:"static" ~port:(Server.port srv) model
        (Oracle.Gen.ops (Xoshiro.create 21) model))

let test_oracle_concurrent_clients () =
  with_server ~tweak:(fun c -> { c with domains = Some 2 }) (fun srv ->
      Oracle.wire ~clients:3 ~ctx:"static, 2 domains" ~port:(Server.port srv) model
        (Oracle.Gen.ops (Xoshiro.create 31) model))

(* ------------------------------------------------------------------ *)
(* Defensive handling *)

let raw_connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  fd

(* read until EOF or timeout; returns collected bytes and whether the
   peer closed *)
let read_until_eof ?(timeout = 5.0) fd =
  let buf = Buffer.create 256 in
  let scratch = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  let eof = ref false in
  let continue = ref true in
  while !continue do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then continue := false
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> continue := false
      | _ -> (
          match Unix.read fd scratch 0 (Bytes.length scratch) with
          | 0 ->
              eof := true;
              continue := false
          | n -> Buffer.add_subbytes buf scratch 0 n
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              eof := true;
              continue := false)
  done;
  (Buffer.contents buf, !eof)

let write_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_garbage_and_disconnects () =
  with_server (fun srv ->
      (* absurd declared frame length: connection dies, server does not *)
      let fd = raw_connect srv in
      write_raw fd "\xFF\xFF\xFF\xFF garbage follows";
      let _, eof = read_until_eof fd in
      Alcotest.(check bool) "absurd length closes the connection" true eof;
      Unix.close fd;
      (* valid frame, undecodable payload: Bad_request reply, conn survives *)
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      let fd2 = raw_connect srv in
      write_raw fd2 "\x00\x00\x00\x03abc";
      let got, _ = read_until_eof ~timeout:2.0 fd2 in
      Alcotest.(check bool) "undecodable payload gets a reply" true (String.length got > 4);
      (match Wire.decode_reply (payload_of_frame got) with
      | Ok { Wire.status = Wire.Bad_request _; _ } -> ()
      | _ -> Alcotest.fail "expected Bad_request");
      Unix.close fd2;
      (* mid-frame disconnect: a frame header promising more than is sent *)
      let fd3 = raw_connect srv in
      write_raw fd3 "\x00\x00\x00\x40half";
      Unix.close fd3;
      (* the server is still healthy for well-behaved clients *)
      Alcotest.(check bool) "server alive after abuse" true (Client.ping c);
      Alcotest.(check int) "still serving" (Array.length strings) (Client.length c);
      Client.close c;
      let st = Server.stats srv in
      Alcotest.(check bool) "bad frames were counted" true (st.Server.bad_frames >= 2))

let test_slow_loris_reaped () =
  with_server ~tweak:(fun c -> { c with read_timeout_ms = 100 }) (fun srv ->
      let fd = raw_connect srv in
      (* a frame header, then silence: stalled mid-frame *)
      write_raw fd "\x00\x00\x00\x20";
      let _, eof = read_until_eof ~timeout:5.0 fd in
      Alcotest.(check bool) "stalled connection reaped" true eof;
      Unix.close fd;
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      Alcotest.(check bool) "server alive after reap" true (Client.ping c);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Overload and deadlines *)

let test_overload_sheds_and_recovers () =
  with_server
    ~tweak:(fun c -> { c with queue_max = 4; batch_max = 256; window_us = 20_000 })
    (fun srv ->
      let rng = Xoshiro.create 41 in
      let ops = Array.init 2_000 (fun _ -> gen_op rng) in
      let r =
        Client.run_load ~host:"127.0.0.1" ~port:(Server.port srv) ~conns:4 ~window:16
          ~ops:(Array.length ops)
          ~opgen:(fun i -> Wire.Query ops.(i))
          ()
      in
      Alcotest.(check int) "every request answered" r.Client.sent r.Client.completed;
      Alcotest.(check int) "none lost" 0 r.Client.lost;
      Alcotest.(check int) "no undecodable replies" 0 r.Client.bad;
      Alcotest.(check bool) "overload was shed, not absorbed" true (r.Client.overloaded > 0);
      (* health checks bypass the queue: Ping answers even while loaded *)
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      Alcotest.(check bool) "ping under pressure" true (Client.ping c);
      (* and correctness is intact after the storm *)
      let op = Is.Rank { s = "common"; pos = Array.length strings } in
      Alcotest.(check bool) "still correct after overload" true
        (Client.call c (Wire.Query op) = Oracle.status (Oracle.expected model [| op |]).(0));
      Client.close c)

let test_deadline_beats_window () =
  (* the batching window is 500ms; a 5ms deadline must still be honoured
     (flush pulled earlier), so the reply arrives in well under the
     window — executed or expired, but never stuck *)
  with_server
    ~tweak:(fun c -> { c with window_us = 500_000; batch_max = 1_000_000 })
    (fun srv ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let got = Client.call ~timeout_us:5_000 c (Wire.Query (Is.Access { pos = 0 })) in
      let dt = Unix.gettimeofday () -. t0 in
      (match got with
      | Wire.Ok_value _ | Wire.Deadline_exceeded -> ()
      | _ -> Alcotest.fail "unexpected status for deadlined request");
      Alcotest.(check bool)
        (Printf.sprintf "deadlined reply not held for the window (%.0f ms)" (dt *. 1e3))
        true (dt < 0.25))

let test_expired_never_executed () =
  (* The server stamps a request at admission and reads the clock again
     at the flush; a loop that gets there in under 1us would still find
     the request live.  Every clock read here steps 2us past the real
     clock, so the flush always reads a time past the deadline. *)
  let reads = Atomic.make 0 in
  Wt_obs.Probe.set_clock (fun () ->
      Wt_obs.Probe.default_clock () + (2_000 * Atomic.fetch_and_add reads 1));
  Fun.protect ~finally:(fun () -> Wt_obs.Probe.set_clock Wt_obs.Probe.default_clock)
  @@ fun () ->
  with_server
    ~tweak:(fun c -> { c with window_us = 50_000; batch_max = 1_000_000 })
    (fun srv ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* 1us deadline, 50ms window: expired before any flush *)
      let got = Client.call ~timeout_us:1 c (Wire.Query (Is.Access { pos = 0 })) in
      Alcotest.(check bool) "expired request reports Deadline_exceeded" true
        (got = Wire.Deadline_exceeded);
      let st = Server.stats srv in
      Alcotest.(check bool) "expiry counted" true (st.Server.expired >= 1))

(* ------------------------------------------------------------------ *)
(* Latency under contention and graceful drain *)

let test_contended_latency_bounded () =
  with_server (fun srv ->
      let rng = Xoshiro.create 51 in
      let opgen _ = Wire.Query (Is.Access { pos = Xoshiro.int rng (Array.length strings) }) in
      let port = Server.port srv in
      let quiet = Client.run_load ~host:"127.0.0.1" ~port ~conns:1 ~window:1 ~ops:500 ~opgen () in
      let busy = Client.run_load ~host:"127.0.0.1" ~port ~conns:4 ~window:8 ~ops:3_000 ~opgen () in
      Alcotest.(check int) "quiet: all answered" quiet.Client.sent quiet.Client.completed;
      Alcotest.(check int) "busy: all answered" busy.Client.sent busy.Client.completed;
      (* p99 of admitted work stays within 2x uncontended (with a floor
         against scheduler noise on starved CI runners) *)
      let bound = Float.max (2.0 *. quiet.Client.p99_us) 25_000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "contended p99 %.0fus within bound %.0fus" busy.Client.p99_us bound)
        true (busy.Client.p99_us <= bound))

let test_drain_answers_admitted () =
  with_server
    ~tweak:(fun c -> { c with window_us = 5_000_000 (* effectively never flush *) })
    (fun srv ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* fire a request that will sit in the queue, then stop the server:
         drain must execute and answer it rather than drop it *)
      let sent = Wire.encode_request { Wire.id = 7; timeout_us = 0; body = Wire.Query (Is.Access { pos = 3 }) } in
      let rec write_all off =
        if off < String.length sent then
          write_all (off + Unix.write_substring c.Client.fd sent off (String.length sent - off))
      in
      write_all 0;
      ignore (Unix.select [] [] [] 0.1);
      Server.request_stop srv;
      let r = Client.read_reply c in
      Alcotest.(check int) "drained reply id" 7 r.Wire.rid;
      match r.Wire.status with
      | Wire.Ok_value (Is.Str s) ->
          Alcotest.(check string) "drained reply value" strings.(3) s
      | _ -> Alcotest.fail "expected the queued query's answer at drain")

(* ------------------------------------------------------------------ *)
(* Corrupt indexes: an mmap-served arena skips the payload checksum, so
   a flipped bit reaches the engine.  The served reply to the op it
   breaks must be the in-process front door's answer ([Storage_error]),
   and the server must keep answering.  The flip is found by search:
   the first bit of the content stream whose flip opens and breaks one
   of [corrupt_ops]. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let corrupt_strings =
  Array.init 24 (fun i -> Printf.sprintf "h%d.ex/%s" (i mod 5) (String.make i 'q'))

let corrupt_input = Array.init 1100 (fun i -> corrupt_strings.(i * 7 mod 24))

let corrupt_ops =
  Array.concat
    [
      Array.init 30 (fun i -> Is.Access { pos = i * 37 });
      Array.map (fun s -> Is.Rank { s; pos = 550 }) corrupt_strings;
      Array.map (fun s -> Is.Select { s; count = 3 }) corrupt_strings;
    ]

(* Flips bits of the arena in [path] one at a time, from its content
   stream on, until [probe] returns [Some]; the file keeps that flip. *)
let find_flip path probe =
  let pristine = read_file path in
  let rec find i = if String.sub pristine i 4 = "WTF3" then i else find (i + 1) in
  let t = Wt_core.Flat_wt.open_file ~mode:`Copy path in
  let first = find 0 + (t.Wt_core.Flat_wt.content_bit / 8) in
  let last = first + ((t.Wt_core.Flat_wt.content_bits + 7) / 8) in
  Wt_core.Flat_wt.close t;
  let rec go bit =
    if bit >= 8 * last then Alcotest.fail "no flipped bit broke a query";
    let b = Bytes.of_string pristine in
    Bytes.set b (bit / 8) (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    write_file path (Bytes.to_string b);
    match probe () with Some r -> r | None -> go (bit + 1)
  in
  go (8 * first)

(* The first op [batch] answers with a [Storage_error], with that answer. *)
let broken_op batch =
  Array.find_map
    (fun op ->
      match (batch [| op |]).(0) with
      | Error (Is.Storage_error _) as answer -> Some (op, answer)
      | _ -> None)
    corrupt_ops

let check_served_corruption backend snap (op, answer) =
  Oracle.serving backend snap (fun port ->
      let c = Client.connect ~host:"127.0.0.1" ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Alcotest.(check bool) "the broken op answers as in process" true
        (Client.call c (Wire.Query op) = Oracle.status answer);
      Alcotest.(check bool) "ping after it" true (Client.ping c);
      Alcotest.(check int) "Length after it" (Array.length corrupt_input) (Client.length c))

let test_corrupt_static () =
  Oracle.with_saved (Wtrie.Static.of_array corrupt_input) @@ fun path ->
  let t, broken =
    find_flip path (fun () ->
        match Wtrie.Static.open_file ~mode:`Mmap path with
        | Error _ -> None
        | Ok t -> (
            match broken_op (Wtrie.Static.query_batch t) with
            | Some b -> Some (t, b)
            | None ->
                Wtrie.Static.close t;
                None))
  in
  check_served_corruption Server.static_backend (Snapshot.create t) broken;
  Wtrie.Static.close t

let test_corrupt_tiered () =
  let module T = Wtrie.Tiered in
  let dir = Oracle.temp_dir "serve_corrupt" in
  let t = T.create ~threshold:max_int dir in
  Array.iter (T.ingest t) corrupt_input;
  T.compact t;
  T.close t;
  let t, broken =
    find_flip (Filename.concat dir "run-000000.wtx") (fun () ->
        match T.open_ dir with
        | exception Wt_durable.Container.Format_error _ -> None
        | t, _ -> (
            match broken_op (T.query_batch t) with
            | Some b -> Some (t, b)
            | None ->
                T.close t;
                None))
  in
  check_served_corruption Server.tiered_backend (T.handle t) broken;
  T.close t;
  Oracle.rm_rf dir

(* ------------------------------------------------------------------ *)
(* The live telemetry plane: Stats/Scrape wire ops, slow-query
   exemplars, and the plain-TCP metrics listener. *)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go 0

let contains s sub = index_of s sub >= 0

(* Run [f] with probes on and a clean slate (the telemetry ops render
   probe state, so the tests need it recording). *)
let telemetered f =
  Wt_obs.Probe.reset ();
  Wt_obs.Probe.enable ();
  Fun.protect
    ~finally:(fun () ->
      Wt_obs.Probe.disable ();
      Wt_obs.Probe.reset ())
    f

let test_stats_and_scrape_ops () =
  telemetered @@ fun () ->
  with_server ~tweak:(fun c -> { c with slow_ms = Some 0 }) (fun srv ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let rng = Xoshiro.create 77 in
      for _ = 1 to 100 do
        ignore (Client.call c (Wire.Query (gen_op rng)))
      done;
      (* Stats: a JSON page with the report, server counters and the
         slow-query exemplar ring (slow_ms = 0 logs every request) *)
      (match Wt_obs.Json.of_string (Client.stats_json c) with
      | Error e -> Alcotest.failf "stats reply is not JSON: %s" e
      | Ok j ->
          let member k = Wt_obs.Json.member k j in
          (match Option.bind (member "server") (Wt_obs.Json.member "requests") with
          | Some (Wt_obs.Json.Int n) ->
              Alcotest.(check bool) "requests counted" true (n >= 100)
          | _ -> Alcotest.fail "stats: server.requests missing");
          (match Option.bind (member "server") (Wt_obs.Json.member "slow") with
          | Some (Wt_obs.Json.Int n) ->
              Alcotest.(check bool) "slow counted at threshold 0" true (n >= 100)
          | _ -> Alcotest.fail "stats: server.slow missing");
          (match member "slow_queries" with
          | Some (Wt_obs.Json.List (x :: _)) ->
              (* each exemplar carries the wait/exec split and a kind *)
              List.iter
                (fun k ->
                  if Wt_obs.Json.member k x = None then
                    Alcotest.failf "exemplar missing field %s" k)
                [ "t_ns"; "kind"; "rid"; "wait_ns"; "exec_ns"; "span" ]
          | _ -> Alcotest.fail "stats: slow_queries empty");
          if member "report" = None then Alcotest.fail "stats: report missing");
      (* Scrape: exposition text with live serve series and exemplars *)
      let page = Client.scrape c in
      Alcotest.(check bool) "serve_request series" true
        (contains page "wtrie_serve_request_total");
      Alcotest.(check bool) "queue-wait histogram" true
        (contains page "wtrie_serve_queue_wait_ns_count");
      Alcotest.(check bool) "open-conns gauge" true
        (contains page "wtrie_serve_open_conns");
      Alcotest.(check bool) "exemplar comment lines" true
        (contains page "# EXEMPLAR wtrie_serve_slow_query");
      let st = Server.stats srv in
      Alcotest.(check bool) "server slow stat" true (st.Server.slow >= 100))

(* Above the threshold nothing is logged: the slow path costs nothing
   for fast queries. *)
let test_slow_threshold_filters () =
  telemetered @@ fun () ->
  with_server ~tweak:(fun c -> { c with slow_ms = Some 10_000 }) (fun srv ->
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      for i = 0 to 49 do
        ignore (Client.call c (Wire.Query (Is.Access { pos = i })))
      done;
      let st = Server.stats srv in
      Alcotest.(check int) "nothing slower than 10s" 0 st.Server.slow;
      Alcotest.(check bool) "no exemplars on the page" false
        (contains (Client.scrape c) "# EXEMPLAR"))

(* A static (format-v3 arena) server exports the arena's space split as
   gauges, and the three parts add up to the whole arena. *)
let test_static_space_gauges () =
  telemetered @@ fun () ->
  let wt = Wtrie.Static.of_array strings in
  let cfg = { (Server.default_config ()) with port = 0; window_us = 100 } in
  let srv = Server.create ~config:cfg ~backend:Server.static_backend (Snapshot.create wt) in
  let d = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      Domain.join d)
  @@ fun () ->
  let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let page = Client.scrape c in
  let gauge name =
    let key = "wtrie_" ^ name ^ " " in
    match
      List.find_opt
        (fun l -> String.length l > String.length key && String.sub l 0 (String.length key) = key)
        (String.split_on_char '\n' page)
    with
    | Some l ->
        float_of_string (String.sub l (String.length key) (String.length l - String.length key))
    | None -> Alcotest.failf "gauge %s missing from the scrape" name
  in
  let labels = gauge "static_label_bits"
  and bv = gauge "static_bv_bits"
  and dir = gauge "static_directory_bits" in
  Alcotest.(check bool) "every part is non-empty" true (labels > 0. && bv > 0. && dir > 0.);
  Alcotest.(check (float 0.5)) "parts sum to the arena"
    (float_of_int (Wt_core.Flat_wt.space_bits wt))
    (labels +. bv +. dir)

let test_metrics_listener () =
  telemetered @@ fun () ->
  with_server ~tweak:(fun c -> { c with metrics_port = Some 0; slow_ms = Some 0 })
    (fun srv ->
      let mport =
        match Server.metrics_port srv with
        | Some p -> p
        | None -> Alcotest.fail "metrics listener not bound"
      in
      (* drive some traffic so the scraped counters are nonzero *)
      let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port srv) () in
      for i = 0 to 19 do
        ignore (Client.call c (Wire.Query (Is.Access { pos = i })))
      done;
      (* a plain HTTP/1.0 client: one request, one response, EOF *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, mport));
      write_raw fd "GET /metrics HTTP/1.0\r\n\r\n";
      let got, eof = read_until_eof fd in
      Unix.close fd;
      Alcotest.(check bool) "server closes after the response" true eof;
      Alcotest.(check bool) "HTTP 200" true
        (String.length got > 15 && String.sub got 0 15 = "HTTP/1.0 200 OK");
      (match index_of got "Content-Length: " with
      | -1 -> Alcotest.fail "no Content-Length"
      | _ -> ());
      let body =
        match index_of got "\r\n\r\n" with
        | -1 -> Alcotest.fail "no header/body separator"
        | i -> String.sub got (i + 4) (String.length got - i - 4)
      in
      Alcotest.(check bool) "exposition body" true
        (contains body "wtrie_serve_request_total");
      Alcotest.(check bool) "exemplars ride the page" true
        (contains body "# EXEMPLAR wtrie_serve_slow_query");
      (* the query plane is unaffected by scrapes *)
      Alcotest.(check bool) "still serving" true (Client.ping c);
      Client.close c)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "corrupted payloads are rejected, never raise" `Quick
            test_decode_corrupted_total;
          Alcotest.test_case "reader reassembles chunked streams" `Quick test_reader_chunked;
          Alcotest.test_case "reader rejects absurd lengths before allocating" `Quick
            test_reader_rejects_absurd_length;
        ]
        @ qsuite [ decode_total; reader_garbage_total ] );
      ( "batcher",
        [
          Alcotest.test_case "admission control and deadlines" `Quick
            test_batcher_admission_and_deadline;
          Alcotest.test_case "batch_max cuts" `Quick test_batcher_batch_max_cut;
        ] );
      ( "server",
        [
          Alcotest.test_case "oracle: socket = engine" `Quick test_oracle_sequential;
          Alcotest.test_case "oracle under concurrent clients" `Quick
            test_oracle_concurrent_clients;
          Alcotest.test_case "garbage frames and disconnects" `Quick test_garbage_and_disconnects;
          Alcotest.test_case "slow-loris reaped" `Quick test_slow_loris_reaped;
          Alcotest.test_case "overload sheds and recovers" `Quick test_overload_sheds_and_recovers;
          Alcotest.test_case "deadline beats the window" `Quick test_deadline_beats_window;
          Alcotest.test_case "expired requests are not executed" `Quick
            test_expired_never_executed;
          Alcotest.test_case "contended p99 bounded" `Quick test_contended_latency_bounded;
          Alcotest.test_case "drain answers admitted work" `Quick test_drain_answers_admitted;
          Alcotest.test_case "corrupt mmap arena answers per op" `Quick test_corrupt_static;
          Alcotest.test_case "corrupt tiered run answers per op" `Quick test_corrupt_tiered;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats and scrape wire ops" `Quick test_stats_and_scrape_ops;
          Alcotest.test_case "slow threshold filters" `Quick test_slow_threshold_filters;
          Alcotest.test_case "plain-TCP metrics listener" `Quick test_metrics_listener;
          Alcotest.test_case "static arena space gauges" `Quick test_static_space_gauges;
        ] );
    ]
