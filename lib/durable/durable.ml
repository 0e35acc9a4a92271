(* Crash-safe durable store: a checksummed snapshot plus a write-ahead
   log, for the two mutable Wavelet Trie variants.

   A store is a directory:

     <dir>/snapshot.wtx   format-v2 container (tag "durable-append" or
                          "durable-dynamic") holding the Marshal of
                          [(generation, trie)]
     <dir>/wal.log        WAL for that generation (see {!Wt_durable.Wal})

   Invariant: the trie state equals the snapshot of generation [g] with
   the verified prefix of a generation-[g] WAL replayed on top.  The
   two crash windows are closed by ordering and by the generation tag:

   - snapshot writes are atomic (temp + fsync + rename), so a crash
     mid-checkpoint leaves the old snapshot and the old WAL — nothing
     lost;
   - the WAL is reset (atomically) only *after* the new snapshot is
     durable; a crash between the two leaves a WAL whose generation is
     older than the snapshot's, which {!open_} recognizes as already
     absorbed and discards instead of replaying twice.

   A torn WAL tail (crash mid-append) is truncated to the last
   checksum-valid record on open; every complete record before it is
   replayed.  Recovery work is reported through the {!Wt_obs} probes
   ([durable_wal_replay], [durable_wal_dropped_bytes], ...). *)

module Fault = Wt_durable.Fault
module Container = Wt_durable.Container
module Wal = Wt_durable.Wal
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace
module Flight = Wt_obs.Flight
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
module Binarize = Wt_strings.Binarize

exception Format_error = Container.Format_error

(* Arm the flight recorder's crash marker: when fault injection tears a
   write, the dump taken at exit shows the [crash] event after the WAL
   appends and checkpoints that led up to it. *)
let () = Fault.set_crash_hook (fun msg -> Flight.record ~note:msg Crash)

let fail fmt = Printf.ksprintf (fun m -> raise (Format_error m)) fmt

type variant = [ `Append | `Dynamic ]
type trie = A of Append_wt.t | D of Dynamic_wt.t

type t = {
  dir : string;
  variant : variant;
  trie : trie;
  mutable generation : int;
  mutable wal_oc : out_channel option;  (* None = read-only or closed *)
  mutable wal_bytes : int;
  checkpoint_bytes : int;
}

type recovery = {
  snapshot_generation : int;
  replayed : int;
  dropped_bytes : int;
  wal_reset : bool;
  checkpointed : bool;
}

let default_checkpoint_bytes = 1 lsl 20

let snapshot_path dir = Filename.concat dir "snapshot.wtx"
let wal_path dir = Filename.concat dir "wal.log"

let tag_of_variant = function
  | `Append -> "durable-append"
  | `Dynamic -> "durable-dynamic"

let variant_of_tag = function
  | "durable-append" -> Some `Append
  | "durable-dynamic" -> Some `Dynamic
  | _ -> None

let variant_name = function `Append -> "append" | `Dynamic -> "dynamic"

let is_store dir =
  Sys.file_exists dir && Sys.is_directory dir
  && Sys.file_exists (snapshot_path dir)

(* ------------------------------------------------------------------ *)
(* Trie plumbing *)

let empty_trie = function `Append -> A (Append_wt.create ()) | `Dynamic -> D (Dynamic_wt.create ())
let trie_length = function A wt -> Append_wt.length wt | D wt -> Dynamic_wt.length wt

let check_trie = function
  | A wt -> Append_wt.check_invariants wt
  | D wt -> Dynamic_wt.check_invariants wt

let apply_op trie op =
  let bounds what pos len ok =
    if not ok then fail "WAL %s record position %d out of bounds (length %d)" what pos len
  in
  match (trie, op) with
  | A wt, Wal.Append s -> Append_wt.append wt (Binarize.of_bytes s)
  | D wt, Wal.Append s -> Dynamic_wt.append wt (Binarize.of_bytes s)
  | D wt, Wal.Insert (pos, s) ->
      let len = Dynamic_wt.length wt in
      bounds "insert" pos len (pos >= 0 && pos <= len);
      Dynamic_wt.insert wt pos (Binarize.of_bytes s)
  | D wt, Wal.Delete pos ->
      let len = Dynamic_wt.length wt in
      bounds "delete" pos len (pos >= 0 && pos < len);
      Dynamic_wt.delete wt pos
  | A _, (Wal.Insert _ | Wal.Delete _) ->
      fail "append-only store contains an insert/delete WAL record"

(* ------------------------------------------------------------------ *)
(* Snapshot I/O *)

let write_snapshot dir variant generation trie =
  Trace.with_span ~args:[ ("generation", generation) ] "durable.save" @@ fun () ->
  let payload =
    match trie with
    | A wt -> Marshal.to_string (generation, wt) []
    | D wt -> Marshal.to_string (generation, wt) []
  in
  Container.write ~tag:(tag_of_variant variant) ~payload (snapshot_path dir);
  Probe.hit Durable_snapshot_save;
  Flight.record ~a:generation Snapshot_save

let load_snapshot dir =
  let tag, payload = Container.read_tagged (snapshot_path dir) in
  let variant =
    match variant_of_tag tag with
    | Some v -> v
    | None -> fail "not a durable store snapshot (tag %S)" tag
  in
  let decode : type a. unit -> int * a =
   fun () ->
    match (Marshal.from_string payload 0 : int * a) with
    | v -> v
    | exception (Failure _ | Invalid_argument _ | End_of_file) ->
        fail "corrupted snapshot payload (marshal decode failed)"
  in
  let generation, trie =
    match variant with
    | `Append ->
        let g, (wt : Append_wt.t) = decode () in
        (g, A wt)
    | `Dynamic ->
        let g, (wt : Dynamic_wt.t) = decode () in
        (g, D wt)
  in
  if generation < 0 then fail "corrupted snapshot (negative generation)";
  Probe.hit Durable_snapshot_load;
  Flight.record ~a:generation Snapshot_load;
  (variant, generation, trie)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let reopen_wal t =
  let oc = Wal.open_append (wal_path t.dir) in
  t.wal_oc <- Some oc

let create ?(checkpoint_bytes = default_checkpoint_bytes) ~variant dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Durable.create: %s exists and is not a directory" dir);
  if Sys.file_exists (snapshot_path dir) then
    invalid_arg (Printf.sprintf "Durable.create: %s already holds a store" dir);
  let trie = empty_trie variant in
  let tag = tag_of_variant variant in
  write_snapshot dir variant 0 trie;
  Wal.create ~tag ~generation:0 (wal_path dir);
  let t =
    {
      dir;
      variant;
      trie;
      generation = 0;
      wal_oc = None;
      wal_bytes = Wal.header_size ~tag;
      checkpoint_bytes;
    }
  in
  reopen_wal t;
  t

(* Shared by {!open_} (read-write: truncates torn tails, reopens the
   log) and {!verify} (read-only: touches nothing on disk). *)
let open_internal ~read_only ~verify ?(checkpoint_bytes = default_checkpoint_bytes) dir =
  if not (is_store dir) then fail "%s is not a durable store directory" dir;
  if not read_only then Container.cleanup_tmp dir;
  let variant, generation, trie = load_snapshot dir in
  let tag = tag_of_variant variant in
  let scan = Wal.scan (wal_path dir) in
  let wal_reset =
    (not scan.s_header_ok)
    || scan.s_tag <> tag
    || scan.s_generation <> generation
  in
  if scan.s_header_ok && scan.s_generation > generation then
    fail "WAL generation %d is ahead of snapshot generation %d" scan.s_generation
      generation;
  let replayed, dropped_bytes =
    if not scan.s_header_ok then (0, scan.s_dropped_bytes)
      (* torn header: nothing in the file is attributable *)
    else if wal_reset then (0, 0)
      (* stale generation: its records are already in the snapshot *)
    else begin
      Trace.with_span ~args:[ ("records", scan.s_records) ] "durable.replay"
        (fun () ->
          List.iter
            (fun op ->
              match apply_op trie op with
              | () -> ()
              | exception (Failure _ | Invalid_argument _) ->
                  fail "WAL record could not be replayed on the recovered trie")
            scan.s_ops);
      (scan.s_records, scan.s_dropped_bytes)
    end
  in
  if replayed > 0 then Flight.record ~a:replayed Wal_replay;
  Probe.record Durable_wal_replay replayed;
  Probe.record Durable_wal_dropped_bytes (max 0 dropped_bytes);
  if verify then begin
    match check_trie trie with
    | () -> ()
    | exception Failure m -> fail "recovered index fails invariants: %s" m
  end;
  let t =
    {
      dir;
      variant;
      trie;
      generation;
      wal_oc = None;
      wal_bytes = (if wal_reset then Wal.header_size ~tag else scan.s_good_bytes);
      checkpoint_bytes;
    }
  in
  if not read_only then begin
    if wal_reset then Wal.create ~tag ~generation (wal_path dir)
    else if scan.s_dropped_bytes > 0 then
      Wal.truncate_to (wal_path dir) scan.s_good_bytes;
    reopen_wal t
  end;
  let recovery =
    {
      snapshot_generation = generation;
      replayed;
      dropped_bytes = max 0 dropped_bytes;
      wal_reset;
      checkpointed = false;
    }
  in
  (t, recovery)

let open_ ?checkpoint_bytes ?(verify = true) dir =
  open_internal ~read_only:false ~verify ?checkpoint_bytes dir

let open_read_only ?(verify = true) dir =
  open_internal ~read_only:true ~verify dir

let close t =
  match t.wal_oc with
  | None -> ()
  | Some oc ->
      t.wal_oc <- None;
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          flush oc;
          Fault.fsync (Unix.descr_of_out_channel oc))

(* ------------------------------------------------------------------ *)
(* Mutation through the log *)

let writable t =
  match t.wal_oc with
  | Some oc -> oc
  | None -> invalid_arg "Durable: store is read-only or closed"

let checkpoint t =
  ignore (writable t : out_channel);
  Trace.with_span ~args:[ ("generation", t.generation + 1) ] "durable.checkpoint"
  @@ fun () ->
  let generation' = t.generation + 1 in
  (* 1. the new snapshot becomes durable under the new generation... *)
  write_snapshot t.dir t.variant generation' t.trie;
  (* 2. ...and only then is the log reset to that generation.  A crash
     between the two leaves a stale-generation WAL that open_ discards. *)
  (match t.wal_oc with
  | Some oc ->
      t.wal_oc <- None;
      (try close_out oc with Sys_error _ -> ())
  | None -> ());
  let tag = tag_of_variant t.variant in
  Wal.create ~tag ~generation:generation' (wal_path t.dir);
  t.generation <- generation';
  t.wal_bytes <- Wal.header_size ~tag;
  reopen_wal t;
  Probe.hit Durable_checkpoint;
  Flight.record ~a:generation' Checkpoint

let maybe_checkpoint t = if t.wal_bytes >= t.checkpoint_bytes then checkpoint t

let log_op t op =
  let oc = writable t in
  let n = Wal.append_op oc op in
  t.wal_bytes <- t.wal_bytes + n;
  Probe.hit Durable_wal_append;
  Flight.record ~a:n Wal_append

let append t s =
  log_op t (Wal.Append s);
  (match t.trie with
  | A wt -> Append_wt.append wt (Binarize.of_bytes s)
  | D wt -> Dynamic_wt.append wt (Binarize.of_bytes s));
  maybe_checkpoint t

let insert t pos s =
  (match t.trie with
  | A _ -> invalid_arg "Durable.insert: append-only store"
  | D wt ->
      let len = Dynamic_wt.length wt in
      if pos < 0 || pos > len then
        invalid_arg (Printf.sprintf "Durable.insert: position %d out of bounds" pos);
      log_op t (Wal.Insert (pos, s));
      Dynamic_wt.insert wt pos (Binarize.of_bytes s));
  maybe_checkpoint t

let delete t pos =
  (match t.trie with
  | A _ -> invalid_arg "Durable.delete: append-only store"
  | D wt ->
      let len = Dynamic_wt.length wt in
      if pos < 0 || pos >= len then
        invalid_arg (Printf.sprintf "Durable.delete: position %d out of bounds" pos);
      log_op t (Wal.Delete pos);
      Dynamic_wt.delete wt pos);
  maybe_checkpoint t

(* ------------------------------------------------------------------ *)
(* Accessors *)

let dir t = t.dir
let variant t = t.variant
let generation t = t.generation
let wal_bytes t = t.wal_bytes
let length t = trie_length t.trie

let access t pos =
  match t.trie with
  | A wt -> Binarize.to_bytes (Append_wt.access wt pos)
  | D wt -> Binarize.to_bytes (Dynamic_wt.access wt pos)

let append_trie t = match t.trie with A wt -> Some wt | D _ -> None
let dynamic_trie t = match t.trie with D wt -> Some wt | A _ -> None

let stats t =
  match t.trie with A wt -> Append_wt.stats wt | D wt -> Dynamic_wt.stats wt

let distinct_count t =
  match t.trie with
  | A wt -> Append_wt.distinct_count wt
  | D wt -> Dynamic_wt.distinct_count wt

let check t =
  match check_trie t.trie with
  | () -> ()
  | exception Failure m -> fail "store fails invariants: %s" m

(* ------------------------------------------------------------------ *)
(* Verify / recover *)

type verify_report = {
  v_variant : variant;
  v_generation : int;
  v_length : int;
  v_distinct : int;
  v_wal_records : int;
  v_dropped_bytes : int;
  v_wal_reset : bool;
  v_clean : bool;
}

let verify dir =
  let t, r = open_read_only ~verify:true dir in
  {
    v_variant = t.variant;
    v_generation = t.generation;
    v_length = length t;
    v_distinct = distinct_count t;
    v_wal_records = r.replayed;
    v_dropped_bytes = r.dropped_bytes;
    v_wal_reset = r.wal_reset;
    v_clean = r.dropped_bytes = 0 && not r.wal_reset;
  }

let recover ?checkpoint_bytes dir =
  let t, r = open_ ?checkpoint_bytes ~verify:true dir in
  checkpoint t;
  close t;
  { r with checkpointed = true }
