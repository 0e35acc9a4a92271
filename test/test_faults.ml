(* Fault-injection harness for the durability layer (the crash-safety
   contract of the tiered store and format v2):

   - bit-flip and truncation sweeps over a snapshot container: every
     corrupted byte must surface as [Format_error], never a crash and
     never a silently-wrong load;
   - truncation and bit-flip sweeps over the WAL at every byte offset:
     recovery must yield exactly the records fully contained in the
     intact prefix, then the store must keep working;
   - injected crashes (byte-budget) during live ingests and inside the
     compaction commit: every acknowledged string must survive
     recovery, none may be duplicated;
   - bit-flip and truncation sweeps over the manifest and run files;
   - recover -> verify must round-trip any injected fault to a clean
     store. *)

module Fault = Wt_durable.Fault
module Wal = Wt_durable.Wal
module Persist = Wt_core.Persist
module Append_wt = Wt_core.Append_wt
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Filesystem helpers *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("wt_faults_" ^ name)

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_dir name =
  let d = tmp name in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

let copy_dir src dst =
  rm_rf dst;
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let flip_bit s off bit =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
  Bytes.to_string b

module Tiered = Wtrie.Tiered

let tiered_contents dir =
  let t, _ = Tiered.open_read_only ~verify:true dir in
  Fun.protect
    ~finally:(fun () -> Tiered.close t)
    (fun () ->
      List.init (Tiered.length t) (fun pos -> Result.get_ok (Tiered.access t ~pos)))

(* ------------------------------------------------------------------ *)
(* Snapshot container sweeps *)

let sample n =
  let rng = Xoshiro.create 11 in
  Array.init n (fun i ->
      Binarize.of_bytes
        (Printf.sprintf "s%03d-%c" i (Char.chr (Char.code 'a' + Xoshiro.int rng 26))))

let expect_format_error what load =
  match load () with
  | exception Persist.Format_error _ -> ()
  | exception e ->
      Alcotest.fail (Printf.sprintf "%s: unexpected exception %s" what (Printexc.to_string e))
  | _ -> Alcotest.fail (Printf.sprintf "%s: load succeeded on a corrupted index" what)

(* Flip one bit at (a stride over) every byte offset of a copy of the
   legacy append-only index: the load must always raise
   [Format_error]. *)
let test_snapshot_bit_flips () =
  Oracle.with_legacy "append" @@ fun path ->
  let pristine = read_file path in
  let len = String.length pristine in
  let stride = max 1 (len / 509) in
  let off = ref 0 in
  while !off < len do
    write_file path (flip_bit pristine !off (!off mod 8));
    expect_format_error
      (Printf.sprintf "bit flip at offset %d/%d" !off len)
      (fun () -> ignore (Persist.load_append path : Append_wt.t));
    off := !off + stride
  done;
  (* the pristine bytes still load *)
  write_file path pristine;
  Append_wt.check_invariants (Persist.load_append path)

(* Cut the file at (a stride over) every possible length: always
   [Format_error], even when the cut lands on the recycled file's old
   content (the footer's repeated payload length closes that hole). *)
let test_snapshot_truncations () =
  Oracle.with_legacy "append" @@ fun path ->
  let pristine = read_file path in
  let len = String.length pristine in
  let stride = max 1 (len / 509) in
  let cut = ref 0 in
  while !cut < len do
    write_file path (String.sub pristine 0 !cut);
    expect_format_error
      (Printf.sprintf "truncated to %d/%d bytes" !cut len)
      (fun () -> ignore (Persist.load_append path : Append_wt.t));
    cut := !cut + stride
  done;
  write_file path pristine;
  ignore (Persist.load_append path : Append_wt.t)

(* ------------------------------------------------------------------ *)
(* Format-v3 arena sweeps: the flat static index must fail closed under
   the same sweeps as the v2 snapshot.  [`Copy] re-verifies the payload
   CRC, so every corrupted byte must surface as a [Storage_error]
   result; the mmap fast path skips the payload CRC but must still
   reject anything whose structural validation trips — and must never
   crash, whichever bytes it maps. *)

(* 1,200 strings over the 64 of [sample], the first eight of them
   three times as frequent as the rest: the arena is a version-9
   byte-string arena, so its labels are stored without their marker
   bits and with their whole bytes coded, and holds β blobs in both
   codes — class-range RRR ones,
   the root's spanning two superblocks, so the sweeps also cover a
   blob's superblock directory, and plain ones — and its node
   directory's records and bodies (127 nodes, four blocks). *)
let v3_length = 1200

let save_v3 path =
  let distinct = Array.map Binarize.to_bytes (sample 64) in
  let wt =
    Wtrie.Static.of_array
      (Array.init v3_length (fun i -> distinct.(if i mod 4 = 0 then i * 7 mod 64 else i mod 8)))
  in
  check_int "arena version" Wt_core.Flat_wt.arena_version (Wt_core.Flat_wt.version wt);
  check_bool "packed leaf labels" true
    (wt.Wt_core.Flat_wt.code <> None
    && Wt_core.Flat_wt.label_bits wt < Wt_core.Flat_wt.logical_label_bits wt);
  check_bool "β blobs in both codes" true
    (List.for_all
       (fun (c : Wt_core.Flat_wt.code_stats) -> c.blobs > 0)
       (Wt_core.Flat_wt.beta_codes wt));
  let root = Wt_core.Flat_wt.Node.bv_of (Option.get (Wt_core.Flat_wt.Node.root wt)) in
  check_bool "the root's β is class-range RRR" true
    (Wt_bitvector.Rrr.code root = Rrr);
  Wtrie.Static.save_file_exn wt path;
  wt

let expect_storage_error what r =
  match r with
  | Error (Wtrie.Storage_error _) -> ()
  | Error e ->
      Alcotest.fail
        (Format.asprintf "%s: unexpected error %a" what Wtrie.pp_error e)
  | Ok _ -> Alcotest.fail (Printf.sprintf "%s: load succeeded on a corrupted index" what)

let test_v3_bit_flips () =
  let path = tmp "flip_v3.wtx" in
  let wt = save_v3 path in
  let golden = Result.get_ok (Wtrie.Static.access wt ~pos:0) in
  let pristine = read_file path in
  let len = String.length pristine in
  let stride = max 1 (len / 509) in
  let off = ref 0 in
  while !off < len do
    write_file path (flip_bit pristine !off (!off mod 8));
    expect_storage_error
      (Printf.sprintf "v3 bit flip at offset %d/%d (copy)" !off len)
      (Wtrie.Static.open_file ~mode:`Copy path);
    (* mmap open skips the payload checksum: a flip may open, but then
       every query must either answer or error — never crash. *)
    (match Wtrie.Static.open_file ~mode:`Mmap path with
    | Error _ -> ()
    | Ok t ->
        let n = Wtrie.Static.length t in
        let pos = ref 0 in
        while !pos < n do
          (match Wtrie.Static.access t ~pos:!pos with Ok _ | Error _ -> ());
          pos := !pos + 1 + (n / 97)
        done;
        ignore (Wtrie.Static.rank t "s000-a" ~pos:3 : (int, Wtrie.error) result);
        Wtrie.Static.close t);
    off := !off + stride
  done;
  write_file path pristine;
  let reopened = Wtrie.Static.open_file_exn ~mode:`Copy path in
  Alcotest.(check string)
    "pristine v3 still loads" golden
    (Result.get_ok (Wtrie.Static.access reopened ~pos:0));
  Sys.remove path

let test_v3_truncations () =
  let path = tmp "cut_v3.wtx" in
  ignore (save_v3 path : Wtrie.Static.t);
  let pristine = read_file path in
  let len = String.length pristine in
  let stride = max 1 (len / 509) in
  let cut = ref 0 in
  while !cut < len do
    write_file path (String.sub pristine 0 !cut);
    expect_storage_error
      (Printf.sprintf "v3 truncated to %d/%d bytes (copy)" !cut len)
      (Wtrie.Static.open_file ~mode:`Copy path);
    expect_storage_error
      (Printf.sprintf "v3 truncated to %d/%d bytes (mmap)" !cut len)
      (Wtrie.Static.open_file ~mode:`Mmap path);
    cut := !cut + stride
  done;
  write_file path pristine;
  let t = Wtrie.Static.open_file_exn path in
  check_int "pristine v3 length" v3_length (Wtrie.Static.length t);
  Wtrie.Static.close t;
  Sys.remove path

let contains m sub =
  let rec has i =
    i + String.length sub <= String.length m
    && (String.sub m i (String.length sub) = sub || has (i + 1))
  in
  has 0

(* A corrupt arena behind a valid checksum: the deep check fails with a
   message holding [sub], [wtrie verify] and [wtrie verify --json] exit
   2, every access answers or reports a [Storage_error], and [strings]
   ranked, selected and prefix-ranked, and the range queries, return
   without a crash. *)
let expect_corrupt ~what ~sub ~strings path corrupt =
  let module F = Wt_core.Flat_wt in
  (match F.check_invariants (F.of_membuf (Wt_bits.Membuf.of_string corrupt)) with
  | () -> Alcotest.failf "the deep check passed %s" what
  | exception Failure m ->
      check_bool (Printf.sprintf "%s: names %s: %s" what sub m) true (contains m sub));
  Wt_durable.Container.write_v3 ~tag:F.tag ~payload:corrupt path;
  let exe =
    List.find Sys.file_exists [ "../bin/wtrie_cli.exe"; "_build/default/bin/wtrie_cli.exe" ]
  in
  let verify json =
    Sys.command
      (Printf.sprintf "%s verify %s%s >/dev/null 2>&1" (Filename.quote exe) (Filename.quote path)
         (if json then " --json" else ""))
  in
  check_int (what ^ ": verify exits 2") 2 (verify false);
  check_int (what ^ ": verify --json exits 2") 2 (verify true);
  List.iter
    (fun mode ->
      match Wtrie.Static.open_file ~mode path with
      | Error _ -> ()
      | Ok t ->
          let n = Wtrie.Static.length t in
          for pos = 0 to n - 1 do
            match Wtrie.Static.access t ~pos with
            | Ok _ | Error (Wtrie.Storage_error _) -> ()
            | Error e -> Alcotest.failf "%s: access %d: %a" what pos Wtrie.pp_error e
          done;
          (* a corrupt arena may answer that a string is absent *)
          Array.iter
            (fun s ->
              ignore (Wtrie.Static.rank t s ~pos:n);
              ignore (Wtrie.Static.select t s ~count:0);
              let prefix = String.sub s 0 (String.length s / 2) in
              ignore (Wtrie.Static.rank_prefix t ~prefix ~pos:n))
            strings;
          ignore (Wtrie.Static.range_distinct t);
          ignore (Wtrie.Static.range_topk t ~k:3);
          Wtrie.Static.close t)
    [ `Copy; `Mmap ];
  Sys.remove path

(* Node [i] of an arena, reached from the root. *)
let node_at (t : Wt_core.Flat_wt.t) i =
  let module N = Wt_core.Flat_wt.Node in
  let rec find node =
    if node.N.idx = i then Some node
    else if N.is_leaf node then None
    else match find (N.child node false) with Some _ as r -> r | None -> find (N.child node true)
  in
  Option.get (find (Option.get (N.root t)))

(* The arena [t] with the boundary after node [i] moved by [delta]
   bits, into or out of node [i + 1], and the directory written again
   over the moved offset (the header, directory and content laid out as
   [Flat_wt.finish] lays them out). *)
let moved_boundary (t : Wt_core.Flat_wt.t) i delta =
  let module F = Wt_core.Flat_wt in
  let module D = Wt_succinct.Flat_directory in
  let module Bitbuf = Wt_bits.Bitbuf in
  let d = match t.F.dir with F.V4 d -> d | F.V3 _ -> Alcotest.fail "not a version-4 directory" in
  let nc = t.F.node_count in
  let offs = Array.init (nc + 1) (D.get d) in
  offs.(i + 1) <- offs.(i + 1) + delta;
  let internal = Bitbuf.create () in
  for j = 0 to nc - 1 do
    Bitbuf.add internal (F.irank t j >= 0)
  done;
  let dir = Bitbuf.create () in
  D.append dir ~internal ~universe:t.F.content_bits offs;
  let arena = Wt_bits.Membuf.to_string t.F.mb in
  let content = String.sub arena (t.F.content_bit / 8) ((t.F.content_bits + 7) / 8) in
  let dir_bytes =
    let b = Buffer.create 256 in
    Bitbuf.add_to_buffer b dir;
    Buffer.contents b
  in
  let header = Bytes.of_string (String.sub arena 0 t.F.header) in
  let len = t.F.header + String.length dir_bytes + String.length content in
  Bytes.set_int64_le header 32 (Int64.of_int (Bitbuf.length dir));
  Bytes.set_int64_le header 48 (Int64.of_int len);
  Bytes.to_string header ^ dir_bytes ^ content

(* A leaf extent one bit too long: the boundary after a leaf moves one
   bit later, into its sibling leaf.  Each leaf's stored length then
   ends no encoded string at its depth.  The deep check names it, the
   payload's checksum being valid, [wtrie verify] exits 2, and every
   query answers or reports a [Storage_error] — never a crash. *)
let test_v3_leaf_extent () =
  let module F = Wt_core.Flat_wt in
  let path = tmp "leaf_extent.wtx" in
  let t = save_v3 path in
  let leaf i = F.irank t i < 0 && F.Node.stored_label_length (node_at t i) > 0 in
  (* two sibling leaves with stored bits, children 2r + 1 and 2r + 2 *)
  let rec pick i = if leaf i && leaf (i + 1) then i else pick (i + 2) in
  expect_corrupt ~what:"a corrupt leaf extent" ~sub:"ends no encoded string"
    ~strings:(Array.map Binarize.to_bytes (sample 64))
    path
    (moved_boundary t (pick 1) 1)

(* The byte codes.  An arena of 300 strings over the five bytes a..e:
   |B| = 5, and its header holds a byte of code lengths for each, in
   byte order from offset 96, the leaf code's in its low 4 bits and the
   internal code's in its high 4.  With B's bit of a moved to z (the
   lengths go to b..e and z), and with the leaf code's last codeword
   one bit longer (the bits after it may then start no codeword), the
   deep check names a node, [wtrie verify] exits 2 and every query
   answers or reports a [Storage_error].  The header checks come first,
   and fail the open: B's bit of a cleared (the lengths then end a byte
   early), leaf lengths past the Kraft inequality, a byte-string arena
   with an empty B, and a bitstring arena with one. *)
let code_strings =
  let rng = Xoshiro.create 23 in
  Array.init 40 (fun _ ->
      String.init (3 + Xoshiro.int rng 10) (fun _ -> "abcde".[Xoshiro.int rng 5]))

let code_arena () =
  let module F = Wt_core.Flat_wt in
  let t = Wtrie.Static.of_array (Array.init 300 (fun i -> code_strings.(i * 7 mod 40))) in
  let l = F.layout t in
  check_int "|B|" 5 l.byte_set_size;
  check_int "a header byte per byte of B" (F.header_len + 5) t.F.header;
  t

(* The byte of B at rank [r] whose code, leaf or internal, has the
   longest codeword, the last in canonical order. *)
let last_codeword code =
  let module Binarize = Wt_strings.Binarize in
  let bytes = List.filter (fun b -> Binarize.code_length code b > 0) (List.init 256 Fun.id) in
  List.fold_left
    (fun best b -> if Binarize.code_length code b >= Binarize.code_length code best then b else best)
    (List.hd bytes) bytes

(* Header byte of code lengths of byte [b] of "abcde". *)
let length_byte b = 96 + (b - 0x61)

let set_byte s off v =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr v);
  Bytes.to_string b

let test_leaf_codes () =
  let module F = Wt_core.Flat_wt in
  let t = code_arena () in
  let arena = Wt_bits.Membuf.to_string t.F.mb in
  (* B's bit for 'a' (0x61) lives in header byte 64 + 12, bit 1, and
     for 'z' (0x7a) in byte 64 + 15, bit 2 *)
  let cleared = flip_bit arena (64 + (0x61 lsr 3)) (0x61 land 7) in
  expect_corrupt ~what:"a B bit moved" ~sub:"node " ~strings:code_strings (tmp "b_moved.wtx")
    (flip_bit cleared (64 + (0x7a lsr 3)) (0x7a land 7));
  let last = last_codeword (Option.get t.F.code) in
  let v = Char.code arena.[length_byte last] in
  expect_corrupt ~what:"the last leaf codeword one bit longer" ~sub:"node " ~strings:code_strings
    (tmp "code_longer.wtx")
    (set_byte arena (length_byte last) (v + 1));
  (* B against the flags, and the code lengths: each fails the open,
     both ways *)
  let no_b = Bytes.of_string arena in
  Bytes.fill no_b 64 32 '\000';
  let past_kraft =
    List.fold_left
      (fun s b -> set_byte s (length_byte b) (Char.code s.[length_byte b] land 0xf0 lor 1))
      arena [ 0x61; 0x62; 0x63 ]
  in
  let bits = F.of_array [| Binarize.of_bytes "ab"; Binarize.of_bytes "b" |] in
  let with_b = flip_bit (Wt_bits.Membuf.to_string bits.F.mb) 70 3 in
  List.iter
    (fun (what, payload) ->
      let path = tmp "b_flags.wtx" in
      Wt_durable.Container.write_v3 ~tag:F.tag ~payload path;
      List.iter
        (fun mode -> expect_storage_error what (Wtrie.Static.open_file ~mode path))
        [ `Copy; `Mmap ];
      Sys.remove path)
    [
      ("a B bit cleared", cleared);
      ("leaf lengths past Kraft", past_kraft);
      ("a byte-string arena with no B", Bytes.to_string no_b);
      ("a bitstring arena with a B", with_b);
    ]

(* A bit-flip sweep over version 9's codes: on the arena of
   [code_arena], each bit of its header's code lengths and every 5th
   bit of its labels' stored bits (end fields too), one at a time.  A
   flip fails the open ([Format_error]), fails the deep check
   ([Failure]), or leaves an arena that passes it (a codeword turned
   into another, say); whichever, every access and every rank of
   [code_strings] answers or raises [Invalid_argument] — no other
   exception, and no hang. *)
let test_code_bit_flips () =
  let module F = Wt_core.Flat_wt in
  let module N = F.Node in
  let t = code_arena () in
  let arena = Wt_bits.Membuf.to_string t.F.mb in
  let labels = ref [] in
  let rec go node =
    let start = t.F.content_bit + node.N.hi - N.stored_label_length node in
    for bit = start to t.F.content_bit + node.N.hi - 1 do
      if bit mod 5 = 0 then labels := bit :: !labels
    done;
    if not (N.is_leaf node) then begin
      go (N.child node false);
      go (N.child node true)
    end
  in
  go (Option.get (N.root t));
  let header = List.init (8 * 5) (fun i -> (8 * F.header_len) + i) in
  let opened = ref 0 and failed = ref 0 and passed = ref 0 in
  List.iter
    (fun bit ->
      let corrupt = flip_bit arena (bit / 8) (bit mod 8) in
      let what = Printf.sprintf "bit %d flipped" bit in
      match F.of_membuf (Wt_bits.Membuf.of_string corrupt) with
      | exception Wt_durable.Container.Format_error _ -> ()
      | c ->
          incr opened;
          (match F.check_invariants c with
          | () -> incr passed
          | exception Failure _ -> incr failed);
          let bounded f =
            match f () with
            | _ -> ()
            | exception Invalid_argument _ -> ()
            | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)
          in
          for pos = 0 to F.length c - 1 do
            bounded (fun () -> ignore (F.access c pos))
          done;
          Array.iter
            (fun s -> bounded (fun () -> ignore (F.rank c (Binarize.of_bytes s) (F.length c))))
            code_strings)
    (header @ !labels);
  check_bool "some flips open" true (!opened > 0);
  check_bool "some flips fail the deep check" true (!failed > 0)

(* Internal labels, on the arena of [code_arena], each behind a valid
   checksum: an end field past the end states its stored bits admit,
   the internal code's last codeword one bit longer, and an extent too
   short for its end field.  A byte cut by the label's end keeps at
   most 7 raw bits, so every stored length of 0 or more admits an end
   state, and the one that admits none is negative: the node's β blob
   and label end inside the field.  The boundary after an internal zero
   child moves back over its label and one bit of its field into its
   sibling, which the deep check reaches later.  In each case it names
   the node, [wtrie verify] exits 2 and every query answers or reports
   a [Storage_error]. *)
let test_internal_labels () =
  let module F = Wt_core.Flat_wt in
  let module N = F.Node in
  let t = code_arena () in
  let code = Option.get t.F.icode in
  let x = Binarize.end_width code in
  check_int "end field width" (Wt_bits.Broadword.bit_width ((7 / Binarize.shortest code) + 1)) x;
  let arena = Wt_bits.Membuf.to_string t.F.mb in
  let internals =
    let rec go acc node =
      if N.is_leaf node then acc else go (go (node :: acc) (N.child node false)) (N.child node true)
    in
    List.rev (go [] (Option.get (N.root t)))
  in
  let set_bits s bit width v =
    let b = Bytes.of_string s in
    for i = 0 to width - 1 do
      let p = bit + i in
      let c = Char.code (Bytes.get b (p / 8)) and m = 1 lsl (p mod 8) in
      Bytes.set b (p / 8) (Char.chr (if (v lsr i) land 1 = 1 then c lor m else c land lnot m))
    done;
    Bytes.to_string b
  in
  (* the label's stored bits, the field aside, and where they start *)
  let stored node = N.stored_label_length node - x in
  let start node = node.N.hi - N.stored_label_length node in
  (* a field value past the end states of an internal label *)
  let past =
    List.find_map
      (fun node ->
        let s = stored node in
        List.find_map
          (fun f ->
            if
              Binarize.internal_length code t.F.mb (t.F.content_bit + start node)
                ~depth:node.N.depth ~stored:s f
              < 0
            then Some (node, f)
            else None)
          (List.init (1 lsl x) Fun.id))
      internals
  in
  let node, f = Option.get past in
  expect_corrupt ~what:"an end field past its end states" ~sub:"has no such end state"
    ~strings:code_strings (tmp "end_past.wtx")
    (set_bits arena (t.F.content_bit + node.N.hi - x) x f);
  let last = last_codeword code in
  let v = Char.code arena.[length_byte last] in
  expect_corrupt ~what:"the last internal codeword one bit longer" ~sub:"node "
    ~strings:code_strings (tmp "internal_code_longer.wtx")
    (set_byte arena (length_byte last) (v + 16));
  (* an internal zero child whose sibling follows it *)
  let short =
    List.find
      (fun node -> node.N.idx land 1 = 1 && node.N.idx + 1 < t.F.node_count)
      internals
  in
  expect_corrupt ~what:"an extent too short for its end field" ~sub:"has no such end state"
    ~strings:code_strings (tmp "end_short.wtx")
    (moved_boundary t short.N.idx (-(stored short + 1)))

(* ------------------------------------------------------------------ *)
(* WAL sweeps *)

let base_inputs = List.init 10 (fun i -> Printf.sprintf "input-%02d-%s" i (String.make (i mod 5) 'x'))

let wal_tag = "tiered"

(* End offset (within wal.log) of each record, in order. *)
let record_ends inputs =
  let hs = Wal.header_size ~tag:wal_tag in
  List.rev
    (snd
       (List.fold_left
          (fun (off, acc) s ->
            let off' = off + Wal.record_size (Wal.Append s) in
            (off', off' :: acc))
          (hs, []) inputs))

(* A store whose every string is still in the delta: the WAL holds all
   of [base_inputs], flushed. *)
let build_base_store dir =
  rm_rf dir;
  let t = Tiered.create ~threshold:max_int dir in
  List.iter (Tiered.ingest t) base_inputs;
  Tiered.flush t;
  Tiered.close t

(* Truncate the WAL at EVERY byte offset: recovery must see exactly the
   records wholly inside the prefix, the store must reopen, accept an
   ingest, and verify clean. *)
let test_wal_truncation_sweep () =
  let base = fresh_dir "wal_cut_base" in
  build_base_store base;
  let dir = fresh_dir "wal_cut" in
  let hs = Wal.header_size ~tag:wal_tag in
  let ends = record_ends base_inputs in
  let pristine_wal = read_file (Filename.concat base "wal.log") in
  let w = String.length pristine_wal in
  check_int "wal length matches record arithmetic" (List.nth ends (List.length ends - 1)) w;
  for cut = 0 to w do
    copy_dir base dir;
    write_file (Filename.concat dir "wal.log") (String.sub pristine_wal 0 cut);
    let expected =
      if cut < hs then 0 else List.length (List.filter (fun e -> e <= cut) ends)
    in
    let ctx fmt = Printf.ksprintf (fun m -> Printf.sprintf "cut %d/%d: %s" cut w m) fmt in
    (* read-only verification first *)
    let rep = Tiered.verify dir in
    check_int (ctx "verified length") expected rep.Tiered.v_length;
    check_bool (ctx "wal reset flag") (cut < hs) rep.Tiered.v_wal_reset;
    let boundary = cut >= hs && (cut = hs || List.mem cut ends) in
    check_bool (ctx "clean flag") boundary rep.Tiered.v_clean;
    (* then a real recovery: truncate the tail, keep working *)
    let t, r = Tiered.open_ ~threshold:max_int dir in
    check_int (ctx "replayed") expected r.Tiered.r_replayed;
    check_int (ctx "recovered length") expected (Tiered.length t);
    List.iteri
      (fun i s ->
        if i < expected then
          check_string (ctx "content %d" i) s (Result.get_ok (Tiered.access t ~pos:i)))
      base_inputs;
    Tiered.ingest t "post-recovery";
    Tiered.flush t;
    Tiered.close t;
    let rep' = Tiered.verify dir in
    check_bool (ctx "clean after recovery") true rep'.Tiered.v_clean;
    check_int (ctx "length after recovery") (expected + 1) rep'.Tiered.v_length
  done;
  rm_rf dir;
  rm_rf base

(* Flip one bit at EVERY byte offset of the WAL: a flip in the header
   discards the log (already-absorbed semantics), a flip in record [j]
   recovers exactly records [0..j-1].  Never an exception. *)
let test_wal_bit_flip_sweep () =
  let base = fresh_dir "wal_flip_base" in
  build_base_store base;
  let dir = fresh_dir "wal_flip" in
  let hs = Wal.header_size ~tag:wal_tag in
  let ends = record_ends base_inputs in
  let pristine_wal = read_file (Filename.concat base "wal.log") in
  let w = String.length pristine_wal in
  for off = 0 to w - 1 do
    copy_dir base dir;
    write_file (Filename.concat dir "wal.log") (flip_bit pristine_wal off (off mod 8));
    let expected =
      if off < hs then 0
      else List.length (List.filter (fun e -> e <= off) ends)
      (* = index of the record containing [off]: all records before it *)
    in
    let ctx m = Printf.sprintf "flip at %d/%d: %s" off w m in
    let rep = Tiered.verify dir in
    check_bool (ctx "wal reset flag") (off < hs) rep.Tiered.v_wal_reset;
    check_int (ctx "verified length") expected rep.Tiered.v_length;
    check_bool (ctx "not clean") false rep.Tiered.v_clean;
    (* recover -> verify round-trips to clean, the prefix in a run *)
    let r = Tiered.recover dir in
    check_int (ctx "replayed") expected r.Tiered.r_replayed;
    let rep' = Tiered.verify dir in
    check_bool (ctx "clean after recover") true rep'.Tiered.v_clean;
    check_int (ctx "length after recover") expected rep'.Tiered.v_length;
    check_int (ctx "delta compacted") 0 rep'.Tiered.v_wal_records
  done;
  rm_rf dir;
  rm_rf base

(* Records wait in the WAL channel's buffer until the ack: ingests with
   no flush leave the file at its header, and [close] writes them, so a
   reopen replays every one. *)
let test_wal_close_without_flush () =
  let dir = fresh_dir "wal_noflush" in
  rm_rf dir;
  let wal = Filename.concat dir "wal.log" in
  let t = Tiered.create ~threshold:max_int dir in
  List.iter (Tiered.ingest t) base_inputs;
  check_int "records buffered until the ack" (Wal.header_size ~tag:wal_tag)
    (Unix.stat wal).Unix.st_size;
  Tiered.close t;
  let ends = record_ends base_inputs in
  check_int "close writes them" (List.nth ends (List.length ends - 1)) (Unix.stat wal).Unix.st_size;
  let t, r = Tiered.open_ ~threshold:max_int dir in
  check_int "replayed" (List.length base_inputs) r.Tiered.r_replayed;
  List.iteri
    (fun pos s -> check_string "reopened content" s (Result.get_ok (Tiered.access t ~pos)))
    base_inputs;
  Tiered.close t;
  rm_rf dir

(* Unflushed records, then a torn write: the torn write flushes the
   records buffered before it with its own partial bytes, and recovery
   keeps exactly the complete records. *)
let test_wal_torn_after_unflushed () =
  let dir = fresh_dir "wal_torn_buffered" in
  rm_rf dir;
  let wal = Filename.concat dir "wal.log" in
  let hs = Wal.header_size ~tag:wal_tag in
  let ends = Array.of_list (record_ends base_inputs) in
  let whole = Array.length ends - 3 and partial = 5 in
  let t = Tiered.create ~threshold:max_int dir in
  Fault.arm_crash_after_bytes (ends.(whole - 1) - hs + partial);
  (match List.iter (Tiered.ingest t) base_inputs with
  | () -> Alcotest.fail "no torn write"
  | exception Fault.Injected_crash _ -> ());
  Fault.disarm ();
  check_int "earlier records plus the partial bytes" (ends.(whole - 1) + partial)
    (Unix.stat wal).Unix.st_size;
  let scan = Wal.scan wal in
  check_int "complete records" whole scan.Wal.s_records;
  check_int "torn bytes" partial scan.Wal.s_dropped_bytes;
  Tiered.close t;
  let r = Tiered.recover dir in
  check_int "replayed" whole r.Tiered.r_replayed;
  check_int "dropped" partial r.Tiered.r_dropped_bytes;
  check_bool "clean after recover" true (Tiered.verify dir).Tiered.v_clean;
  check_bool "contents" true
    (tiered_contents dir = List.filteri (fun i _ -> i < whole) base_inputs);
  rm_rf dir

(* [record_size] is the framed length [append_op] writes, for every op
   kind, the empty string and 0xFF bytes included; the records scan
   back as written. *)
let test_wal_record_size () =
  let path = tmp "wal_sizes.log" in
  Wal.create ~tag:wal_tag ~generation:0 path;
  let ops =
    [
      Wal.Append ""; Wal.Append "\xff"; Wal.Append (String.make 300 '\xff');
      Wal.Insert (0, ""); Wal.Insert (max_int, "\xff\x00\xff"); Wal.Delete 0; Wal.Delete 12345;
    ]
  in
  let oc = Wal.open_append path in
  let size = ref (Wal.header_size ~tag:wal_tag) in
  List.iter
    (fun op ->
      let n = Wal.append_op oc op in
      check_int "record_size = bytes written" n (Wal.record_size op);
      flush oc;
      size := !size + n;
      check_int "file grows by record_size" !size (Unix.stat path).Unix.st_size)
    ops;
  close_out oc;
  check_bool "records scan back" true ((Wal.scan path).Wal.s_ops = ops);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Injected crashes *)

(* Crash after every possible byte budget while ingesting, each string
   flushed (acknowledged) before the next: every acknowledged string
   must survive recovery, in order, the torn one must vanish, and the
   store must stay writable. *)
let test_crash_during_appends () =
  let base = fresh_dir "crash_app_base" in
  build_base_store base;
  let dir = fresh_dir "crash_app" in
  let extra = List.init 6 (fun i -> Printf.sprintf "extra-%d" i) in
  let extra_bytes =
    List.fold_left (fun acc s -> acc + Wal.record_size (Wal.Append s)) 0 extra
  in
  let n_base = List.length base_inputs in
  for budget = 0 to extra_bytes + 4 do
    copy_dir base dir;
    let t, _ = Tiered.open_ ~threshold:max_int dir in
    Fault.arm_crash_after_bytes budget;
    let acked = ref 0 in
    (try
       List.iter
         (fun s ->
           Tiered.ingest t s;
           Tiered.flush t;
           incr acked)
         extra
     with Fault.Injected_crash _ -> ());
    Fault.disarm ();
    (* releasing the fd writes nothing further; the torn tail stays *)
    Tiered.close t;
    let ctx m = Printf.sprintf "budget %d: %s" budget m in
    let rep = Tiered.verify dir in
    check_int (ctx "acknowledged prefix") (n_base + !acked) rep.Tiered.v_length;
    let r = Tiered.recover dir in
    check_int (ctx "replayed") (n_base + !acked) r.Tiered.r_replayed;
    let rep' = Tiered.verify dir in
    check_bool (ctx "clean after recover") true rep'.Tiered.v_clean;
    check_int (ctx "length after recover") (n_base + !acked) rep'.Tiered.v_length;
    (* contents: base then the acknowledged extras, in order *)
    let want = base_inputs @ List.filteri (fun i _ -> i < !acked) extra in
    check_bool (ctx "contents") true (tiered_contents dir = want)
  done;
  rm_rf dir;
  rm_rf base

(* ------------------------------------------------------------------ *)
(* Edge cases: missing files, future generations, probes *)

let test_edge_cases () =
  let base = fresh_dir "edge_base" in
  rm_rf base;
  let t = Tiered.create ~threshold:max_int base in
  Tiered.ingest t "alpha";
  Tiered.ingest t "beta";
  Tiered.flush t;
  Tiered.close t;
  let dir = fresh_dir "edge" in
  let expect_fe what f =
    match f () with
    | exception Wt_durable.Container.Format_error _ -> ()
    | exception e ->
        Alcotest.fail (Printf.sprintf "%s: unexpected exception %s" what (Printexc.to_string e))
    | _ -> Alcotest.fail (Printf.sprintf "%s: expected Format_error" what)
  in
  (* a deleted WAL is recoverable: the log resets, the runs stand *)
  copy_dir base dir;
  Sys.remove (Filename.concat dir "wal.log");
  let rep = Tiered.verify dir in
  check_bool "missing wal -> reset" true rep.Tiered.v_wal_reset;
  check_int "missing wal -> run state" 0 rep.Tiered.v_length;
  let t, r = Tiered.open_ dir in
  check_bool "missing wal -> reset on open" true r.Tiered.r_wal_reset;
  Tiered.ingest t "fresh";
  Tiered.flush t;
  Tiered.close t;
  check_bool "recreated wal -> clean" true (Tiered.verify dir).Tiered.v_clean;
  (* garbage where the manifest should be fails loudly *)
  copy_dir base dir;
  write_file (Filename.concat dir "manifest.wtx") "garbage, not a container";
  expect_fe "garbage manifest" (fun () -> ignore (Tiered.verify dir : Tiered.verify_report));
  (* a WAL from the future (generation past the manifest's next) is corrupt *)
  copy_dir base dir;
  Wal.create ~tag:wal_tag ~generation:7 (Filename.concat dir "wal.log");
  expect_fe "future-generation wal" (fun () ->
      ignore (Tiered.verify dir : Tiered.verify_report));
  (* a stale-generation WAL is discarded, never replayed twice *)
  copy_dir base dir;
  ignore (Tiered.recover dir : Tiered.recovery);
  write_file (Filename.concat dir "wal.log") (read_file (Filename.concat base "wal.log"));
  let rep = Tiered.verify dir in
  check_bool "stale wal -> reset" true rep.Tiered.v_wal_reset;
  check_int "stale wal -> not replayed" 2 rep.Tiered.v_length;
  check_int "stale wal -> zero records counted" 0 rep.Tiered.v_wal_records;
  (* not a store at all *)
  rm_rf dir;
  Sys.mkdir dir 0o755;
  check_bool "empty dir is not a store" false (Tiered.is_store dir);
  expect_fe "empty dir" (fun () -> ignore (Tiered.verify dir : Tiered.verify_report));
  (* recovery work lands in the obs probes *)
  copy_dir base dir;
  let wal = read_file (Filename.concat dir "wal.log") in
  write_file (Filename.concat dir "wal.log") (String.sub wal 0 (String.length wal - 3));
  Wt_obs.Probe.enable ();
  Wt_obs.Probe.reset ();
  let t, r = Tiered.open_ dir in
  check_int "probe: replayed records" 1 (Wt_obs.Probe.counter Wt_obs.Metric.Durable_wal_replay);
  check_bool "probe: dropped bytes" true
    (Wt_obs.Probe.counter Wt_obs.Metric.Durable_wal_dropped_bytes = r.Tiered.r_dropped_bytes
    && r.Tiered.r_dropped_bytes > 0);
  Tiered.close t;
  Wt_obs.Probe.disable ();
  rm_rf dir;
  rm_rf base

(* ------------------------------------------------------------------ *)
(* Tiered store: crashes inside the compaction commit protocol, and
   corruption sweeps over the manifest and run containers.

   The commit writes, in order: the run container, the rotated WAL
   (generation g+1), the manifest (generation g+1) — each atomically.
   A crash at ANY byte budget through that sequence must recover to the
   full acknowledged ingest set: no lost string, no duplicate, and
   [recover] -> [verify] must round-trip to a clean store. *)

let tiered_inputs = List.init 12 (fun i -> Printf.sprintf "t-%02d-%s" i (String.make (i mod 4) 'y'))

(* A base store with everything still in the delta (threshold never
   reached), flushed and closed: the compaction under test does all
   three commit steps from here. *)
let build_tiered_base dir =
  rm_rf dir;
  let t = Tiered.create ~threshold:max_int dir in
  List.iter (Tiered.ingest t) tiered_inputs;
  Tiered.flush t;
  Tiered.close t

(* A base store whose next compaction merges: two runs of 8 and 4
   strings (the second compaction does not absorb the larger first run)
   and a 4-string delta, which absorbs both — a commit replacing J = 2
   runs. *)
let merge_inputs = List.init 16 (fun i -> Printf.sprintf "m-%02d-%s" i (String.make (i mod 3) 'z'))

let build_merge_base dir =
  rm_rf dir;
  let t = Tiered.create ~threshold:max_int dir in
  List.iteri
    (fun i s ->
      Tiered.ingest t s;
      if i = 7 || i = 11 then Tiered.compact t)
    merge_inputs;
  Tiered.flush t;
  Tiered.close t

let run_files dir =
  List.sort compare
    (List.filter
       (fun f -> String.length f > 4 && String.sub f 0 4 = "run-")
       (Array.to_list (Sys.readdir dir)))

(* Compact [base] into [measure] once, fault-free, to learn the byte
   cost of each commit step (every write goes through the budgeted
   [Fault.output_string], so file sizes are budget arithmetic). *)
let measure_compaction ?(run = "run-000000.wtx") base measure =
  copy_dir base measure;
  let tm, _ = Tiered.open_ ~threshold:max_int measure in
  Tiered.compact tm;
  Tiered.close tm;
  let sz f = (Unix.stat (Filename.concat measure f)).Unix.st_size in
  (sz run, sz "wal.log", sz "manifest.wtx")

(* Crash the compaction of [base] at every budget of a stride plus
   pinned budgets inside each commit window, so the sweep provably hits
   all three crash sites.  The commit writes [run], replacing the
   [replaces] newest of [runs_before] runs. *)
let compaction_crash_sweep ~name ~build ~inputs ~runs_before ~replaces ~run =
  let base = fresh_dir (name ^ "_base") in
  build base;
  let measure = fresh_dir (name ^ "_measure") in
  let run_b, wal_b, man_b = measure_compaction ~run base measure in
  rm_rf measure;
  let total = run_b + wal_b + man_b in
  let dir = fresh_dir name in
  let n = List.length inputs in
  let runs_after = runs_before - replaces + 1 in
  let crashes = ref 0 and completions = ref 0 and rolled = ref 0 in
  let budgets =
    List.sort_uniq compare
      (List.init 62 (fun i -> i * max 1 (total / 60))
      @ [ 0; run_b - 1; run_b; run_b + 1; run_b + wal_b - 1; run_b + wal_b;
          run_b + wal_b + 1; total - 1; total; total + 64 ])
  in
  List.iter
    (fun budget ->
      if budget >= 0 then begin
        copy_dir base dir;
        let t, _ = Tiered.open_ ~threshold:max_int dir in
        Fault.arm_crash_after_bytes budget;
        let crashed =
          match Tiered.compact t with
          | () -> false
          | exception Fault.Injected_crash _ -> true
        in
        Fault.disarm ();
        Tiered.close t;
        incr (if crashed then crashes else completions);
        let ctx m = Printf.sprintf "%s budget %d/%d (crashed=%b): %s" name budget total crashed m in
        (* even before repair, no acknowledged ingest may be missing:
           every crash window leaves the records in the old WAL, the
           new WAL + pending run, or the committed run *)
        let rep0 = Tiered.verify dir in
        check_int (ctx "no lost ingest pre-recovery") n rep0.Tiered.v_length;
        check_bool (ctx "never a WAL reset") false rep0.Tiered.v_wal_reset;
        if rep0.Tiered.v_rolled_forward then begin
          incr rolled;
          check_int (ctx "roll-forward replaces exactly J runs") runs_after rep0.Tiered.v_runs
        end
        else
          check_bool (ctx "the runs before or after the commit") true
            (rep0.Tiered.v_runs = (if crashed then runs_before else runs_after));
        check_bool (ctx "no duplicate pre-recovery") true (tiered_contents dir = inputs);
        (* repair: adopt/replay, compact the delta, land clean *)
        let r = Tiered.recover dir in
        check_bool (ctx "recover never resets the WAL") false r.Tiered.r_wal_reset;
        let rep = Tiered.verify dir in
        check_bool (ctx "clean after recover") true rep.Tiered.v_clean;
        check_int (ctx "no lost ingest") n rep.Tiered.v_length;
        check_bool (ctx "exactly one run generation") true (rep.Tiered.v_runs = 1);
        check_int (ctx "delta fully compacted") 0 rep.Tiered.v_wal_records;
        check_bool (ctx "contents") true (tiered_contents dir = inputs);
        (* nothing replaced or orphaned is left behind *)
        Alcotest.(check (list string)) (ctx "run files") [ run ] (run_files dir)
      end)
    budgets;
  (* the sweep must have exercised both outcomes, and the pinned budget
     between the WAL rotation and the manifest swap must have produced
     at least one roll-forward recovery *)
  check_bool "sweep saw crashes" true (!crashes > 0);
  check_bool "sweep saw completions" true (!completions > 0);
  check_bool "sweep saw a roll-forward window" true (!rolled > 0);
  rm_rf dir;
  rm_rf base

let test_tiered_compaction_crash_sweep () =
  compaction_crash_sweep ~name:"tiered_crash" ~build:build_tiered_base ~inputs:tiered_inputs
    ~runs_before:0 ~replaces:0 ~run:"run-000000.wtx"

(* The same sweep over a commit that absorbs two runs, then a pending
   run written the way stores wrote every run before runs merged: a
   plain name, holding the delta alone.  Roll-forward appends it and
   replaces nothing. *)
let test_tiered_merge_crash_sweep () =
  compaction_crash_sweep ~name:"tiered_merge_crash" ~build:build_merge_base
    ~inputs:merge_inputs ~runs_before:2 ~replaces:2 ~run:"run-000002-r2.wtx";
  let base = fresh_dir "tiered_plain_base" in
  build_merge_base base;
  let after = fresh_dir "tiered_plain_after" in
  ignore (measure_compaction ~run:"run-000002-r2.wtx" base after : int * int * int);
  let dir = fresh_dir "tiered_plain" in
  copy_dir base dir;
  write_file (Filename.concat dir "wal.log") (read_file (Filename.concat after "wal.log"));
  let delta = Array.of_list (List.filteri (fun i _ -> i >= 12) merge_inputs) in
  Wt_core.Flat_wt.save_file (Wtrie.Static.of_array delta) (Filename.concat dir "run-000002.wtx");
  let rep = Tiered.verify dir in
  check_bool "plain pending run rolls forward" true rep.Tiered.v_rolled_forward;
  check_int "plain pending run replaces nothing" 3 rep.Tiered.v_runs;
  check_int "plain pending run keeps everything" (List.length merge_inputs) rep.Tiered.v_length;
  let t, r = Tiered.open_ dir in
  check_bool "open completes the plain commit" true r.Tiered.r_rolled_forward;
  Tiered.close t;
  check_bool "clean after the plain adoption" true (Tiered.verify dir).Tiered.v_clean;
  check_bool "contents after the plain adoption" true (tiered_contents dir = merge_inputs);
  Alcotest.(check (list string))
    "plain adoption keeps every run" [ "run-000000.wtx"; "run-000001.wtx"; "run-000002.wtx" ]
    (run_files dir);
  rm_rf dir;
  rm_rf after;
  rm_rf base

(* Bit-flip and truncation sweeps over the manifest: every corrupted
   byte must fail closed as [Format_error] — the CRC leaves no silent
   window — and the pristine bytes must still open. *)
let test_tiered_manifest_sweeps () =
  let base = fresh_dir "tiered_man_base" in
  build_tiered_base base;
  let t, _ = Tiered.open_ ~threshold:max_int base in
  Tiered.compact t;
  Tiered.close t;
  let dir = fresh_dir "tiered_man" in
  let man = Filename.concat dir "manifest.wtx" in
  let pristine = read_file (Filename.concat base "manifest.wtx") in
  let len = String.length pristine in
  for off = 0 to len - 1 do
    copy_dir base dir;
    write_file man (flip_bit pristine off (off mod 8));
    expect_format_error
      (Printf.sprintf "manifest bit flip at %d/%d" off len)
      (fun () -> ignore (Tiered.verify dir : Tiered.verify_report))
  done;
  for cut = 0 to len - 1 do
    copy_dir base dir;
    write_file man (String.sub pristine 0 cut);
    expect_format_error
      (Printf.sprintf "manifest truncated to %d/%d" cut len)
      (fun () -> ignore (Tiered.verify dir : Tiered.verify_report))
  done;
  copy_dir base dir;
  check_bool "pristine manifest verifies" true (Tiered.verify dir).Tiered.v_clean;
  rm_rf dir;
  rm_rf base

(* The same sweeps over a committed run file: [verify] re-reads runs
   through the checksummed copy path, so corruption anywhere in the run
   container must surface as [Format_error]. *)
let test_tiered_run_sweeps () =
  let base = fresh_dir "tiered_run_base" in
  build_tiered_base base;
  let t, _ = Tiered.open_ ~threshold:max_int base in
  Tiered.compact t;
  Tiered.close t;
  let dir = fresh_dir "tiered_run" in
  let run = Filename.concat dir "run-000000.wtx" in
  let pristine = read_file (Filename.concat base "run-000000.wtx") in
  let len = String.length pristine in
  let stride = max 1 (len / 251) in
  let off = ref 0 in
  while !off < len do
    copy_dir base dir;
    write_file run (flip_bit pristine !off (!off mod 8));
    expect_format_error
      (Printf.sprintf "run bit flip at %d/%d" !off len)
      (fun () -> ignore (Tiered.verify dir : Tiered.verify_report));
    off := !off + stride
  done;
  let cut = ref 0 in
  while !cut < len do
    copy_dir base dir;
    write_file run (String.sub pristine 0 !cut);
    expect_format_error
      (Printf.sprintf "run truncated to %d/%d" !cut len)
      (fun () -> ignore (Tiered.verify dir : Tiered.verify_report));
    cut := !cut + stride
  done;
  (* a deleted run named by the manifest is equally fatal *)
  copy_dir base dir;
  Sys.remove run;
  expect_format_error "missing run" (fun () ->
      ignore (Tiered.verify dir : Tiered.verify_report));
  copy_dir base dir;
  check_bool "pristine run verifies" true (Tiered.verify dir).Tiered.v_clean;
  rm_rf dir;
  rm_rf base

(* Deterministic reconstructions of each recovery class, plus WAL-tail
   damage on the tiered log. *)
let test_tiered_recovery_classes () =
  let base = fresh_dir "tiered_cls_base" in
  build_tiered_base base;
  (* the fully-committed "after" state of one compaction *)
  let after = fresh_dir "tiered_cls_after" in
  ignore (measure_compaction base after : int * int * int);
  let dir = fresh_dir "tiered_cls" in
  let n = List.length tiered_inputs in
  let file d f = Filename.concat d f in
  (* roll-forward: run + rotated WAL landed, manifest swap did not *)
  copy_dir base dir;
  write_file (file dir "wal.log") (read_file (file after "wal.log"));
  write_file (file dir "run-000000.wtx") (read_file (file after "run-000000.wtx"));
  let rep = Tiered.verify dir in
  check_bool "roll-forward classified" true rep.Tiered.v_rolled_forward;
  check_bool "roll-forward not clean" false rep.Tiered.v_clean;
  check_int "roll-forward keeps everything" n rep.Tiered.v_length;
  let t, r = Tiered.open_ dir in
  check_bool "open completes the commit" true r.Tiered.r_rolled_forward;
  check_int "adopted generation" 1 (Tiered.generation t);
  Tiered.close t;
  check_bool "clean after adoption" true (Tiered.verify dir).Tiered.v_clean;
  check_bool "contents after adoption" true (tiered_contents dir = tiered_inputs);
  (* rotated WAL without the pending run: unrecoverable, fail closed *)
  copy_dir base dir;
  write_file (file dir "wal.log") (read_file (file after "wal.log"));
  expect_format_error "missing pending run" (fun () ->
      ignore (Tiered.verify dir : Tiered.verify_report));
  (* stale WAL (behind the manifest): discarded, never replayed twice *)
  copy_dir after dir;
  write_file (file dir "wal.log") (read_file (file base "wal.log"));
  let rep = Tiered.verify dir in
  check_bool "stale wal -> reset" true rep.Tiered.v_wal_reset;
  check_int "stale wal -> run state only" n rep.Tiered.v_length;
  check_int "stale wal -> nothing replayed" 0 rep.Tiered.v_wal_records;
  ignore (Tiered.recover dir : Tiered.recovery);
  check_bool "clean after stale-wal recover" true (Tiered.verify dir).Tiered.v_clean;
  check_bool "no duplicates after stale-wal recover" true (tiered_contents dir = tiered_inputs);
  (* torn WAL tail: the intact prefix replays, the tail is dropped *)
  copy_dir base dir;
  let wal = read_file (file dir "wal.log") in
  write_file (file dir "wal.log") (String.sub wal 0 (String.length wal - 5));
  let rep = Tiered.verify dir in
  check_bool "torn tail not clean" false rep.Tiered.v_clean;
  check_int "torn tail drops one record" (n - 1) rep.Tiered.v_wal_records;
  check_bool "torn tail counts dropped bytes" true (rep.Tiered.v_dropped_bytes > 0);
  let r = Tiered.recover dir in
  check_int "torn tail replays the prefix" (n - 1) r.Tiered.r_replayed;
  check_bool "clean after torn-tail recover" true (Tiered.verify dir).Tiered.v_clean;
  (* an orphan run (crash before the WAL rotation) is swept on open *)
  copy_dir base dir;
  write_file (file dir "run-000000.wtx") (read_file (file after "run-000000.wtx"));
  let t, _ = Tiered.open_ dir in
  Tiered.close t;
  check_bool "orphan run deleted" false (Sys.file_exists (file dir "run-000000.wtx"));
  check_bool "contents unaffected by orphan" true (tiered_contents dir = tiered_inputs);
  rm_rf dir;
  rm_rf after;
  rm_rf base

(* A failed WAL fsync is not an ack: [flush] raises and poisons the
   writer, so every later ingest and flush re-raises while reads keep
   answering, and a reopen reads back every string acknowledged before
   the failure. *)
let test_tiered_fsync_failure () =
  let dir = fresh_dir "tiered_fsync" in
  let t = Tiered.create ~threshold:max_int dir in
  let acked = List.init 8 (Printf.sprintf "acked-%d") in
  List.iter (Tiered.ingest t) acked;
  Tiered.flush t;
  Fault.fail_next_fsync Unix.EIO;
  List.iter (Tiered.ingest t) (List.init 8 (Printf.sprintf "unacked-%d"));
  let raises_eio what f =
    check_bool what true
      (match f () with () -> false | exception Unix.Unix_error (Unix.EIO, _, _) -> true)
  in
  raises_eio "flush raises" (fun () -> Tiered.flush t);
  raises_eio "next ingest raises" (fun () -> Tiered.ingest t "after");
  raises_eio "next flush raises" (fun () -> Tiered.flush t);
  check_int "reads keep working" 16 (Tiered.length t);
  check_bool "read after the failure" true (Tiered.access t ~pos:0 = Ok "acked-0");
  Fault.disarm ();
  Tiered.close t;
  let t, _ = Tiered.open_ dir in
  let n = List.length acked in
  check_bool "acknowledged strings read back" true
    (List.init n (fun pos -> Result.get_ok (Tiered.access t ~pos)) = acked);
  Tiered.close t;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Migrating a snapshot+WAL directory

   Earlier versions wrote a second kind of store: [snapshot.wtx], a
   container tagged "durable-append" or "durable-dynamic" holding the
   Marshal of [(generation, trie)], plus a WAL of that tag and
   generation.  These tests write such directories by hand, in that
   layout, and check that [Tiered.recover] turns each into a tiered
   store with exactly the snapshot plus its WAL's verified prefix.  An
   append-only snapshot's trie is format v2's: the one in
   [fixtures/legacy/append.d], written at commit b04144f, or format
   v2's empty trie; a dynamic snapshot's is the live [Dynamic_wt.t]. *)

module Dynamic_wt = Wt_core.Dynamic_wt

let bits = List.map Binarize.of_bytes

(* The append-only trie of [fixtures/legacy/append.d]'s snapshot, the
   strings [Oracle.legacy_s 0] to [Oracle.legacy_s 4400]: a root whose
   first 4,096 bits are a frozen RRR segment.  Kept opaque, so it is
   marshalled again exactly as that commit wrote it. *)
let legacy_trie : Obj.t =
  let payload =
    Wt_durable.Container.read ~expect_tag:"durable-append" "fixtures/legacy/append.d/snapshot.wtx"
  in
  snd (Marshal.from_string payload 0 : int * Obj.t)

let legacy_strings = List.init 4401 Oracle.legacy_s

(* Format v2's empty append-only trie: [Persist.V2.Append_wt.t] with no
   root. *)
type v2_append = { root : unit option; n : int }

let empty_legacy_trie = Obj.repr { root = None; n = 0 }

(* The strings of the dynamic snapshots. *)
let dynamic_strings =
  List.init 20 (fun i -> Printf.sprintf "old-%02d/%s" (i mod 7) (String.make (i mod 3) 'q'))

let write_legacy dir ~tag ~generation ?(wal_generation = generation) trie ops =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Wt_durable.Container.write ~tag
    ~payload:(Marshal.to_string (generation, trie) [])
    (Filename.concat dir "snapshot.wtx");
  Wal.create_with ~tag ~generation:wal_generation ops (Filename.concat dir "wal.log")

(* An append store whose WAL holds five more strings. *)
let write_legacy_append dir =
  write_legacy dir ~tag:"durable-append" ~generation:3 legacy_trie
    (List.init 5 (fun i -> Wal.Append (Printf.sprintf "logged-%d" i)))

let legacy_append_contents = legacy_strings @ List.init 5 (Printf.sprintf "logged-%d")

let names_recover msg =
  let sub = "wtrie recover" in
  let k = String.length sub in
  let rec go i = i + k <= String.length msg && (String.sub msg i k = sub || go (i + 1)) in
  go 0

let dir_listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

let snapshot_of dir = List.map (fun f -> (f, read_file (Filename.concat dir f))) (dir_listing dir)

(* Every tiered entry point but [recover] refuses the directory, names
   the migration and writes nothing. *)
let check_refused ctx dir =
  let before = snapshot_of dir in
  let refused what f =
    match f () with
    | exception Wt_durable.Container.Format_error m ->
        check_bool (ctx (what ^ " names wtrie recover")) true (names_recover m)
    | exception e -> Alcotest.failf "%s: unexpected %s" (ctx what) (Printexc.to_string e)
    | _ -> Alcotest.fail (ctx (what ^ " opened a legacy directory"))
  in
  refused "verify" (fun () -> ignore (Tiered.verify dir : Tiered.verify_report));
  refused "open_" (fun () -> Tiered.close (fst (Tiered.open_ dir)));
  refused "open_read_only" (fun () -> Tiered.close (fst (Tiered.open_read_only dir)));
  refused "create" (fun () -> Tiered.close (Tiered.create dir));
  check_bool (ctx "refusals touch nothing") true (snapshot_of dir = before)

(* [recover] migrates; the store then reads back [want], verifies clean,
   holds no snapshot, and takes a later ingest. *)
let check_migrated ctx dir ~replayed want =
  let r = Tiered.recover dir in
  check_bool (ctx "migrated") true r.Tiered.r_migrated;
  check_bool (ctx "the migration leaves a tiered WAL") false r.Tiered.r_wal_reset;
  check_int (ctx "legacy records replayed") replayed r.Tiered.r_replayed;
  check_bool (ctx "contents") true (tiered_contents dir = want);
  let rep = Tiered.verify dir in
  check_bool (ctx "clean") true rep.Tiered.v_clean;
  check_int (ctx "one run") 1 rep.Tiered.v_runs;
  Alcotest.(check (list string))
    (ctx "files") [ "manifest.wtx"; "run-000000.wtx"; "wal.log" ] (dir_listing dir);
  let t, _ = Tiered.open_ dir in
  Tiered.ingest t "later";
  Tiered.flush t;
  Tiered.close t;
  check_bool (ctx "a later ingest") true (tiered_contents dir = want @ [ "later" ])

let test_migration_cases () =
  let dir = fresh_dir "legacy" in
  let case name ~replayed want =
    let ctx m = Printf.sprintf "%s: %s" name m in
    check_refused ctx dir;
    check_migrated ctx dir ~replayed want
  in
  (* an append trie *)
  write_legacy_append dir;
  case "append" ~replayed:5 legacy_append_contents;
  (* a dynamic trie whose WAL inserts and deletes *)
  let ops =
    [ Wal.Insert (0, "head"); Wal.Delete 4; Wal.Append "tail"; Wal.Insert (7, "mid");
      Wal.Delete 0; Wal.Insert (3, "old-01/q") ]
  in
  write_legacy dir ~tag:"durable-dynamic" ~generation:1
    (Obj.repr (Dynamic_wt.of_array (Array.of_list (bits dynamic_strings))))
    ops;
  let apply l = function
    | Wal.Append s -> l @ [ s ]
    | Wal.Insert (p, s) -> List.filteri (fun i _ -> i < p) l @ (s :: List.filteri (fun i _ -> i >= p) l)
    | Wal.Delete p -> List.filteri (fun i _ -> i <> p) l
  in
  case "dynamic" ~replayed:(List.length ops) (List.fold_left apply dynamic_strings ops);
  (* an empty store *)
  write_legacy dir ~tag:"durable-append" ~generation:0 empty_legacy_trie [];
  case "empty" ~replayed:0 [];
  (* a torn WAL tail: the verified prefix only *)
  write_legacy_append dir;
  let wal = read_file (Filename.concat dir "wal.log") in
  write_file (Filename.concat dir "wal.log") (String.sub wal 0 (String.length wal - 3));
  case "torn tail" ~replayed:4
    (List.filteri (fun i _ -> i < List.length legacy_append_contents - 1) legacy_append_contents);
  (* a stale-generation WAL was absorbed by the snapshot already *)
  write_legacy dir ~tag:"durable-append" ~generation:3 ~wal_generation:2 legacy_trie
    [ Wal.Append "absorbed" ];
  case "stale wal" ~replayed:0 legacy_strings;
  (* a future-generation WAL is impossible: refused, nothing touched *)
  write_legacy dir ~tag:"durable-append" ~generation:3 ~wal_generation:4 legacy_trie
    [ Wal.Append "future" ];
  let before = snapshot_of dir in
  expect_format_error "future-generation wal" (fun () ->
      ignore (Tiered.recover dir : Tiered.recovery));
  check_bool "future-generation wal leaves the directory untouched" true
    (snapshot_of dir = before);
  (* so are an insert or a delete past the end *)
  List.iter
    (fun op ->
      write_legacy dir ~tag:"durable-dynamic" ~generation:0
        (Obj.repr (Dynamic_wt.of_array (Array.of_list (bits dynamic_strings))))
        [ op ];
      expect_format_error "out-of-bounds record" (fun () ->
          ignore (Tiered.recover dir : Tiered.recovery)))
    [ Wal.Insert (21, "past the end"); Wal.Delete 20 ];
  rm_rf dir

(* Crash the migration at every budget of a stride plus pinned budgets
   inside its three writing steps; the fourth step (deleting the
   snapshot) writes nothing, so its window is built by hand.  A crash
   leaves either the legacy directory or a tiered store with the same
   contents, and one more [recover] always lands on the migrated
   store. *)
let test_migration_crash_sweep () =
  let base = fresh_dir "legacy_crash_base" in
  write_legacy_append base;
  let want = legacy_append_contents in
  let measure = fresh_dir "legacy_crash_measure" in
  copy_dir base measure;
  ignore (Tiered.recover measure : Tiered.recovery);
  let sz f = (Unix.stat (Filename.concat measure f)).Unix.st_size in
  let run_b = sz "run-000000.wtx" and man_b = sz "manifest.wtx" and wal_b = sz "wal.log" in
  let total = run_b + man_b + wal_b in
  let dir = fresh_dir "legacy_crash" in
  let legacy = ref 0 and tiered = ref 0 and completions = ref 0 in
  let budgets =
    List.sort_uniq compare
      (List.init 62 (fun i -> i * max 1 (total / 60))
      @ [ 0; run_b - 1; run_b; run_b + 1; run_b + man_b - 1; run_b + man_b;
          run_b + man_b + 1; total - 1; total; total + 64 ])
  in
  let check_final ctx =
    ignore (Tiered.recover dir : Tiered.recovery);
    check_bool (ctx "recover leaves a clean store") true (Tiered.verify dir).Tiered.v_clean;
    check_bool (ctx "contents") true (tiered_contents dir = want);
    Alcotest.(check (list string))
      (ctx "files") [ "manifest.wtx"; "run-000000.wtx"; "wal.log" ] (dir_listing dir)
  in
  List.iter
    (fun budget ->
      copy_dir base dir;
      Fault.arm_crash_after_bytes budget;
      let crashed =
        match Tiered.recover dir with
        | _ -> false
        | exception Fault.Injected_crash _ -> true
      in
      Fault.disarm ();
      let ctx m = Printf.sprintf "budget %d/%d (crashed=%b): %s" budget total crashed m in
      if not crashed then incr completions
      else if Tiered.is_store dir then begin
        incr tiered;
        check_bool (ctx "a tiered store with the legacy contents") true
          (tiered_contents dir = want)
      end
      else begin
        incr legacy;
        check_bool (ctx "the legacy directory") true
          (Sys.file_exists (Filename.concat dir "snapshot.wtx"))
      end;
      check_final ctx)
    budgets;
  check_bool "sweep saw legacy crashes" true (!legacy > 0);
  check_bool "sweep saw tiered crashes" true (!tiered > 0);
  check_bool "sweep saw completions" true (!completions > 0);
  (* the fourth window: migrated, snapshot not yet deleted *)
  copy_dir measure dir;
  write_file (Filename.concat dir "snapshot.wtx") (read_file (Filename.concat base "snapshot.wtx"));
  check_bool "leftover snapshot: contents" true (tiered_contents dir = want);
  Tiered.close (fst (Tiered.open_ dir));
  check_bool "leftover snapshot swept by a writable open" false
    (Sys.file_exists (Filename.concat dir "snapshot.wtx"));
  check_final (Printf.sprintf "leftover snapshot: %s");
  rm_rf dir;
  rm_rf measure;
  rm_rf base

(* The CLI has no legacy branch of its own: the store's refusal reaches
   the user as exit 2 naming the migration, and nothing is written. *)
let test_migration_cli () =
  let exe =
    List.find Sys.file_exists [ "../bin/wtrie_cli.exe"; "_build/default/bin/wtrie_cli.exe" ]
  in
  let dir = fresh_dir "legacy_cli" in
  write_legacy_append dir;
  let input = tmp "legacy_cli_input.txt" in
  write_file input "fresh\n";
  let err = tmp "legacy_cli_err.txt" in
  let wtrie args =
    Sys.command
      (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote exe) args (Filename.quote err))
  in
  let q = Filename.quote in
  List.iter
    (fun (what, args) ->
      check_int (what ^ " exits 2") 2 (wtrie args);
      let msg = read_file err in
      check_bool (what ^ " names wtrie recover") true (names_recover msg);
      check_bool (what ^ " writes no manifest") false
        (Sys.file_exists (Filename.concat dir "manifest.wtx")))
    [
      ("ingest", Printf.sprintf "ingest %s %s" (q dir) (q input));
      ("verify", Printf.sprintf "verify %s" (q dir));
      ("rank", Printf.sprintf "rank %s old-00/" (q dir));
    ];
  check_int "recover migrates" 0 (wtrie (Printf.sprintf "recover %s" (q dir)));
  check_int "ingest after the migration" 0
    (wtrie (Printf.sprintf "ingest %s %s" (q dir) (q input)));
  check_bool "contents after the migration" true
    (tiered_contents dir = legacy_append_contents @ [ "fresh" ]);
  Sys.remove input;
  Sys.remove err;
  rm_rf dir

let () =
  Alcotest.run "wt_faults"
    [
      ( "snapshot",
        [
          Alcotest.test_case "bit-flip sweep" `Quick test_snapshot_bit_flips;
          Alcotest.test_case "truncation sweep" `Quick test_snapshot_truncations;
        ] );
      ( "v3 arena",
        [
          Alcotest.test_case "bit-flip sweep" `Quick test_v3_bit_flips;
          Alcotest.test_case "truncation sweep" `Quick test_v3_truncations;
          Alcotest.test_case "corrupt leaf extent fails verify" `Quick test_v3_leaf_extent;
          Alcotest.test_case "corrupt byte set or leaf code fails verify" `Quick test_leaf_codes;
          Alcotest.test_case "corrupt internal label fails verify" `Quick test_internal_labels;
          Alcotest.test_case "code lengths and label bits bit-flip sweep" `Quick
            test_code_bit_flips;
        ] );
      ( "wal",
        [
          Alcotest.test_case "truncation sweep (every offset)" `Quick test_wal_truncation_sweep;
          Alcotest.test_case "bit-flip sweep (every offset)" `Quick test_wal_bit_flip_sweep;
          Alcotest.test_case "close writes unflushed records" `Quick test_wal_close_without_flush;
          Alcotest.test_case "torn write after unflushed records" `Quick
            test_wal_torn_after_unflushed;
          Alcotest.test_case "record_size = framed length" `Quick test_wal_record_size;
        ] );
      ( "crash",
        [ Alcotest.test_case "torn appends (every budget)" `Quick test_crash_during_appends ] );
      ("edges", [ Alcotest.test_case "garbage, stale, probes" `Quick test_edge_cases ]);
      ( "tiered",
        [
          Alcotest.test_case "compaction crash sweep" `Quick test_tiered_compaction_crash_sweep;
          Alcotest.test_case "merge commit crash sweep" `Quick test_tiered_merge_crash_sweep;
          Alcotest.test_case "manifest corruption sweeps" `Quick test_tiered_manifest_sweeps;
          Alcotest.test_case "run corruption sweeps" `Quick test_tiered_run_sweeps;
          Alcotest.test_case "recovery classes" `Quick test_tiered_recovery_classes;
          Alcotest.test_case "failed WAL fsync is not an ack" `Quick test_tiered_fsync_failure;
        ] );
      ( "migration",
        [
          Alcotest.test_case "legacy directories read back" `Quick test_migration_cases;
          Alcotest.test_case "migration crash sweep" `Quick test_migration_crash_sweep;
          Alcotest.test_case "CLI refuses a legacy directory" `Quick test_migration_cli;
        ] );
    ]
