(* The flat format-v3 arena (lib/core/flat_wt): golden structure against
   the paper's worked examples, full QUERY_API equivalence between the
   pointer trie and the arena — freshly built, reopened by copy, and
   reopened by mmap — v2 -> v3 migration through Wtrie.Storage, and
   deterministic closed-handle behaviour after [close]. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Wavelet_trie = Wt_core.Wavelet_trie
module Flat_wt = Wt_core.Flat_wt
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
module Container = Wt_durable.Container

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bs = Bitstring.of_string

let fig2_seq =
  List.map bs [ "0001"; "0011"; "0100"; "00100"; "0100"; "00100"; "0100" ]

let fig2_dump =
  [
    ("0", Some "0010101");
    ("", Some "0111");
    ("1", None);
    ("", Some "100");
    ("0", None);
    ("", None);
    ("00", None);
  ]

let dump_testable = Alcotest.(list (pair string (option string)))

(* ------------------------------------------------------------------ *)
(* Golden structure: the arena linearizes the same canonical trie the
   pointer builders produce, so the paper's worked examples must dump
   byte-for-byte identically. *)

let test_figure2_flat () =
  let wt = Flat_wt.of_list fig2_seq in
  Alcotest.check dump_testable "figure 2 structure" fig2_dump (Flat_wt.dump wt);
  Flat_wt.check_invariants wt;
  (* the paper's worked point queries on that trie *)
  check_int "length" 7 (Flat_wt.length wt);
  check_int "distinct" 4 (Flat_wt.distinct_count wt);
  check_bool "access 3" true (Bitstring.equal (bs "00100") (Flat_wt.access wt 3));
  check_int "rank 0100 @7" 3 (Flat_wt.rank wt (bs "0100") 7);
  check_bool "select 00100 #1" true (Flat_wt.select wt (bs "00100") 1 = Some 5);
  check_bool "select absent" true (Flat_wt.select wt (bs "1111") 0 = None)

(* Figure 3's post-insert sequence (0110 inserted at position 3), built
   statically: the structure is canonical in the sequence, so the flat
   build must match the dump the dynamic split produces. *)
let test_figure3_flat () =
  let seq =
    List.map bs
      [ "0001"; "0011"; "0100"; "0110"; "00100"; "0100"; "00100"; "0100" ]
  in
  let expected =
    [
      ("0", Some "00110101");
      ("", Some "0111");
      ("1", None);
      ("", Some "100");
      ("0", None);
      ("", None);
      ("", Some "0100");
      ("0", None);
      ("0", None);
    ]
  in
  let wt = Flat_wt.of_list seq in
  Alcotest.check dump_testable "figure 3 structure" expected (Flat_wt.dump wt);
  Flat_wt.check_invariants wt;
  check_bool "select 0110 #0" true (Flat_wt.select wt (bs "0110") 0 = Some 3)

(* ------------------------------------------------------------------ *)
(* Equivalence: the flat arena, freshly built, copy-opened and
   mmap-opened, answers the whole QUERY_API as the oracle (oracle.ml)
   does, as the pointer trie does there. *)

let words =
  [|
    "a"; "ab"; "abc"; "b"; "ba"; "bb"; "c"; "ca"; "site.com/home";
    "site.com/login"; "blog.net/post"; "";
  |]

let make_seq rng n = Array.init n (fun _ -> words.(Xoshiro.int rng (Array.length words)))

module Static_check = Oracle.Check (Wtrie.Static)

(* The whole surface, then every position, every occurrence and every
   quantile of one window, so a decode bug at one block boundary cannot
   hide between sampled ops. *)
let check ~ctx t m =
  Static_check.run ~ctx t m;
  Static_check.exhaustive ~ctx t m

let test_equivalence () =
  let rng = Xoshiro.create 7 in
  List.iter
    (fun n ->
      let arr = make_seq rng n in
      let m = Oracle.model arr in
      let fwt = Wtrie.Static.of_array arr in
      check ~ctx:"fresh" fwt m;
      Wt_core.Flat_wt.check_invariants fwt;
      Oracle.with_saved fwt (fun path ->
          let copy = Wtrie.Static.open_file_exn ~mode:`Copy path in
          check ~ctx:"copy" copy m;
          let mmap = Wtrie.Static.open_file_exn ~mode:`Mmap path in
          check ~ctx:"mmap" mmap m;
          Wtrie.Static.close copy;
          Wtrie.Static.close mmap))
    [ 0; 1; 2; 13; 64; 257 ]

(* Past the single-block fast paths: a root β longer than one RRR
   superblock (992 bits, so the blob carries its directory) and more
   nodes than one topology record / node-offset block (32). *)
let test_multi_block () =
  let rng = Xoshiro.create 31 in
  let distinct = Array.init 40 (fun i -> Printf.sprintf "host%02d.example/p%d" i (i * 7)) in
  let arr = Array.init 2500 (fun _ -> distinct.(Xoshiro.int rng (Array.length distinct))) in
  let m = Oracle.model arr in
  let fwt = Wtrie.Static.of_array arr in
  check_bool "more nodes than one directory block" true (fwt.Flat_wt.node_count > 64);
  Flat_wt.check_invariants fwt;
  check ~ctx:"multi-block fresh" fwt m;
  Oracle.with_saved fwt (fun path ->
      List.iter
        (fun mode ->
          let t = Wtrie.Static.open_file_exn ~mode path in
          check ~ctx:"multi-block reopened" t m;
          Wtrie.Static.close t)
        [ `Copy; `Mmap ])

(* The node directory stays within 32 bits per node: the whole arena
   is its labels, its β blobs, 32 bits per node and the header — with β
   measured as the blobs themselves, which carry no length, popcount or
   (for one superblock) directory.  [fixed] covers what even a one-node
   arena has: a topology record, a node-offset block header, and the
   byte padding of two sections. *)
let test_space_bound () =
  let rng = Xoshiro.create 5 in
  List.iter
    (fun n ->
      let urls = Wt_workload.Urls.raw_sequence (Wt_workload.Urls.create ~seed:n ()) n in
      let arr = Array.init n (fun i -> if i mod 3 = 0 then urls.(i) else (make_seq rng 1).(0)) in
      let fwt = Wtrie.Static.of_array arr in
      let st = Flat_wt.stats fwt in
      let fixed = 64 + 62 + 16 in
      let bound =
        st.label_bits + st.bv_bits + (32 * fwt.Flat_wt.node_count) + (8 * fwt.Flat_wt.header)
        + fixed
      in
      if st.total_bits > bound then
        Alcotest.failf "n=%d: arena %d bits > labels %d + β %d + 32 x %d nodes + header" n
          st.total_bits st.label_bits st.bv_bits fwt.Flat_wt.node_count;
      check_int "gauges split the arena" st.total_bits
        (Flat_wt.label_bits fwt + Flat_wt.bv_bits fwt + Flat_wt.directory_bits fwt))
    [ 1; 13; 300; 4000 ]

(* An index written by the first arena layout (version 1: a 64-byte
   header and 32-byte node records) or by a later one (version 10) fails
   closed, naming its version, whichever way it is opened. *)
let test_arena_version_rejected version () =
  let header = Buffer.create 64 in
  Buffer.add_string header "WTF3";
  Buffer.add_int32_le header (Int32.of_int version);
  List.iter (fun v -> Buffer.add_int64_le header (Int64.of_int v)) [ 1; 1; 64; 96; 0; 97; 0 ];
  let payload = Buffer.contents header ^ String.make 33 '\000' in
  let path = Filename.temp_file "wt_flat_version" ".wtx" in
  let name = Printf.sprintf "version %d" version in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Container.write_v3 ~tag:Flat_wt.tag ~payload path;
      List.iter
        (fun mode ->
          match Wtrie.Static.open_file ~mode path with
          | Error (Wtrie.Storage_error { reason; _ }) ->
              let has sub =
                let n = String.length reason and m = String.length sub in
                let rec go i = i + m <= n && (String.sub reason i m = sub || go (i + 1)) in
                go 0
              in
              check_bool ("names " ^ name ^ ": " ^ reason) true (has name)
          | Error e -> Alcotest.failf "expected Storage_error, got %a" Wtrie.pp_error e
          | Ok _ -> Alcotest.failf "opened an arena of %s" name)
        [ `Copy; `Mmap ])

(* Two-string sequences, whose root β is one 2-bit block: 2 class
   bits and a 1-bit offset.  The byte strings "" and "\x00" open like
   any other; the bitstrings 0 and 1 have empty labels, so their whole
   content stream is those 3 bits, under the 6 class bits a 62-bit
   block would need, and the open-time length bound must still admit
   it. *)
let test_two_string_root () =
  let arr = [| ""; "\x00" |] in
  Oracle.with_saved (Wtrie.Static.of_array arr) (fun path ->
      List.iter
        (fun mode ->
          let t = Wtrie.Static.open_file_exn ~mode path in
          check ~ctx:"\"\" and \"\\x00\"" t (Oracle.model arr);
          Wtrie.Static.close t)
        [ `Copy; `Mmap ]);
  let bits = [| bs "1"; bs "0" |] in
  let fwt = Flat_wt.of_array bits in
  check_int "3-bit content stream" 3 fwt.Flat_wt.content_bits;
  Oracle.with_saved fwt (fun path ->
      List.iter
        (fun mode ->
          let t = Flat_wt.open_file ~mode path in
          Alcotest.(check (list string)) "bitstrings 0 and 1" [ "1"; "0" ]
            (List.map Bitstring.to_string (Array.to_list (Flat_wt.to_array t)));
          check_bool "rank 1" true (Flat_wt.rank t (bs "1") 2 = 1);
          check_bool "select 0" true (Flat_wt.select t (bs "0") 0 = Some 1);
          Flat_wt.close t)
        [ `Copy; `Mmap ])

(* ------------------------------------------------------------------ *)
(* v2 -> v3 migration: a copy of the legacy pointer-trie container
   (fixtures/legacy/static.wt) loads as a flattened arena and converts;
   the converted file is a v3 arena answering the same queries.
   test_oracle runs every legacy variant the same way. *)

let test_v2_migration () =
  let m = Oracle.model (Array.init Oracle.legacy_n Oracle.legacy_s) in
  let v3 = Filename.temp_file "wt_flat_v3" ".wtx" in
  Fun.protect ~finally:(fun () -> Sys.remove v3) @@ fun () ->
  Oracle.with_legacy "static" @@ fun v2 ->
  check_bool "v2 file is not v3" true (Container.version_of_file v2 <> Some Container.version_v3);
  (* load_index flattens the v2 pointer payload on load *)
  let fwt = Wtrie.Storage.load_index v2 in
  Flat_wt.check_invariants fwt;
  check ~ctx:"v2-load" fwt m;
  let variant, n = Wtrie.Storage.convert v2 v3 in
  Alcotest.(check string) "source variant" "static" variant;
  check_int "converted length" Oracle.legacy_n n;
  check_bool "converted file is v3" true
    (Container.version_of_file v3 = Some Container.version_v3);
  let fwt = Wtrie.Static.open_file_exn v3 in
  check ~ctx:"converted" fwt m;
  Wtrie.Static.close fwt

(* ------------------------------------------------------------------ *)
(* Versions 2 to 8.  [fixtures/v2] holds a static index and a tiered
   store written by [wtrie] at commit 96ba348, the last to write arena
   version 2 (each β blob's last block coded over 62 bits),
   [fixtures/v3] the same from the same input at commit 42bd660, the
   last to write version 3 (topology records and block-sampled node
   offsets), [fixtures/v4] the same at commit b005126, the last to
   write version 4 (every β blob RRR, 6 bits per class),
   [fixtures/v5] the same at commit b95bfd4, the last to write version
   5 (every label whole, a 56-byte header), [fixtures/v6] the same at
   commit 66b5a9c, the last to write version 6 (each leaf byte as its
   eight data bits, no byte set in the header), [fixtures/v7] the
   same at commit fa60dbe, the last to write version 7 (internal labels
   whole), and [fixtures/v8] the same at commit bc4ff9f, the last to
   write version 8 (every whole label byte as its rank in B, in a
   fixed width):

     wtrie index input.txt index.wt
     head -64 input.txt > part1.txt
     sed -n 65,104p input.txt > part2.txt
     wtrie ingest store.d part1.txt --compact-strings 64
     wtrie ingest store.d part2.txt --compact-strings 32

   The store holds the first 104 lines: a run of 64, a run of 32 and 8
   strings in its WAL.  All open through the one blob decoder and their
   own directory reader and the one label decoder; a compaction that
   absorbs the store's runs writes them at version 9, and the structural
   merge of the old runs with a version-9 arena and an append-only trie
   writes exactly the bytes of the static build.  The version-6, 7 and
   8 indexes are also what [v6_arena], [v7_arena] and [v8_arena] make
   of their input. *)

let arena_version payload = Int32.to_int (String.get_int32_le payload 4)

(* The version-7 or version-8 arena of byte strings, in B's
   fixed-width code or another set's. *)
let old_arena ~version ?bytes strings =
  let keys, seq =
    Flat_wt.sorted_keys ~hash:Flat_wt.hash_string ~equal:String.equal ~compare:String.compare
      strings
  in
  let bytes = Option.value bytes ~default:(Binarize.byte_set strings) in
  Flat_wt.arena_of_keys ~keys:Bytes ~bytes ~version (Array.map Wt_core.String_api.encode keys) seq

let v7_arena ?bytes strings = old_arena ~version:7 ?bytes strings
let v8_arena strings = old_arena ~version:8 strings

(* The version-6 arena of byte strings: version 7's writer with all 256
   bytes in B codes each leaf byte as its eight data bits, version 6's
   leaf; the header then loses B and names version 6. *)
let v6_arena strings =
  let v7 = v7_arena ~bytes:Binarize.full_set strings in
  let body = String.sub v7 Flat_wt.header_len (String.length v7 - Flat_wt.header_len) in
  let header = Bytes.of_string (String.sub v7 0 64) in
  Bytes.set_int32_le header 4 6l;
  Bytes.set_int64_le header 48 (Int64.of_int (64 + String.length body));
  Bytes.to_string header ^ body

let run_versions dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"run-" f)
  |> List.map (fun f ->
         arena_version (Container.read_v3 ~expect_tag:Flat_wt.tag (Filename.concat dir f)))

let test_fixtures version () =
  let fixture name = Printf.sprintf "fixtures/v%d/%s" version name in
  let lines =
    In_channel.with_open_bin (fixture "input.txt") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> Array.of_list
  in
  check_int "input lines" 150 (Array.length lines);
  (* test_oracle checks the index's answers *)
  let index = Container.read_v3 ~expect_tag:Flat_wt.tag (fixture "index.wt") in
  check_int "index version" version (arena_version index);
  if version = 6 then check_bool "v6_arena writes version 6" true (v6_arena lines = index);
  if version = 7 then check_bool "v7_arena writes version 7" true (v7_arena lines = index);
  if version = 8 then check_bool "v8_arena writes version 8" true (v8_arena lines = index);
  (* the store, on a copy: every string, then ingest the rest of the
     input and compact; the new run absorbs both old runs *)
  let dir = Oracle.copy_dir (fixture "store.d") (Printf.sprintf "flat_v%d_store" version) in
  Alcotest.(check (list int)) "two old runs" [ version; version ] (run_versions dir);
  let module T = Wtrie.Tiered in
  let module C = Oracle.Check (T) in
  let check_store ctx t n =
    let m = Oracle.model (Array.sub lines 0 n) in
    C.run ~ctx t m;
    C.point ~ctx t m (Oracle.Gen.every m)
  in
  let merged =
    let run f = Flat_wt.Arena (Flat_wt.open_file ~mode:`Copy (Filename.concat dir f)) in
    let delta = Append_wt.create () in
    Array.iter
      (fun s -> Append_wt.append delta (Wt_core.String_api.encode s))
      (Array.sub lines 120 30);
    Flat_wt.merge ~keys:Bytes
      [|
        run "run-000000.wtx";
        run "run-000001.wtx";
        Flat_wt.Arena (Wtrie.Static.of_array (Array.sub lines 96 24));
        Flat_wt.Trie ((module Append_wt.Node), delta);
      |]
  in
  Flat_wt.check_invariants merged;
  let bytes (t : Flat_wt.t) = Wt_bits.Membuf.to_string t.Flat_wt.mb in
  check_bool "merged old runs = static build" true
    (bytes merged = bytes (Wtrie.Static.of_array lines));
  let t, r = T.open_ ~threshold:max_int dir in
  check_int "WAL records replayed" 8 r.T.r_replayed;
  check_store (Printf.sprintf "v%d store" version) t 104;
  Array.iter (T.ingest t) (Array.sub lines 104 46);
  T.flush t;
  T.compact t;
  check_int "one run" 1 (T.run_count t);
  check_store "compacted" t 150;
  T.close t;
  Alcotest.(check (list int))
    (Printf.sprintf "runs rewritten at version %d" Flat_wt.arena_version)
    [ Flat_wt.arena_version ] (run_versions dir);
  let t, _ = T.open_ dir in
  check_store "reopened" t 150;
  T.close t

(* Corrupt version-3 β blobs under [`Mmap], which skips the payload
   checksum: a bit flipped anywhere in the content stream of an arena
   with one-block βs of every kind of tail and a root β long enough
   for a superblock directory either fails the open or leaves every
   query answering or raising [Invalid_argument] — never a crash and
   never another exception. *)
let test_v3_blob_corruption () =
  let rng = Xoshiro.create 77 in
  let distinct = Array.init 24 (fun i -> Printf.sprintf "h%d.ex/%s" (i mod 5) (String.make i 'q')) in
  let arr = Array.init 1100 (fun i -> distinct.((i * 7 + Xoshiro.int rng 3) mod 24)) in
  let fwt = Wtrie.Static.of_array arr in
  let keys = Array.map Wt_core.String_api.encode distinct in
  Oracle.with_saved fwt (fun path ->
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let rec find i = if String.sub pristine i 4 = "WTF3" then i else find (i + 1) in
      let payload = find 0 in
      let first = payload + (fwt.Flat_wt.content_bit / 8) in
      let last = first + ((fwt.Flat_wt.content_bits + 7) / 8) in
      let bounded what f =
        match f () with
        | _ -> ()
        | exception Invalid_argument _ -> ()
        | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e)
      in
      for bit = 8 * first to (8 * last) - 1 do
        let b = Bytes.of_string pristine in
        let byte = bit / 8 in
        Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
        match Flat_wt.open_file ~mode:`Mmap path with
        | exception Container.Format_error _ -> ()
        | exception e -> Alcotest.failf "flip %d: open raised %s" bit (Printexc.to_string e)
        | t ->
            let what = Printf.sprintf "flip %d" bit in
            let n = Flat_wt.length t in
            let pos = ref 0 in
            while !pos < n do
              bounded what (fun () -> ignore (Flat_wt.access t !pos));
              pos := !pos + 37
            done;
            Array.iter
              (fun k ->
                bounded what (fun () -> ignore (Flat_wt.rank t k (n / 2)));
                bounded what (fun () -> ignore (Flat_wt.select t k 3)))
              keys;
            bounded what (fun () ->
                ignore (Wt_exec.Exec.Static.query_batch t [| Wtrie.Access { pos = 5 }; Wtrie.Rank { s = distinct.(3); pos = n } |]));
            bounded what (fun () -> ignore (Wtrie.Static.range_distinct t));
            Flat_wt.close t
      done)

(* Corrupt version-5 β blobs, each field the code adds: a flipped code
   tag on a class-range RRR blob and on a plain one, a class width above
   6, a class base that puts classes above 62, and a plain rank sample
   that falls or rises by more than 512.  The arena still opens (the
   header is intact), every query answers or raises [Invalid_argument],
   and the deep check [wtrie verify] runs fails with [Failure], which
   verify reports as corrupt (exit 2). *)
let test_v5_blob_fields () =
  let distinct = Array.init 64 (fun i -> Printf.sprintf "k%02d.example" i) in
  let arr = Array.init 3000 (fun i -> distinct.(if i mod 4 = 0 then i * 7 mod 64 else i mod 8)) in
  let fwt = Wtrie.Static.of_array arr in
  let module N = Flat_wt.Node in
  (* the longest β blob in each code *)
  let longest = Array.make 2 None in
  let rec go node =
    if not (N.is_leaf node) then begin
      let i = match Wt_bitvector.Rrr.code (N.bv_of node) with Rrr -> 0 | Plain -> 1 in
      (match longest.(i) with
      | Some n when N.count n >= N.count node -> ()
      | _ -> longest.(i) <- Some node);
      go (N.child node false);
      go (N.child node true)
    end
  in
  go (Option.get (N.root fwt));
  let rrr = Option.get longest.(0) and plain = Option.get longest.(1) in
  check_bool "a multi-superblock class-range RRR blob" true (N.count rrr > 992);
  check_bool "a plain blob with three samples" true (N.count plain > 1024);
  let pristine = Wt_bits.Membuf.to_string fwt.Flat_wt.mb in
  let start node = fwt.Flat_wt.content_bit + node.N.lo in
  let get b pos width =
    let v = ref 0 in
    for i = width - 1 downto 0 do
      v := (!v lsl 1) lor ((Char.code (Bytes.get b ((pos + i) / 8)) lsr ((pos + i) mod 8)) land 1)
    done;
    !v
  in
  let set b pos width v =
    for i = 0 to width - 1 do
      let byte = (pos + i) / 8 and bit = 1 lsl ((pos + i) mod 8) in
      let c = Char.code (Bytes.get b byte) in
      Bytes.set b byte (Char.chr (if (v lsr i) land 1 = 1 then c lor bit else c land lnot bit))
    done
  in
  let case what corrupt =
    let b = Bytes.of_string pristine in
    corrupt b;
    let t = Flat_wt.of_membuf (Wt_bits.Membuf.of_string (Bytes.to_string b)) in
    let bounded f =
      match f () with
      | _ -> ()
      | exception Invalid_argument _ -> ()
      | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e)
    in
    for pos = 0 to 2999 do
      if pos mod 7 = 0 then bounded (fun () -> Flat_wt.access t pos)
    done;
    Array.iter
      (fun s ->
        let k = Wt_core.String_api.encode s in
        bounded (fun () -> Flat_wt.rank t k 1500);
        bounded (fun () -> Flat_wt.select t k 20))
      distinct;
    bounded (fun () -> Wt_exec.Exec.Static.query_batch t [| Wtrie.Access { pos = 2500 } |]);
    match Flat_wt.check_invariants t with
    | () -> Alcotest.failf "%s: the deep check passed" what
    | exception Failure _ -> ()
  in
  let flip node b = set b (start node) 1 (1 - get b (start node) 1) in
  case "flipped tag, class-range RRR" (flip rrr);
  case "flipped tag, plain" (flip plain);
  case "class width 7" (fun b -> set b (start rrr + 7) 3 7);
  case "class base 62" (fun b -> set b (start rrr + 1) 6 62);
  let w = Wt_bits.Broadword.bit_width (N.count plain) in
  let sample1 b = get b (start plain + 1) w in
  case "plain sample falls" (fun b -> set b (start plain + 1 + w) w (sample1 b - 1));
  case "plain sample rises by 513" (fun b -> set b (start plain + 1 + w) w (sample1 b + 513))

(* ------------------------------------------------------------------ *)
(* Closed handles: after [close], every result-returning operation
   reports [Trie_closed] — deterministically, never a crash — and
   [close] is idempotent. *)

let test_close () =
  let arr = [| "a"; "b"; "a"; "c" |] in
  let built = Wtrie.Static.of_array arr in
  Oracle.with_saved built (fun path ->
      let wt = Wtrie.Static.open_file_exn path in
      check_int "open answers" 4 (Wtrie.Static.length wt);
      Wtrie.Static.close wt;
      check_bool "is_closed" true (Wtrie.Static.is_closed wt);
      let closed = Alcotest.testable Wtrie.pp_error ( = ) in
      let expect_closed name r =
        match r with
        | Error Wtrie.Trie_closed -> ()
        | Error e -> Alcotest.check closed name Wtrie.Trie_closed e
        | Ok _ -> Alcotest.fail (name ^ ": succeeded on a closed handle")
      in
      expect_closed "access" (Wtrie.Static.access wt ~pos:0);
      expect_closed "rank" (Wtrie.Static.rank wt "a" ~pos:2);
      expect_closed "select" (Wtrie.Static.select wt "a" ~count:0);
      expect_closed "rank_prefix" (Wtrie.Static.rank_prefix wt ~prefix:"a" ~pos:2);
      expect_closed "select_prefix" (Wtrie.Static.select_prefix wt ~prefix:"a" ~count:0);
      expect_closed "select_all" (Wtrie.Static.select_all wt);
      expect_closed "range_count" (Wtrie.Static.range_count wt ~lo:0 ~hi:1);
      expect_closed "range_distinct" (Wtrie.Static.range_distinct wt);
      expect_closed "range_topk" (Wtrie.Static.range_topk wt ~k:1);
      expect_closed "range_majority" (Wtrie.Static.range_majority wt);
      expect_closed "range_at_least" (Wtrie.Static.range_at_least wt ~threshold:1);
      expect_closed "range_quantile" (Wtrie.Static.range_quantile wt ~k:0);
      expect_closed "save_file" (Wtrie.Static.save_file wt path);
      Array.iter (expect_closed "batch")
        (Wtrie.Static.query_batch wt [| Access { pos = 0 }; Rank { s = "a"; pos = 1 } |]);
      (* idempotent, and the handle stays deterministically closed *)
      Wtrie.Static.close wt;
      expect_closed "access after re-close" (Wtrie.Static.access wt ~pos:0);
      (* the in-memory arena it was saved from is unaffected *)
      check_int "original still answers" 4 (Wtrie.Static.length built))

(* ------------------------------------------------------------------ *)
(* Storage errors surface through the shared error type, not
   exceptions. *)

let test_storage_errors () =
  (match Wtrie.Static.open_file "no-such-file.wtx" with
  | Error (Wtrie.Storage_error _) -> ()
  | Error e -> Alcotest.failf "expected Storage_error, got %a" Wtrie.pp_error e
  | Ok _ -> Alcotest.fail "opened a missing file");
  let path = Filename.temp_file "wt_flat_bad" ".wtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "this is not a container";
      close_out oc;
      List.iter
        (fun mode ->
          match Wtrie.Static.open_file ~mode path with
          | Error (Wtrie.Storage_error _) -> ()
          | Error e -> Alcotest.failf "expected Storage_error, got %a" Wtrie.pp_error e
          | Ok _ -> Alcotest.fail "opened garbage")
        [ `Copy; `Mmap ])

(* ------------------------------------------------------------------ *)
(* The direct builder: every front door writes the arena the pointer
   trie describes, byte for byte. *)

let arena (t : Flat_wt.t) = Wt_bits.Membuf.to_string t.Flat_wt.mb

(* Representation-independent terms of Stats: β and total bits differ
   between the pointer trie and the arena by design. *)
let bound_terms (s : Wt_core.Stats.t) =
  (s.n, s.distinct, s.avg_height, s.seq_h0_bits, s.trie_lb_bits, s.label_bits)

(* The node-view builder is fed the same strings four ways: the
   pointer trie, an append-only trie grown one string at a time and in
   bulk, and a dynamic trie.  The byte-string arena and the bitstring
   arena of the same encodings hold the same trie, one with packed
   labels, the other with whole ones, and each re-encodes as the other
   through the one-source merge; the byte-string arena also re-encodes
   as itself.  The byte-string arena's B is the
   bytes of the strings, its leaf and internal codes hold bytes of B
   only, and a merge of a version-6 arena of the first quarter of the
   sequence, a version-7 arena of the second, a version-8 arena of the
   third and an append-only trie of the rest writes it too. *)
let prop_direct_build a =
  let enc = Array.map Wt_core.String_api.encode a in
  let pwt = Wavelet_trie.of_array enc in
  let direct = Wtrie.Static.of_array a in
  let bits = Flat_wt.of_array enc in
  let appended = Append_wt.create () in
  Array.iter (Append_wt.append appended) enc;
  Flat_wt.check_invariants direct;
  Flat_wt.check_invariants bits;
  let logical = { (Flat_wt.stats direct) with label_bits = Flat_wt.logical_label_bits direct } in
  let bytes = Binarize.byte_set a in
  let size = List.length (List.filter (Binarize.mem bytes) (List.init 256 Fun.id)) in
  let layout = Flat_wt.layout direct in
  let n = Array.length a in
  let quarter i = Array.sub a (i * (n / 4)) (if i = 3 then n - (3 * (n / 4)) else n / 4) in
  let delta = Append_wt.create () in
  Array.iter (Append_wt.append delta) (Array.map Wt_core.String_api.encode (quarter 3));
  let of_arena s = Flat_wt.of_membuf (Wt_bits.Membuf.of_string s) in
  let v6 = of_arena (v6_arena (quarter 0)) and v7 = of_arena (v7_arena (quarter 1)) in
  let v8 = of_arena (v8_arena (quarter 2)) in
  Flat_wt.check_invariants v6;
  Flat_wt.check_invariants v7;
  Flat_wt.check_invariants v8;
  let within = function
    | None -> size = 0
    | Some c ->
        List.for_all
          (fun b -> Binarize.code_length c b = 0 || Binarize.mem bytes b)
          (List.init 256 Fun.id)
  in
  layout.byte_set_size = size
  && within direct.Flat_wt.code
  && within direct.Flat_wt.icode
  && (layout.leaf_code <> None) = (size > 0)
  && Flat_wt.dump direct = Wavelet_trie.dump pwt
  && Flat_wt.dump bits = Wavelet_trie.dump pwt
  && bound_terms logical = bound_terms (Wavelet_trie.stats pwt)
  && bound_terms (Flat_wt.stats bits) = bound_terms (Wavelet_trie.stats pwt)
  && Flat_wt.label_bits direct <= Flat_wt.label_bits bits
  && List.for_all
       (fun flat -> arena flat = arena direct)
       [
         Flat_wt.of_trie ~keys:Bytes (module Wavelet_trie.Node) pwt;
         Flat_wt.of_trie ~keys:Bytes (module Append_wt.Node) appended;
         Flat_wt.of_trie ~keys:Bytes (module Append_wt.Node) (Append_wt.of_array enc);
         Flat_wt.of_trie ~keys:Bytes (module Dynamic_wt.Node) (Dynamic_wt.of_array enc);
         Flat_wt.merge ~keys:Bytes [| Flat_wt.Arena bits |];
         Flat_wt.merge ~keys:Bytes [| Flat_wt.Arena direct |];
         Flat_wt.merge ~keys:Bytes
           [|
             Flat_wt.Arena v6;
             Flat_wt.Arena v7;
             Flat_wt.Arena v8;
             Flat_wt.Trie ((module Append_wt.Node), delta);
           |];
       ]
  && List.for_all
       (fun flat -> arena flat = arena bits)
       [
         Flat_wt.of_trie ~keys:Bits (module Wavelet_trie.Node) pwt;
         Flat_wt.merge ~keys:Bits [| Flat_wt.Arena direct |];
       ]

(* Byte strings built from atoms with NUL and 0xFF bytes and the empty
   string, so shared prefixes and proper prefixes are common; arrays of
   length 0 and 1, all-equal arrays and duplicate-heavy ones; strings of
   one byte only (|B| = 1, or 0 when all are empty), and arrays holding
   a string of all 256 bytes. *)
let byte_arrays =
  let open QCheck.Gen in
  let atom = oneofl [ ""; "\x00"; "\xff"; "a"; "ab"; "a\x00"; "a\xff"; "\xff\xff"; "b" ] in
  let str = map (String.concat "") (list_size (int_range 0 3) atom) in
  let raw = string_size ~gen:(oneofl [ '\x00'; '\xff'; 'a'; 'b' ]) (int_range 0 12) in
  let s = oneof [ str; raw ] in
  let one_byte = map (fun n -> String.make n 'x') (int_range 0 12) in
  let every_byte = String.init 256 Char.chr in
  oneof
    [
      array_size (int_range 0 1) s;
      map2 (fun x n -> Array.make n x) s (int_range 1 40);
      array_size (int_range 2 120) s;
      array_size (int_range 1 40) one_byte;
      map (fun a -> Array.append a [| every_byte |]) (array_size (int_range 0 40) s);
    ]

let qcheck_direct_build =
  let print a = String.concat "; " (Array.to_list (Array.map String.escaped a)) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"static build = pointer trie = bitstring = pointer input"
       ~count:300 (QCheck.make ~print byte_arrays) prop_direct_build)

(* The structural merge: arenas of consecutive slices of the input, then
   the last slice as an append-only or dynamic trie read through its
   node view, merge into the very arena the static front door builds
   from the whole input.  Tag 1 appends to every string its slice
   number, so no key occurs in two slices; tag 2 moves every byte of
   slice i into the i mod 4-th quarter of the bytes, so the first four
   slices' byte sets are disjoint.  Of every three arenas one is a
   version-7 one, its internal labels whole, and one a version-8 one,
   B's fixed-width code in every label. *)
let prop_merge (a, cuts, dynamic_tail, tag) =
  let n = Array.length a in
  let cuts = List.sort compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let bounds = Array.of_list ((0 :: cuts) @ [ n ]) in
  let slices = Array.length bounds - 1 in
  let slice_of i =
    let slice = ref 0 in
    while bounds.(!slice + 1) <= i do incr slice done;
    !slice
  in
  let a =
    match tag with
    | 1 -> Array.mapi (fun i s -> s ^ String.make 1 (Char.chr (slice_of i))) a
    | 2 ->
        Array.mapi
          (fun i s ->
            let q = 64 * (slice_of i mod 4) in
            String.map (fun c -> Char.chr (q + (Char.code c land 63))) s)
          a
    | _ -> a
  in
  let slice i = Array.sub a bounds.(i) (bounds.(i + 1) - bounds.(i)) in
  let tail = Array.map Wt_core.String_api.encode (slice (slices - 1)) in
  let tail =
    if dynamic_tail then Flat_wt.Trie ((module Dynamic_wt.Node), Dynamic_wt.of_array tail)
    else begin
      let t = Append_wt.create () in
      Array.iter (Append_wt.append t) tail;
      Flat_wt.Trie ((module Append_wt.Node), t)
    end
  in
  let arenas =
    Array.init (slices - 1) (fun i ->
        Flat_wt.Arena
          (match i mod 3 with
          | 1 -> Flat_wt.of_membuf (Wt_bits.Membuf.of_string (v7_arena (slice i)))
          | 2 -> Flat_wt.of_membuf (Wt_bits.Membuf.of_string (v8_arena (slice i)))
          | _ -> Wtrie.Static.of_array (slice i)))
  in
  let sources = Array.append arenas [| tail |] in
  let merged = Flat_wt.merge ~keys:Bytes sources in
  Flat_wt.check_invariants merged;
  arena merged = arena (Wtrie.Static.of_array a)

(* k = 1..5 arenas ahead of the tail, any of them empty. *)
let merge_cases =
  let open QCheck.Gen in
  quad byte_arrays (list_size (int_range 1 5) nat) bool (int_range 0 2)

let qcheck_merge =
  let print (a, cuts, dynamic_tail, tag) =
    Printf.sprintf "[%s] cuts [%s] %s tail%s"
      (String.concat "; " (Array.to_list (Array.map String.escaped a)))
      (String.concat "; " (List.map string_of_int cuts))
      (if dynamic_tail then "dynamic" else "append-only")
      (match tag with 1 -> ", slice-tagged" | 2 -> ", disjoint byte sets" | _ -> "")
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"merged slices = static build of the whole" ~count:300
       (QCheck.make ~print merge_cases) prop_merge)

(* Merged labels cut from packed ones.  [a]'s root label is
   "www.example.com/" and six bits of the next byte; [b]'s is "www." and
   three bits.  Merged, the root label is [b]'s, a prefix of [a]'s, and
   its zero child's runs from inside "e" to inside "m", where [b]'s leaf
   "www.exaq" turns away: a proper sub-range of [a]'s packed root label,
   cut mid-byte at both ends.  Each merge, of version-9, version-8 and
   version-7 arenas in both orders, of [a] with itself, and with an
   append-only tail, writes the static build's bytes. *)
let test_merge_cut_labels () =
  let a = [| "www.example.com/alpha"; "www.example.com/beta"; "www.example.com/alpha" |] in
  let b = [| "www.exaq"; "www.zzz" |] in
  let v9 strings = Flat_wt.Arena (Wtrie.Static.of_array strings) in
  let v8 strings = Flat_wt.Arena (Flat_wt.of_membuf (Wt_bits.Membuf.of_string (v8_arena strings))) in
  let v7 strings = Flat_wt.Arena (Flat_wt.of_membuf (Wt_bits.Membuf.of_string (v7_arena strings))) in
  let tail strings =
    let t = Append_wt.create () in
    Array.iter (fun s -> Append_wt.append t (Wt_core.String_api.encode s)) strings;
    Flat_wt.Trie ((module Append_wt.Node), t)
  in
  let bytes (t : Flat_wt.t) = Wt_bits.Membuf.to_string t.Flat_wt.mb in
  List.iter
    (fun (what, sources, strings) ->
      let merged = Flat_wt.merge ~keys:Bytes (Array.of_list sources) in
      Flat_wt.check_invariants merged;
      check_bool what true (bytes merged = bytes (Wtrie.Static.of_array (Array.concat strings))))
    [
      ("a, b", [ v9 a; v9 b ], [ a; b ]);
      ("b, a", [ v9 b; v9 a ], [ b; a ]);
      ("a at v7, b", [ v7 a; v9 b ], [ a; b ]);
      ("a, b at v7", [ v9 a; v7 b ], [ a; b ]);
      ("a at v8, b at v7", [ v8 a; v7 b ], [ a; b ]);
      ("a, b at v8", [ v9 a; v8 b ], [ a; b ]);
      ("a, a", [ v9 a; v9 a ], [ a; a ]);
      ("a, b, a's tail", [ v9 a; v9 b; tail a ], [ a; b; a ]);
    ]

(* Version-9 arenas at their byte codes' edges ([Oracle.code_edges]):
   |B| = 1, |B| = 256, and a dominant byte whose 1-bit internal
   codeword takes the end field to 4 bits.  Each passes the deep check,
   and the merge of arenas of its thirds (at versions 9, 8 and 7) and
   an append-only trie of the rest writes the static build's bytes. *)
let test_code_edges () =
  List.iter
    (fun (what, a) ->
      let t = Wtrie.Static.of_array a in
      Flat_wt.check_invariants t;
      let layout = Flat_wt.layout t in
      (match what with
      | "one byte" -> check_int "one byte: |B|" 1 layout.byte_set_size
      | "every byte" -> check_int "every byte: |B|" 256 layout.byte_set_size
      | _ ->
          let icode = Option.get t.Flat_wt.icode in
          check_int "dominant byte: shortest internal codeword" 1 (Binarize.shortest icode);
          check_int "dominant byte: end field" 4 t.Flat_wt.end_bits);
      let n = Array.length a in
      let part i = Array.sub a (i * n / 4) (((i + 1) * n / 4) - (i * n / 4)) in
      let source s = Flat_wt.Arena (Flat_wt.of_membuf (Wt_bits.Membuf.of_string s)) in
      let delta = Append_wt.create () in
      Array.iter (fun s -> Append_wt.append delta (Wt_core.String_api.encode s)) (part 3);
      let merged =
        Flat_wt.merge ~keys:Bytes
          [|
            Flat_wt.Arena (Wtrie.Static.of_array (part 0));
            source (v8_arena (part 1));
            source (v7_arena (part 2));
            Flat_wt.Trie ((module Append_wt.Node), delta);
          |]
      in
      Flat_wt.check_invariants merged;
      check_bool (what ^ ": merged = static build") true (arena merged = arena t))
    Oracle.code_edges

(* The writer takes a packed label in pieces that end at a depth
   = 0 (mod 9) or at the label's end: after a piece that stops inside a
   byte, the next is refused, in a leaf's label and an internal one's. *)
let test_label_pieces () =
  let enc = Binarize.of_bytes "ab" in
  let set = Binarize.byte_set [| "ab" |] in
  let code = Some (Binarize.fixed_code set) in
  List.iter
    (fun internal ->
      let w = Flat_wt.writer ~set ~code ~icode:code ~n:2 ~nodes:1 () in
      Flat_wt.start_node w ~internal ~depth:0;
      Flat_wt.add_label w 9 (Bitstring.get_bits enc 0 9);
      Flat_wt.add_label w 5 (Bitstring.get_bits enc 9 5);
      match Flat_wt.add_label w 4 (Bitstring.get_bits enc 14 4) with
      | () -> Alcotest.fail "a piece starting inside a byte was taken"
      | exception Invalid_argument m ->
          Alcotest.(check string) "refused" "Flat_wt: a label piece starts inside a byte" m)
    [ false; true ]

(* [Node.label_lcp] compares a label in place as [Bitstring.lcp_from]
   compares the decoded one, at every node of version-9, version-8,
   version-7 and bitstring arenas: against the label and a bit more, each prefix of
   it, and it with each bit flipped, from the node's depth. *)
let test_label_lcp () =
  let rng = Xoshiro.create 47 in
  let strings =
    Array.init 60 (fun _ ->
        Printf.sprintf "k%d/%c" (Xoshiro.int rng 1000) (Char.chr (97 + Xoshiro.int rng 5)))
  in
  (* of one length, so prefix-free *)
  let bits =
    List.init 40 (fun _ -> String.init 70 (fun _ -> if Xoshiro.int rng 2 = 0 then '0' else '1'))
    |> List.sort_uniq compare |> List.map Bitstring.of_string |> Array.of_list
  in
  List.iter
    (fun (what, t) ->
      let rec visit node depth =
        let label = Flat_wt.Node.label node in
        let len = Bitstring.length label in
        let check k s =
          check_int
            (Printf.sprintf "%s: depth %d, %d label bits, query %d" what depth len k)
            (Bitstring.lcp_from label s depth) (Flat_wt.Node.label_lcp node s depth)
        in
        let above = Bitstring.of_string (String.make depth '1') in
        let bit b = Bitstring.of_bool_list [ b ] in
        check (-1) (Bitstring.concat [ above; label; bit false ]);
        for k = 0 to len - 1 do
          check k (Bitstring.concat [ above; Bitstring.sub label 0 k ]);
          check k
            (Bitstring.concat
               [
                 above;
                 Bitstring.sub label 0 k;
                 bit (not (Bitstring.get label k));
                 Bitstring.drop label (k + 1);
               ])
        done;
        if not (Flat_wt.Node.is_leaf node) then begin
          visit (Flat_wt.Node.child node false) (depth + len + 1);
          visit (Flat_wt.Node.child node true) (depth + len + 1)
        end
      in
      Option.iter (fun root -> visit root 0) (Flat_wt.Node.root t))
    [
      ("version 9", Wtrie.Static.of_array strings);
      ("version 8", Flat_wt.of_membuf (Wt_bits.Membuf.of_string (v8_arena strings)));
      ("version 7", Flat_wt.of_membuf (Wt_bits.Membuf.of_string (v7_arena strings)));
      ("bitstrings", Flat_wt.of_array bits);
    ]

(* The bitstring front door checks prefix-freeness on adjacent sorted
   keys, as the pointer builder does; the merge, on the keys of
   different sources. *)
let test_not_prefix_free () =
  List.iter
    (fun strings ->
      let arr = Array.of_list (List.map bs strings) in
      let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
      check_bool "pointer rejects" true (raises (fun () -> ignore (Wavelet_trie.of_array arr)));
      check_bool "flat rejects" true (raises (fun () -> ignore (Flat_wt.of_array arr)));
      let keys = List.sort_uniq Bitstring.compare (Array.to_list arr) in
      let one_key_arenas = List.map (fun s -> Flat_wt.Arena (Flat_wt.of_array [| s |])) keys in
      check_bool "merge rejects" true
        (raises (fun () -> ignore (Flat_wt.merge ~keys:Bits (Array.of_list one_key_arenas)))))
    [ [ "01"; "011" ]; [ "1"; "0"; "0"; "01" ]; [ ""; "1" ]; [ "0"; "10"; "11"; "110" ] ]

let () =
  Alcotest.run "wt_flat"
    [
      ( "golden",
        [
          Alcotest.test_case "figure 2 on the arena" `Quick test_figure2_flat;
          Alcotest.test_case "figure 3 sequence on the arena" `Quick test_figure3_flat;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "pointer = flat = copy = mmap" `Quick test_equivalence;
          Alcotest.test_case "multi-superblock β, multi-block directory" `Quick
            test_multi_block;
        ] );
      ( "build",
        [
          qcheck_direct_build;
          qcheck_merge;
          Alcotest.test_case "bitstring input not prefix-free" `Quick test_not_prefix_free;
          Alcotest.test_case "merged labels cut from packed ones" `Quick test_merge_cut_labels;
          Alcotest.test_case "merged = static build at the codes' edges" `Quick test_code_edges;
          Alcotest.test_case "label pieces end at a byte" `Quick test_label_pieces;
          Alcotest.test_case "labels compared in place" `Quick test_label_lcp;
        ] );
      ( "space",
        [
          Alcotest.test_case "directory within 32 bits per node" `Quick test_space_bound;
          Alcotest.test_case "two strings, 2-bit root" `Quick test_two_string_root;
        ] );
      ( "storage",
        [
          Alcotest.test_case "v2 load + convert to v3" `Quick test_v2_migration;
          Alcotest.test_case "errors are data" `Quick test_storage_errors;
          Alcotest.test_case "arena v1 fails closed" `Quick (test_arena_version_rejected 1);
          Alcotest.test_case "arena v10 fails closed" `Quick (test_arena_version_rejected 10);
          Alcotest.test_case "version-2 index and store" `Quick (test_fixtures 2);
          Alcotest.test_case "version-3 index and store" `Quick (test_fixtures 3);
          Alcotest.test_case "version-4 index and store" `Quick (test_fixtures 4);
          Alcotest.test_case "version-5 index and store" `Quick (test_fixtures 5);
          Alcotest.test_case "version-6 index and store" `Quick (test_fixtures 6);
          Alcotest.test_case "version-7 index and store" `Quick (test_fixtures 7);
          Alcotest.test_case "version-8 index and store" `Quick (test_fixtures 8);
          Alcotest.test_case "corrupt v3 β blobs stay bounded" `Quick test_v3_blob_corruption;
          Alcotest.test_case "corrupt v5 β fields fail verify" `Quick test_v5_blob_fields;
        ] );
      ("close", [ Alcotest.test_case "deterministic after close" `Quick test_close ]);
    ]
