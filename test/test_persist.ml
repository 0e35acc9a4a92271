(* Tests for the read-only format-v2 loaders (Persist) on copies of the
   legacy fixtures (fixtures/legacy/README.md): each variant reads back
   the sequence it was written from, header validation, post-load
   mutability, corruption and truncation. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Wavelet_trie = Wt_core.Wavelet_trie
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
module Persist = Wt_core.Persist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("wt_persist_" ^ name)
let legacy_seq = Array.init Oracle.legacy_n (fun i -> Binarize.of_bytes (Oracle.legacy_s i))

(* The static fixture is the pointer trie of its sequence: the same
   canonical structure today's builder produces, and the same strings. *)
let test_static_roundtrip () =
  Oracle.with_legacy "static" (fun path ->
      check_bool "recognized" true (Persist.is_index_file path);
      let wt = Persist.load_static path in
      check_int "length" Oracle.legacy_n (Wavelet_trie.length wt);
      Alcotest.(check (list (pair string (option string))))
        "structure"
        (Wavelet_trie.dump (Wavelet_trie.of_array legacy_seq))
        (Wavelet_trie.dump wt);
      Array.iteri
        (fun i s -> check_bool "content" true (Bitstring.equal s (Wavelet_trie.access wt i)))
        legacy_seq)

let test_append_roundtrip_and_growth () =
  Oracle.with_legacy "append" (fun path ->
      let wt = Persist.load_append path in
      Append_wt.check_invariants wt;
      check_bool "last" true
        (Bitstring.equal legacy_seq.(Oracle.legacy_n - 1)
           (Append_wt.access wt (Oracle.legacy_n - 1)));
      (* the loaded index keeps accepting appends *)
      Append_wt.append wt (Binarize.of_bytes "post-load");
      check_int "grown" (Oracle.legacy_n + 1) (Append_wt.length wt);
      check_int "found" 1
        (Append_wt.rank wt (Binarize.of_bytes "post-load") (Oracle.legacy_n + 1)))

(* The root's segment was still pending when the fixture was written:
   the decoder reads it from its raw bits. *)
let test_append_pending () =
  Oracle.with_legacy "append-pending" (fun path ->
      let wt = Persist.load_append path in
      Append_wt.check_invariants wt;
      check_int "length" Oracle.legacy_pending_n (Append_wt.length wt);
      for i = 0 to Oracle.legacy_pending_n - 1 do
        if not (Bitstring.equal legacy_seq.(i) (Append_wt.access wt i)) then
          Alcotest.failf "string %d differs" i
      done;
      Append_wt.append wt (Binarize.of_bytes "post-load");
      check_int "found" 1
        (Append_wt.rank wt (Binarize.of_bytes "post-load") (Oracle.legacy_pending_n + 1)))

(* Payloads whose counts disagree: hand-built values in format v2's
   static layout (the record shapes [Persist] keeps), written in a
   valid container, so only the decoder's own checks stand between them
   and the rebuilt trie.  Each must raise [Format_error]. *)
module V2 = struct
  module Bitbuf = Wt_bits.Bitbuf

  type rrr = {
    len : int;
    total_ones : int;
    classes : Bitbuf.t;
    offsets : Bitbuf.t;
    sb_ones : int array;
    sb_off : int array;
  }

  type node =
    | Leaf of { label : Bitstring.t; count : int }
    | Node of { label : Bitstring.t; bv : rrr; zero : node; one : node }

  type t = { root : node option; n : int }

  (* A bitvector of [len] bits whose one block has class [c] and no
     offset (c = 0 or c = 62 code a block by its class alone). *)
  let rrr ?(total_ones = 0) len c =
    let classes = Bitbuf.create () in
    Bitbuf.add_bits classes 6 c;
    { len; total_ones; classes; offsets = Bitbuf.create (); sb_ones = [| 0; total_ones |]; sb_off = [| 0; 0 |] }

  let node ?(bv = rrr 3 0) ?(zero = 3) ?(one = 0) () =
    let label = Binarize.of_bytes "k" in
    Node { label = Bitstring.empty; bv; zero = Leaf { label; count = zero }; one = Leaf { label; count = one } }
end

let test_v2_counts () =
  let path = tmp "counts.wt" in
  let write (t : V2.t) = Wt_durable.Container.write ~tag:"static" ~payload:(Marshal.to_string t []) path in
  write { root = Some (V2.node ()); n = 3 };
  check_int "a consistent payload loads" 3 (Wavelet_trie.length (Persist.load_static path));
  List.iter
    (fun (what, (t : V2.t)) ->
      write t;
      match Persist.load_static path with
      | exception Persist.Format_error _ -> ()
      | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: loaded" what)
    [
      ("length", { root = Some (V2.node ()); n = 4 });
      ("child count", { root = Some (V2.node ~zero:2 ()); n = 3 });
      ("negative count", { root = Some (V2.node ~zero:(-1) ~one:4 ()); n = 3 });
      ("ones", { root = Some (V2.node ~bv:(V2.rrr ~total_ones:1 3 0) ()); n = 3 });
      ("class over the block", { root = Some (V2.node ~bv:(V2.rrr 3 5) ()); n = 3 });
      ("class over 62", { root = Some (V2.node ~bv:(V2.rrr 62 63) ()); n = 3 });
      ("missing classes", { root = Some (V2.node ~bv:(V2.rrr 70 0) ()); n = 3 });
    ];
  Sys.remove path

let test_dynamic_roundtrip_and_updates () =
  Oracle.with_legacy "dynamic" (fun path ->
      let wt = Persist.load_dynamic path in
      Dynamic_wt.check_invariants wt;
      Dynamic_wt.insert wt 150 (Binarize.of_bytes "fresh");
      Dynamic_wt.delete wt 0;
      Dynamic_wt.check_invariants wt;
      check_int "length" Oracle.legacy_n (Dynamic_wt.length wt);
      check_bool "inserted" true
        (Bitstring.equal (Binarize.of_bytes "fresh") (Dynamic_wt.access wt 149)))

let test_header_validation () =
  (* loading as the wrong variant fails loudly *)
  Oracle.with_legacy "static" (fun path ->
      match Persist.load_append path with
      | exception Persist.Format_error _ -> ()
      | _ -> Alcotest.fail "expected Format_error on variant mismatch");
  (* garbage is rejected *)
  let garbage = tmp "garbage.bin" in
  let oc = open_out_bin garbage in
  output_string oc "not an index at all";
  close_out oc;
  check_bool "not recognized" false (Persist.is_index_file garbage);
  (match Persist.load_static garbage with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "expected Format_error on garbage");
  Sys.remove garbage

let test_truncated_payload () =
  (* failure injection: chop a valid index mid-payload *)
  Oracle.with_legacy "static" (fun path ->
      let full = In_channel.with_open_bin path In_channel.input_all in
      let cut = String.sub full 0 (String.length full * 2 / 3) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc cut);
      (match Persist.load_static path with
      | exception Persist.Format_error _ -> ()
      | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
      | _ -> Alcotest.fail "expected Format_error on truncated payload");
      (* chop inside the header *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 5));
      match Persist.load_static path with
      | exception Persist.Format_error _ -> ()
      | exception e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
      | _ -> Alcotest.fail "expected Format_error on truncated header")

(* Property: any single flipped byte, and any strict truncation, of any
   variant's index must raise Format_error — never succeed, never escape
   as a different exception.  (Exhaustive sweeps live in test_faults.) *)
let test_random_corruption () =
  let rng = Xoshiro.create 77 in
  let check_variant name load =
    Oracle.with_legacy name (fun path ->
        let pristine = In_channel.with_open_bin path In_channel.input_all in
        let len = String.length pristine in
        let rewrite s =
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
        in
        let expect_format_error what =
          match load path with
          | exception Persist.Format_error _ -> ()
          | exception e ->
              Alcotest.fail
                (Printf.sprintf "%s, %s: unexpected exception %s" name what
                   (Printexc.to_string e))
          | () ->
              Alcotest.fail
                (Printf.sprintf "%s, %s: load succeeded on a corrupted index" name what)
        in
        for trial = 1 to 48 do
          let off = Xoshiro.int rng len in
          let b = Bytes.of_string pristine in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (trial mod 8))));
          rewrite (Bytes.to_string b);
          expect_format_error (Printf.sprintf "bit flip at offset %d" off);
          let cut = Xoshiro.int rng len in
          rewrite (String.sub pristine 0 cut);
          expect_format_error (Printf.sprintf "truncated to %d bytes" cut)
        done;
        rewrite pristine;
        load path)
  in
  check_variant "static" (fun p -> ignore (Persist.load_static p : Wavelet_trie.t));
  check_variant "append" (fun p -> ignore (Persist.load_append p : Append_wt.t));
  check_variant "append-pending" (fun p -> ignore (Persist.load_append p : Append_wt.t));
  check_variant "dynamic" (fun p -> ignore (Persist.load_dynamic p : Dynamic_wt.t))

let () =
  Alcotest.run "wt_persist"
    [
      ( "persist",
        [
          Alcotest.test_case "static roundtrip" `Quick test_static_roundtrip;
          Alcotest.test_case "append roundtrip + growth" `Quick test_append_roundtrip_and_growth;
          Alcotest.test_case "append with a pending segment" `Quick test_append_pending;
          Alcotest.test_case "v2 payloads whose counts disagree" `Quick test_v2_counts;
          Alcotest.test_case "dynamic roundtrip + updates" `Quick test_dynamic_roundtrip_and_updates;
          Alcotest.test_case "header validation" `Quick test_header_validation;
          Alcotest.test_case "truncated files" `Quick test_truncated_payload;
          Alcotest.test_case "random corruption property" `Quick test_random_corruption;
        ] );
    ]
