(* Targeted edge cases across the stack: degenerate shapes, extreme
   strings, worst-case bit patterns, and boundary positions. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Wavelet_trie = Wt_core.Wavelet_trie
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
(* the range suite over the pointer trie, the §3 reference *)
module Range = Wt_core.Range.Make (Wavelet_trie.Node)
module Dyn_rle = Wt_bitvector.Dyn_rle
module Appendable = Wt_bitvector.Appendable

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bs = Bitstring.of_string

(* ------------------------------------------------------------------ *)
(* Degenerate sequences *)

let test_single_string_repeated () =
  (* One distinct string: the trie is a single leaf, no bitvectors. *)
  let s = Binarize.of_bytes "only" in
  let seq = Array.make 1000 s in
  let wt = Wavelet_trie.of_array seq in
  check_int "static distinct" 1 (Wavelet_trie.distinct_count wt);
  check_int "static rank" 500 (Wavelet_trie.rank wt s 500);
  Alcotest.(check (option int)) "static select" (Some 999) (Wavelet_trie.select wt s 999);
  let d = Dynamic_wt.of_array seq in
  Dynamic_wt.check_invariants d;
  check_int "dyn rank" 500 (Dynamic_wt.rank d s 500);
  (* delete all but one *)
  for _ = 1 to 999 do
    Dynamic_wt.delete d 0
  done;
  check_int "dyn one left" 1 (Dynamic_wt.length d);
  check_bool "dyn access" true (Bitstring.equal s (Dynamic_wt.access d 0))

let test_two_strings_first_bit_split () =
  (* Strings diverging at bit 0: root label is empty. *)
  let a = bs "0" and b = bs "1" in
  let wt = Wavelet_trie.of_array [| a; b; a; b; b |] in
  Alcotest.(check (list (pair string (option string))))
    "structure"
    [ ("", Some "01011"); ("", None); ("", None) ]
    (Wavelet_trie.dump wt);
  check_int "rank a" 2 (Wavelet_trie.rank wt a 5);
  check_int "rank b" 3 (Wavelet_trie.rank wt b 5)

let test_very_long_strings () =
  (* Labels far beyond one 62-bit word; exercises word-spanning lcp. *)
  let rng = Xoshiro.create 5 in
  let mk tag =
    Binarize.of_bytes (tag ^ String.init 300 (fun _ -> Char.chr (65 + Xoshiro.int rng 4)))
  in
  let pool = Array.init 10 (fun i -> mk (Printf.sprintf "shared/deep/path/%d/" i)) in
  let seq = Array.init 200 (fun _ -> pool.(Xoshiro.int rng 10)) in
  let wt = Wavelet_trie.of_array seq in
  Array.iteri
    (fun i s -> check_bool "access long" true (Bitstring.equal s (Wavelet_trie.access wt i)))
    seq;
  Array.iter
    (fun s ->
      let total = Wavelet_trie.rank wt s 200 in
      check_bool "positive" true (total > 0);
      Alcotest.(check (option int)) "select last" (Wavelet_trie.select wt s (total - 1))
        (Wavelet_trie.select wt s (total - 1)))
    pool;
  (* common prefix of everything *)
  let p = Binarize.of_bytes "shared/deep/path/" in
  let p = Bitstring.prefix p (Bitstring.length p - 1) in
  check_int "all share prefix" 200 (Wavelet_trie.rank_prefix wt p 200)

let test_prefix_longer_than_strings () =
  let wt = Wavelet_trie.of_array [| bs "01"; bs "10" |] in
  check_int "too-long prefix" 0 (Wavelet_trie.rank_prefix wt (bs "0101010101") 2);
  Alcotest.(check (option int))
    "too-long select_prefix" None
    (Wavelet_trie.select_prefix wt (bs "0101010101") 0)

let test_prefix_ending_inside_label () =
  (* prefix ends strictly inside a node label *)
  let wt = Wavelet_trie.of_array [| bs "000001"; bs "000010"; bs "111111" |] in
  check_int "mid-label prefix" 2 (Wavelet_trie.rank_prefix wt (bs "000") 3);
  check_int "mid-label prefix 2" 1 (Wavelet_trie.rank_prefix wt (bs "11111") 3);
  check_int "mismatch inside label" 0 (Wavelet_trie.rank_prefix wt (bs "001") 3);
  (* range.distinct restricted to a mid-label prefix *)
  let d = Range.range_distinct wt ~prefix:(bs "000") ~lo:0 ~hi:3 in
  check_int "distinct under mid-label prefix" 2 (Array.length d);
  Array.iter
    (fun (s, c) ->
      check_int "count 1" 1 c;
      check_bool "has prefix" true (Bitstring.is_prefix ~prefix:(bs "000") s))
    d

(* ------------------------------------------------------------------ *)
(* Worst-case bit patterns for the dynamic bitvector *)

let test_dyn_rle_alternating () =
  (* alternating bits = maximal number of runs; γ(1) codes *)
  let n = 20_000 in
  let bits = Array.init n (fun i -> i land 1 = 1) in
  let bv = Dyn_rle.of_bits bits in
  Dyn_rle.check_invariants bv;
  check_int "ones" (n / 2) (Dyn_rle.ones bv);
  for _ = 1 to 200 do
    let pos = Xoshiro.int (Xoshiro.create 1) n in
    ignore pos
  done;
  let rng = Xoshiro.create 1 in
  for _ = 1 to 500 do
    let pos = Xoshiro.int rng n in
    check_bool "access" (bits.(pos)) (Dyn_rle.access bv pos);
    check_int "rank" (pos / 2) (Dyn_rle.rank bv true (pos - (pos land 1)))
  done;
  (* flipping a middle bit splits runs *)
  Dyn_rle.delete bv 1000;
  Dyn_rle.insert bv 1000 (not bits.(1000));
  Dyn_rle.check_invariants bv;
  check_bool "flipped" (not bits.(1000)) (Dyn_rle.access bv 1000)

let test_dyn_rle_giant_runs () =
  let bv = Dyn_rle.create () in
  Dyn_rle.insert bv 0 true;
  (* grow a giant run by repeated inserts in the middle *)
  for _ = 1 to 5000 do
    Dyn_rle.insert bv (Dyn_rle.length bv / 2) true
  done;
  check_int "all ones" 5001 (Dyn_rle.ones bv);
  check_bool "still tiny" true (Dyn_rle.space_bits bv < 2048);
  Dyn_rle.check_invariants bv;
  (* now punch zeros periodically *)
  let rng = Xoshiro.create 3 in
  for _ = 1 to 1000 do
    Dyn_rle.insert bv (Xoshiro.int rng (Dyn_rle.length bv + 1)) false
  done;
  Dyn_rle.check_invariants bv;
  check_int "zeros" 1000 (Dyn_rle.zeros bv)

let test_appendable_exact_boundaries () =
  (* appends that land exactly on segment boundaries (4096 bits) *)
  let bv = Appendable.create () in
  for i = 0 to (3 * 4096) - 1 do
    Appendable.append bv (i land 7 = 0)
  done;
  Appendable.check_invariants bv;
  check_int "len" (3 * 4096) (Appendable.length bv);
  (* boundary positions *)
  List.iter
    (fun pos ->
      let expected = ref 0 in
      for i = 0 to pos - 1 do
        if i land 7 = 0 then incr expected
      done;
      check_int (Printf.sprintf "rank@%d" pos) !expected (Appendable.rank bv true pos))
    [ 0; 1; 4095; 4096; 4097; 8191; 8192; 12288 ]

(* ------------------------------------------------------------------ *)
(* Dynamic trie structural edge cases *)

let test_dynamic_root_split_and_merge () =
  let d = Dynamic_wt.create () in
  Dynamic_wt.append d (bs "0000");
  (* split at the very first bit *)
  Dynamic_wt.append d (bs "1111");
  check_int "two" 2 (Dynamic_wt.distinct_count d);
  Alcotest.(check (list (pair string (option string))))
    "root split"
    [ ("", Some "01"); ("000", None); ("111", None) ]
    (Dynamic_wt.dump d);
  (* delete one side: merge back to a single leaf with full label *)
  Dynamic_wt.delete d 1;
  Alcotest.(check (list (pair string (option string))))
    "merged" [ ("0000", None) ] (Dynamic_wt.dump d);
  Dynamic_wt.check_invariants d

let test_dynamic_interleaved_split_merge_storm () =
  (* repeatedly add and remove a diverging string at the same spot *)
  let base = Array.init 50 (fun i -> Binarize.of_bytes (Printf.sprintf "k%02d" (i mod 5))) in
  let d = Dynamic_wt.of_array base in
  let probe = Binarize.of_bytes "k0z" in
  let before = Dynamic_wt.dump d in
  for _ = 1 to 100 do
    Dynamic_wt.insert d 25 probe;
    Dynamic_wt.delete d 25
  done;
  Alcotest.(check (list (pair string (option string))))
    "stable after storm" before (Dynamic_wt.dump d);
  Dynamic_wt.check_invariants d

let test_append_only_first_string_longest () =
  (* first string longer than all later ones; splits happen near the root *)
  let wt = Append_wt.create () in
  Append_wt.append wt (Binarize.of_bytes "aaaaaaaaaaaaaaaa");
  Append_wt.append wt (Binarize.of_bytes "b");
  Append_wt.append wt (Binarize.of_bytes "a");
  Append_wt.append wt (Binarize.of_bytes "aaaa");
  Append_wt.check_invariants wt;
  check_int "four" 4 (Append_wt.length wt);
  check_int "distinct" 4 (Append_wt.distinct_count wt);
  List.iteri
    (fun i w ->
      check_bool
        (Printf.sprintf "access %d" i)
        true
        (Bitstring.equal (Binarize.of_bytes w) (Append_wt.access wt i)))
    [ "aaaaaaaaaaaaaaaa"; "b"; "a"; "aaaa" ]

(* ------------------------------------------------------------------ *)
(* Range iterator boundary conditions *)

let test_iter_range_boundaries () =
  let words = [| "x"; "yy"; "zzz" |] in
  let rng = Xoshiro.create 4 in
  let seq = Array.init 300 (fun _ -> Binarize.of_bytes words.(Xoshiro.int rng 3)) in
  let wt = Wavelet_trie.of_array seq in
  (* empty range at every position *)
  for lo = 0 to 300 do
    let got = ref 0 in
    Range.iter_range wt ~lo ~hi:lo (fun _ -> incr got);
    check_int "empty range" 0 !got
  done;
  (* single-element ranges equal access *)
  for pos = 0 to 299 do
    let got = ref [] in
    Range.iter_range wt ~lo:pos ~hi:(pos + 1) (fun s -> got := s :: !got);
    match !got with
    | [ s ] -> check_bool "singleton" true (Bitstring.equal s seq.(pos))
    | _ -> Alcotest.fail "expected exactly one element"
  done;
  (* full range *)
  let got = ref 0 in
  Range.iter_range wt ~lo:0 ~hi:300 (fun _ -> incr got);
  check_int "full" 300 !got

let () =
  Alcotest.run "wt_edge"
    [
      ( "degenerate sequences",
        [
          Alcotest.test_case "single string repeated" `Quick test_single_string_repeated;
          Alcotest.test_case "first-bit split" `Quick test_two_strings_first_bit_split;
          Alcotest.test_case "very long strings" `Quick test_very_long_strings;
          Alcotest.test_case "prefix longer than strings" `Quick test_prefix_longer_than_strings;
          Alcotest.test_case "prefix inside label" `Quick test_prefix_ending_inside_label;
        ] );
      ( "bitvector worst cases",
        [
          Alcotest.test_case "alternating bits" `Quick test_dyn_rle_alternating;
          Alcotest.test_case "giant runs" `Quick test_dyn_rle_giant_runs;
          Alcotest.test_case "segment boundaries" `Quick test_appendable_exact_boundaries;
        ] );
      ( "trie reshaping",
        [
          Alcotest.test_case "root split and merge" `Quick test_dynamic_root_split_and_merge;
          Alcotest.test_case "split/merge storm" `Quick test_dynamic_interleaved_split_merge_storm;
          Alcotest.test_case "long first string" `Quick test_append_only_first_string_longest;
        ] );
      ( "range boundaries",
        [ Alcotest.test_case "iter_range boundaries" `Quick test_iter_range_boundaries ] );
    ]
