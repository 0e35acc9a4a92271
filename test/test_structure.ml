(* Structural validation of the Wavelet Trie invariants through the
   public Node view, generically over all variants, plus golden tests for
   the pretty-printer and the Wtrie front door's corner cases. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Wavelet_trie = Wt_core.Wavelet_trie
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Definition 3.1 invariants, checked over any Node_view:
   - internal node counts split exactly into the children's counts
     according to the bitvector;
   - internal labels are the *longest* common prefix (children cannot
     both start with the same bit unless separated by the bitvector —
     equivalently, child labels exist and the two subtrees are
     non-empty);
   - bitvector length equals subtree count;
   - iter_bits agrees with bv_access;
   - bv_access_rank agrees with (bv_access, bv_rank);
   - label_length and label_lcp agree with the label. *)
module Check (N : Wt_core.Node_view.S) = struct
  let rec node rng v =
    let label = N.label v in
    let len = Bitstring.length label in
    check_int "label_length" len (N.label_length v);
    check_int "label_lcp with the label" len
      (N.label_lcp v (Bitstring.concat [ Bitstring.of_string "101"; label ]) 3);
    if len > 0 then
      check_int "label_lcp with its first bit flipped" 0
        (N.label_lcp v (Bitstring.cons (not (Bitstring.get label 0)) label) 0);
    if not (N.is_leaf v) then begin
      let m = N.count v in
      check_bool "internal nonempty" true (m > 0);
      let zeros = N.bv_rank v false m and ones = N.bv_rank v true m in
      check_int "rank partition" m (zeros + ones);
      check_bool "both sides populated" true (zeros > 0 && ones > 0);
      check_int "zero child count" zeros (N.count (N.child v false));
      check_int "one child count" ones (N.count (N.child v true));
      (* spot-check bit accessors against each other *)
      let next = N.iter_bits v 0 in
      for pos = 0 to min (m - 1) 200 do
        let b = next () in
        check_bool "iter = access" b (N.bv_access v pos);
        let b', r' = N.bv_access_rank v pos in
        check_bool "access_rank bit" b b';
        check_int "access_rank rank" (N.bv_rank v b pos) r'
      done;
      (* select . rank round trip at random indices *)
      for _ = 1 to 20 do
        let b = Xoshiro.bool rng in
        let total = if b then ones else zeros in
        if total > 0 then begin
          let k = Xoshiro.int rng total in
          let p = N.bv_select v b k in
          check_bool "select bit" b (N.bv_access v p);
          check_int "rank of select" k (N.bv_rank v b p)
        end
      done;
      node rng (N.child v false);
      node rng (N.child v true)
    end
    else check_bool "leaf count positive" true (N.count v > 0)

  let trie rng t total =
    match N.root t with
    | None -> check_int "empty trie" 0 total
    | Some root ->
        check_int "root count" total (N.count root);
        node rng root
end

let sample rng n =
  Array.init n (fun _ ->
      Binarize.of_bytes
        (String.init (1 + Xoshiro.int rng 5) (fun _ ->
             Char.chr (Char.code 'a' + Xoshiro.int rng 4))))

let test_structure_static () =
  let rng = Xoshiro.create 21 in
  let module C = Check (Wavelet_trie.Node) in
  List.iter
    (fun n ->
      let seq = sample rng n in
      C.trie rng (Wavelet_trie.of_array seq) n)
    [ 0; 1; 10; 500; 3000 ]

let test_structure_append () =
  let rng = Xoshiro.create 22 in
  let module C = Check (Append_wt.Node) in
  let seq = sample rng 2000 in
  (* incremental build exercises split paths *)
  let wt = Append_wt.create () in
  Array.iter (Append_wt.append wt) seq;
  C.trie rng wt 2000

let test_structure_dynamic () =
  let rng = Xoshiro.create 23 in
  let module C = Check (Dynamic_wt.Node) in
  let seq = sample rng 1500 in
  let wt = Dynamic_wt.of_array seq in
  (* churn it *)
  for _ = 1 to 500 do
    if Xoshiro.bool rng && Dynamic_wt.length wt > 0 then
      Dynamic_wt.delete wt (Xoshiro.int rng (Dynamic_wt.length wt))
    else
      Dynamic_wt.insert wt
        (Xoshiro.int rng (Dynamic_wt.length wt + 1))
        (sample rng 1).(0)
  done;
  C.trie rng wt (Dynamic_wt.length wt)

(* ------------------------------------------------------------------ *)

let test_pp_golden () =
  let seq =
    List.map Bitstring.of_string
      [ "0001"; "0011"; "0100"; "00100"; "0100"; "00100"; "0100" ]
  in
  let wt = Wavelet_trie.of_list seq in
  let rendered = Format.asprintf "%a" Wavelet_trie.pp wt in
  let expected =
    "a=0  b=0010101\n\
     +-0: a={e}  b=0111\n\
     |    +-0: a=1  (leaf x1)\n\
     |    +-1: a={e}  b=100\n\
     |         +-0: a=0  (leaf x2)\n\
     |         +-1: a={e}  (leaf x1)\n\
     +-1: a=00  (leaf x3)"
  in
  Alcotest.(check string) "figure 2 rendering" expected rendered;
  Alcotest.(check string)
    "empty rendering" "<empty sequence>"
    (Format.asprintf "%a" Wavelet_trie.pp (Wavelet_trie.of_array [||]))

let test_string_api_empty_prefix () =
  let wt = Wtrie.Static.of_list [ "a"; "b"; "a" ] in
  (* the empty byte prefix matches every stored string *)
  check_int "empty prefix counts all" 3 (Wtrie.Static.count_prefix wt ~prefix:"");
  Alcotest.(check (result int reject)) "empty prefix select" (Ok 1)
    (Wtrie.Static.select_prefix wt ~prefix:"" ~count:1);
  (* and the empty *string* is storable and distinct from the prefix *)
  let wt = Wtrie.Static.of_list [ ""; "x"; "" ] in
  check_int "empty string count" 2 (Wtrie.Static.count wt "");
  Alcotest.(check string) "empty string access" ""
    (Result.get_ok (Wtrie.Static.access wt ~pos:0));
  check_int "empty prefix still counts all" 3 (Wtrie.Static.count_prefix wt ~prefix:"")

let test_wavelet_tree_backends_agree () =
  let rng = Xoshiro.create 26 in
  let sigma = 23 in
  let a = Array.init 4000 (fun _ -> Xoshiro.int rng sigma) in
  let p = Wt_wavelet_tree.Wavelet_tree.Over_plain.of_array ~sigma a in
  let r = Wt_wavelet_tree.Wavelet_tree.Over_rrr.of_array ~sigma a in
  let module P = Wt_wavelet_tree.Wavelet_tree.Over_plain in
  let module R = Wt_wavelet_tree.Wavelet_tree.Over_rrr in
  for lvl = 0 to P.levels p - 1 do
    Alcotest.(check string)
      (Printf.sprintf "level %d" lvl)
      (P.level_bits p lvl) (R.level_bits r lvl)
  done;
  for _ = 1 to 500 do
    let sym = Xoshiro.int rng sigma and pos = Xoshiro.int rng 4001 in
    check_int "rank agree" (P.rank p sym pos) (R.rank r sym pos)
  done

let () =
  Alcotest.run "wt_structure"
    [
      ( "node-view invariants",
        [
          Alcotest.test_case "static" `Quick test_structure_static;
          Alcotest.test_case "append-only" `Quick test_structure_append;
          Alcotest.test_case "dynamic (churned)" `Quick test_structure_dynamic;
        ] );
      ( "rendering",
        [ Alcotest.test_case "pp golden" `Quick test_pp_golden ] );
      ( "facade corners",
        [ Alcotest.test_case "empty prefix/string" `Quick test_string_api_empty_prefix ] );
      ( "backends",
        [ Alcotest.test_case "plain/rrr agree" `Quick test_wavelet_tree_backends_agree ] );
    ]
