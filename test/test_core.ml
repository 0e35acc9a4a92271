(* Tests for wt_core: the static, append-only and fully-dynamic Wavelet
   Tries, validated against the one oracle (oracle.ml) and against the paper's
   worked examples (Figures 2 and 3). *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Naive = Wt_core.Indexed_sequence.Naive
module Wavelet_trie = Wt_core.Wavelet_trie
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt

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

(* ------------------------------------------------------------------ *)
(* Golden structure tests *)

let dump_testable =
  Alcotest.(list (pair string (option string)))

let test_figure2_static () =
  let wt = Wavelet_trie.of_list fig2_seq in
  Alcotest.check dump_testable "figure 2 structure" fig2_dump (Wavelet_trie.dump wt)

let test_figure2_append () =
  let wt = Append_wt.of_array (Array.of_list fig2_seq) in
  Alcotest.check dump_testable "figure 2 structure" fig2_dump (Append_wt.dump wt)

let test_figure2_dynamic () =
  let wt = Dynamic_wt.of_array (Array.of_list fig2_seq) in
  Alcotest.check dump_testable "figure 2 structure" fig2_dump (Dynamic_wt.dump wt)

(* Figure 3: inserting a new string splits a node; the new internal node
   gets a constant bitvector (plus the new string's bit).  We insert 0110
   at position 3 into the Figure 2 sequence: its path diverges inside the
   leaf α=00 reached by 0·1 (i.e. the stored string 0100). *)
let test_figure3_split () =
  let wt = Dynamic_wt.of_array (Array.of_list fig2_seq) in
  Dynamic_wt.insert wt 3 (bs "0110");
  (* The 1-child of the root was the leaf α=00 holding the three
     occurrences of 0100 at sequence positions 2, 4, 6.  Inserting 0110 at
     position 3 reaches that subtree at local position 1, so the split
     node's bitvector is 0 1 0 0: Init(0, cnt=1) then insert 1, then the
     remaining occurrences... the bitvector discriminates 0100 (bit 0)
     from 0110 (bit 1) in subtree order. *)
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
  Alcotest.check dump_testable "figure 3 structure" expected (Dynamic_wt.dump wt);
  Dynamic_wt.check_invariants wt;
  (* and deleting it merges the node back *)
  (match Dynamic_wt.select wt (bs "0110") 0 with
  | None -> Alcotest.fail "inserted string not found"
  | Some pos ->
      check_int "inserted at 3" 3 pos;
      Dynamic_wt.delete wt pos);
  Alcotest.check dump_testable "merged back to figure 2" fig2_dump (Dynamic_wt.dump wt);
  Dynamic_wt.check_invariants wt

(* ------------------------------------------------------------------ *)
(* Agreement with the oracle (oracle.ml) *)

(* A pool of words over a three-letter alphabet. *)
let word_pool rng n_words =
  Array.init n_words (fun _ ->
      String.init (1 + Xoshiro.int rng 6) (fun _ -> Char.chr (Char.code 'a' + Xoshiro.int rng 3)))

let random_sequence rng pool n = Array.init n (fun _ -> pool.(Xoshiro.int rng (Array.length pool)))

module Pointer_check = Oracle.Check (Oracle.Pointer)
module Append_check = Oracle.Check (Wtrie.Append)
module Dynamic_check = Oracle.Check (Wtrie.Dynamic)

let test_static_oracle () =
  let rng = Xoshiro.create 1001 in
  List.iter
    (fun (n_words, n) ->
      let seq = random_sequence rng (word_pool rng n_words) n in
      let wt = Oracle.Pointer.of_array seq in
      Pointer_check.run ~ctx:(Printf.sprintf "static n=%d" n) wt (Oracle.model seq);
      (* full decode *)
      let decoded = Wavelet_trie.to_array wt in
      Array.iteri
        (fun i s -> check_bool "to_array" true (Bitstring.equal (Binarize.of_bytes s) decoded.(i)))
        seq)
    [ (1, 1); (1, 50); (5, 100); (40, 500); (200, 1000) ]

let test_static_empty () =
  let wt = Wavelet_trie.of_array [||] in
  check_int "empty length" 0 (Wavelet_trie.length wt);
  check_int "empty distinct" 0 (Wavelet_trie.distinct_count wt);
  check_int "rank on empty" 0 (Wavelet_trie.rank wt (bs "01") 0);
  Alcotest.(check (option int)) "select on empty" None (Wavelet_trie.select wt (bs "01") 0)

let test_append_oracle () =
  let rng = Xoshiro.create 2002 in
  let pool = word_pool rng 60 in
  let seq = random_sequence rng pool 1200 in
  let wt = Wtrie.Append.create () in
  Array.iteri
    (fun i s ->
      Wtrie.Append.append wt s;
      if (i + 1) mod 200 = 0 then begin
        Append_wt.check_invariants wt;
        Append_check.run ~ctx:(Printf.sprintf "append n=%d" (i + 1)) wt
          (Oracle.model (Array.sub seq 0 (i + 1)))
      end)
    seq;
  Append_wt.check_invariants wt

(* A snapshot survives node splits.  After it is taken, unseen strings
   split nodes above existing leaves (a word led by a letter outside the
   pool branches off near the root) and the leaves themselves (a pool
   word plus one more letter); the snapshot keeps answering for the
   prefix it saw, with the same dump. *)
let test_append_snapshot () =
  let rng = Xoshiro.create 2004 in
  let words =
    Array.init 40 (fun _ ->
        String.init (1 + Xoshiro.int rng 6) (fun _ ->
            Char.chr (Char.code 'a' + Xoshiro.int rng 3)))
  in
  let word () = words.(Xoshiro.int rng (Array.length words)) in
  let wt = Wtrie.Append.create () and seq = ref [] in
  let add w =
    Wtrie.Append.append wt w;
    seq := w :: !seq
  in
  for _ = 1 to 5000 do
    add (word ())
  done;
  let snap = Append_wt.snapshot wt in
  let seen = Oracle.model (Array.of_list (List.rev !seq)) in
  let dump = Append_wt.dump snap in
  for i = 1 to 3000 do
    add (match i mod 3 with 0 -> word () | 1 -> word () ^ "d" | _ -> "z" ^ word ())
  done;
  check_bool "the appends split nodes" true
    (Append_wt.distinct_count wt > Append_wt.distinct_count snap);
  Alcotest.check dump_testable "snapshot dump unchanged" dump (Append_wt.dump snap);
  Append_wt.check_invariants snap;
  Append_wt.check_invariants wt;
  Append_check.run ~ctx:"snapshot" snap seen;
  Append_check.run ~ctx:"appended past the snapshot" wt
    (Oracle.model (Array.of_list (List.rev !seq)))

let test_dynamic_oracle () =
  let rng = Xoshiro.create 3003 in
  let pool = word_pool rng 40 in
  let mirror = ref [||] in
  let wt = Wtrie.Dynamic.create () in
  for step = 1 to 2500 do
    let n = Array.length !mirror in
    let c = Xoshiro.int rng 10 in
    let s = pool.(Xoshiro.int rng (Array.length pool)) in
    if c < 5 || n = 0 then begin
      let pos = Xoshiro.int rng (n + 1) in
      mirror := Oracle.insert !mirror pos s;
      Wtrie.Dynamic.insert wt ~pos s
    end
    else if c < 8 then begin
      let pos = Xoshiro.int rng n in
      mirror := Oracle.delete !mirror pos;
      Wtrie.Dynamic.delete wt ~pos
    end
    else begin
      mirror := Oracle.insert !mirror n s;
      Wtrie.Dynamic.append wt s
    end;
    if step mod 250 = 0 then begin
      Dynamic_wt.check_invariants wt;
      Dynamic_check.run ~ctx:(Printf.sprintf "dynamic step %d" step) wt (Oracle.model !mirror)
    end
  done

let test_dynamic_alphabet_lifecycle () =
  (* Insert fresh strings (growing the alphabet), then delete every
     occurrence (shrinking it back), checking distinct_count and structure
     at each stage. *)
  let rng = Xoshiro.create 4004 in
  let wt = Dynamic_wt.create () in
  let words = Array.init 120 (fun i -> Binarize.of_bytes (Printf.sprintf "w%03d" i)) in
  Array.iteri
    (fun i w ->
      Dynamic_wt.insert wt (Xoshiro.int rng (Dynamic_wt.length wt + 1)) w;
      check_int "distinct grows" (i + 1) (Dynamic_wt.distinct_count wt))
    words;
  Dynamic_wt.check_invariants wt;
  (* duplicate a few *)
  for _ = 1 to 200 do
    let w = words.(Xoshiro.int rng 120) in
    Dynamic_wt.insert wt (Xoshiro.int rng (Dynamic_wt.length wt + 1)) w
  done;
  check_int "distinct stable" 120 (Dynamic_wt.distinct_count wt);
  Dynamic_wt.check_invariants wt;
  (* delete everything *)
  while Dynamic_wt.length wt > 0 do
    Dynamic_wt.delete wt (Xoshiro.int rng (Dynamic_wt.length wt))
  done;
  check_int "alphabet emptied" 0 (Dynamic_wt.distinct_count wt);
  Dynamic_wt.check_invariants wt

let test_variants_agree () =
  (* The three variants built from the same sequence have identical
     structure dumps. *)
  let rng = Xoshiro.create 5005 in
  let pool = word_pool rng 30 in
  let seq = Array.map Binarize.of_bytes (random_sequence rng pool 400) in
  let s = Wavelet_trie.of_array seq in
  let a = Append_wt.of_array seq in
  let d = Dynamic_wt.of_array seq in
  Alcotest.check dump_testable "static = append" (Wavelet_trie.dump s) (Append_wt.dump a);
  Alcotest.check dump_testable "static = dynamic" (Wavelet_trie.dump s) (Dynamic_wt.dump d)

let test_prefix_free_violations () =
  let wt = Dynamic_wt.create () in
  Dynamic_wt.append wt (bs "0100");
  Alcotest.check_raises "proper prefix"
    (Invalid_argument "Dynamic_wt.insert: string is a proper prefix of a stored string")
    (fun () -> Dynamic_wt.append wt (bs "01"));
  Alcotest.check_raises "extension"
    (Invalid_argument "Dynamic_wt.insert: a stored string is a proper prefix of the string")
    (fun () -> Dynamic_wt.append wt (bs "01001"));
  let awt = Append_wt.create () in
  Append_wt.append awt (bs "0100");
  Alcotest.check_raises "append-only proper prefix"
    (Invalid_argument "Append_wt.append: string is a proper prefix of a stored string")
    (fun () -> Append_wt.append awt (bs "01"));
  Alcotest.check_raises "static violation"
    (Invalid_argument "Wavelet_trie.of_array: string set is not prefix-free") (fun () ->
      ignore (Wavelet_trie.of_array [| bs "01"; bs "011" |]))

(* ------------------------------------------------------------------ *)
(* Space accounting *)

let test_stats_bounds () =
  let rng = Xoshiro.create 6006 in
  let pool = word_pool rng 50 in
  let seq = Array.map Binarize.of_bytes (random_sequence rng pool 3000) in
  let check_stats name (st : Wt_core.Stats.t) =
    check_int (name ^ " n") 3000 st.n;
    check_bool (name ^ " distinct") true (st.distinct <= 50 && st.distinct > 0);
    (* Lemma 3.5: H0(S) <= h~ <= max string length *)
    let h0_per = st.seq_h0_bits /. float_of_int st.n in
    check_bool
      (Printf.sprintf "%s H0 %.2f <= h~ %.2f" name h0_per st.avg_height)
      true
      (h0_per <= st.avg_height +. 1e-9);
    check_bool (name ^ " h~ bounded by max len") true (st.avg_height <= 64.);
    (* measured total is within a small constant of the lower bound *)
    let lb = Wt_core.Stats.lower_bound st in
    check_bool
      (Printf.sprintf "%s total %d vs LB %.0f" name st.total_bits lb)
      true
      (float_of_int st.total_bits >= lb *. 0.5
      && float_of_int st.total_bits <= (8. *. lb) +. 200_000.)
  in
  check_stats "static" (Wavelet_trie.stats (Wavelet_trie.of_array seq));
  check_stats "append" (Append_wt.stats (Append_wt.of_array seq));
  check_stats "dynamic" (Dynamic_wt.stats (Dynamic_wt.of_array seq))

let test_static_more_compact_than_naive () =
  let rng = Xoshiro.create 7007 in
  (* highly repetitive sequence: few distinct long strings *)
  let pool =
    Array.init 8 (fun i -> Binarize.of_bytes (Printf.sprintf "/var/log/service-%d/access.log" i))
  in
  let seq = random_sequence rng pool 20_000 in
  let naive = Naive.of_array seq in
  let wt = Wavelet_trie.of_array seq in
  check_bool
    (Printf.sprintf "wt %d bits < 20%% of naive %d bits" (Wavelet_trie.space_bits wt)
       (Naive.space_bits naive))
    true
    (Wavelet_trie.space_bits wt * 5 < Naive.space_bits naive)

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let qcheck_tests =
  let open QCheck in
  let word_gen = Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 1 4)) in
  let seq_gen = Gen.(list_size (int_range 0 80) word_gen) in
  [
    Test.make ~name:"static: rank(s, select(s,k)) = k" ~count:100 (make seq_gen)
      (fun words ->
        let seq = Array.of_list (List.map Binarize.of_bytes words) in
        let wt = Wavelet_trie.of_array seq in
        let ok = ref true in
        Array.iter
          (fun s ->
            let total = Wavelet_trie.rank wt s (Array.length seq) in
            for k = 0 to total - 1 do
              match Wavelet_trie.select wt s k with
              | None -> ok := false
              | Some pos ->
                  if Wavelet_trie.rank wt s pos <> k then ok := false;
                  if not (Bitstring.equal (Wavelet_trie.access wt pos) s) then ok := false
            done)
          seq;
        !ok);
    Test.make ~name:"dynamic insert/delete roundtrip" ~count:100
      (pair (make seq_gen) (make word_gen))
      (fun (words, w) ->
        assume (words <> []);
        let seq = Array.of_list (List.map Binarize.of_bytes words) in
        let wt = Dynamic_wt.of_array seq in
        let before = Dynamic_wt.dump wt in
        let pos = Array.length seq / 2 in
        Dynamic_wt.insert wt pos (Binarize.of_bytes w);
        Dynamic_wt.delete wt pos;
        Dynamic_wt.check_invariants wt;
        Dynamic_wt.dump wt = before);
    Test.make ~name:"rank_prefix of empty prefix = pos" ~count:100 (make seq_gen)
      (fun words ->
        let seq = Array.of_list (List.map Binarize.of_bytes words) in
        let wt = Wavelet_trie.of_array seq in
        let n = Array.length seq in
        List.for_all
          (fun pos -> Wavelet_trie.rank_prefix wt Bitstring.empty pos = pos)
          [ 0; n / 2; n ]);
  ]

(* ------------------------------------------------------------------ *)
(* The byte-string front door ([Wtrie]) *)

let test_string_api_static () =
  let wt = Wtrie.Static.of_list [ "a.com/x"; "b.org/y"; "a.com/x"; "a.com/z" ] in
  check_int "length" 4 (Wtrie.Static.length wt);
  Alcotest.(check string) "access" "b.org/y"
    (Result.get_ok (Wtrie.Static.access wt ~pos:1));
  check_int "rank" 2 (Result.get_ok (Wtrie.Static.rank wt "a.com/x" ~pos:4));
  Alcotest.(check bool)
    "rank out of bounds" true
    (Wtrie.Static.rank wt "a.com/x" ~pos:99
    = Error (Wt_core.Indexed_sequence.Position_out_of_bounds { pos = 99; len = 4 }));
  check_int "count" 2 (Wtrie.Static.count wt "a.com/x");
  check_int "select" 2 (Result.get_ok (Wtrie.Static.select wt "a.com/x" ~count:1));
  check_int "prefix count" 3 (Wtrie.Static.count_prefix wt ~prefix:"a.com/");
  check_int "prefix rank" 1
    (Result.get_ok (Wtrie.Static.rank_prefix wt ~prefix:"a.com/" ~pos:1));
  check_int "prefix select" 3
    (Result.get_ok (Wtrie.Static.select_prefix wt ~prefix:"a.com/" ~count:2));
  Alcotest.(check bool)
    "absent select reports the occurrence count" true
    (Wtrie.Static.select wt "nope" ~count:0
    = Error (Wt_core.Indexed_sequence.No_occurrence { count = 0; occurrences = 0 }));
  check_int "absent" 0 (Wtrie.Static.count wt "nope")

let test_string_api_dynamic () =
  let wt = Wtrie.Dynamic.create () in
  Wtrie.Dynamic.append wt "one";
  Wtrie.Dynamic.append wt "two";
  Wtrie.Dynamic.insert wt ~pos:1 "one-and-a-half";
  Alcotest.(check string) "order" "one-and-a-half"
    (Result.get_ok (Wtrie.Dynamic.access wt ~pos:1));
  check_int "distinct" 3 (Wtrie.Dynamic.distinct_count wt);
  Wtrie.Dynamic.delete wt ~pos:1;
  check_int "after delete" 2 (Wtrie.Dynamic.distinct_count wt);
  Alcotest.(check string) "shifted" "two"
    (Result.get_ok (Wtrie.Dynamic.access wt ~pos:1))

let test_string_api_append () =
  let wt = Wtrie.Append.create () in
  List.iter (Wtrie.Append.append wt) [ "x"; "y" ];
  Wtrie.Append.append_batch wt [| "x"; "xy" |];
  check_int "rank x" 2 (Wtrie.Append.count wt "x");
  check_int "prefix x" 3 (Wtrie.Append.count_prefix wt ~prefix:"x");
  Alcotest.(check string) "access" "xy"
    (Result.get_ok (Wtrie.Append.access wt ~pos:3))

let () =
  Alcotest.run "wt_core"
    [
      ( "string_api",
        [
          Alcotest.test_case "static facade" `Quick test_string_api_static;
          Alcotest.test_case "dynamic facade" `Quick test_string_api_dynamic;
          Alcotest.test_case "append facade" `Quick test_string_api_append;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figure 2 static" `Quick test_figure2_static;
          Alcotest.test_case "figure 2 append-only" `Quick test_figure2_append;
          Alcotest.test_case "figure 2 dynamic" `Quick test_figure2_dynamic;
          Alcotest.test_case "figure 3 split/merge" `Quick test_figure3_split;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "static vs naive" `Quick test_static_oracle;
          Alcotest.test_case "static empty" `Quick test_static_empty;
          Alcotest.test_case "append-only vs naive" `Quick test_append_oracle;
          Alcotest.test_case "append-only snapshot survives splits" `Quick
            test_append_snapshot;
          Alcotest.test_case "dynamic vs naive" `Quick test_dynamic_oracle;
          Alcotest.test_case "dynamic alphabet lifecycle" `Quick test_dynamic_alphabet_lifecycle;
          Alcotest.test_case "variants agree" `Quick test_variants_agree;
          Alcotest.test_case "prefix-free violations" `Quick test_prefix_free_violations;
        ] );
      ( "space",
        [
          Alcotest.test_case "stats bounds" `Quick test_stats_bounds;
          Alcotest.test_case "compresses repetitive data" `Quick test_static_more_compact_than_naive;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
