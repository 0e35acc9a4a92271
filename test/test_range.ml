(* Tests for the Section 5 range algorithms, over all three Wavelet Trie
   variants, against the one oracle (oracle.ml). *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Flat_wt = Wt_core.Flat_wt
module Range = Wt_core.Range

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let words =
  [| "a"; "ab"; "abc"; "b"; "ba"; "bb"; "c"; "ca"; "cb"; "cc" |]

let make_seq rng n = Array.init n (fun _ -> words.(Xoshiro.int rng (Array.length words)))

let encode = Binarize.of_bytes

let word_prefix w =
  (* the encoded bit-prefix meaning "starts with byte string w" *)
  let e = encode w in
  Bitstring.prefix e (Bitstring.length e - 1)

module Static_check = Oracle.Check (Wtrie.Static)
module Append_check = Oracle.Check (Wtrie.Append)
module Dynamic_check = Oracle.Check (Wtrie.Dynamic)

(* Random windows: sequential access ([iter_range], with and without a
   byte prefix) against the window's strings, and every range op of the
   variant against the oracle (oracle.ml) on the same window and
   prefixes. *)
let exercise name ~iter ~check seq rng =
  let n = Array.length seq in
  let m = Oracle.model seq in
  for _ = 1 to 60 do
    let lo = Xoshiro.int rng (n + 1) in
    let hi = lo + Xoshiro.int rng (n - lo + 1) in
    let pw = [| "a"; "b"; "c" |].(Xoshiro.int rng 3) in
    List.iter
      (fun prefix ->
        let got = ref [] in
        iter ?prefix:(Option.map word_prefix prefix) ~lo ~hi (fun s ->
            got := Binarize.to_bytes s :: !got);
        let want = Result.get_ok (Oracle.Model.select_all ?prefix ~lo ~hi m) in
        Alcotest.(check (list string))
          (name ^ " iter_range")
          (Array.to_list (Array.map (Array.get seq) want))
          (List.rev !got))
      [ None; Some pw ];
    check ~windows:[ (lo, hi) ] ~prefixes:[ None; Some pw ] ~ks:[ 1 + Xoshiro.int rng 5 ] m
  done

let exercise_static seq rng =
  let wt = Wtrie.Static.of_array seq in
  exercise "static" seq rng
    ~iter:(fun ?prefix ~lo ~hi f -> Range.Static.iter_range ?prefix wt ~lo ~hi f)
    ~check:(Static_check.range ~ctx:"static" wt)

let test_static () = exercise_static (make_seq (Xoshiro.create 100) 300) (Xoshiro.create 100)

let test_variants () =
  let seq = make_seq (Xoshiro.create 200) 250 in
  exercise_static seq (Xoshiro.create 999);
  let wt = Wtrie.Append.of_array seq in
  exercise "append" seq (Xoshiro.create 999)
    ~iter:(fun ?prefix ~lo ~hi f -> Range.Append.iter_range ?prefix wt ~lo ~hi f)
    ~check:(Append_check.range ~ctx:"append" wt);
  let wt = Wtrie.Dynamic.of_array seq in
  exercise "dynamic" seq (Xoshiro.create 999)
    ~iter:(fun ?prefix ~lo ~hi f -> Range.Dynamic.iter_range ?prefix wt ~lo ~hi f)
    ~check:(Dynamic_check.range ~ctx:"dynamic" wt)

let decode (s, c) = (Binarize.to_bytes s, c)

let test_edge_cases () =
  (* empty trie *)
  let wt = Flat_wt.of_array [||] in
  Alcotest.(check (list (pair string int)))
    "distinct empty" []
    (Array.to_list (Array.map decode (Range.Static.range_distinct wt ~lo:0 ~hi:0)));
  Alcotest.(check (option (pair string int)))
    "majority empty" None
    (Option.map decode (Range.Static.majority wt ~lo:0 ~hi:0));
  (* singleton *)
  let wt = Flat_wt.of_array [| encode "xyz" |] in
  Alcotest.(check (option (pair string int)))
    "majority singleton" (Some ("xyz", 1))
    (Option.map decode (Range.Static.majority wt ~lo:0 ~hi:1));
  (* missing prefix *)
  check_int "absent prefix" 0 (Range.Static.range_count ~prefix:(word_prefix "q") wt ~lo:0 ~hi:1);
  check_int "absent prefix distinct" 0
    (Array.length (Range.Static.range_distinct ~prefix:(word_prefix "q") wt ~lo:0 ~hi:1));
  (* bad ranges *)
  Alcotest.check_raises "bad range" (Invalid_argument "Range: bad range") (fun () ->
      ignore (Range.Static.range_distinct wt ~lo:1 ~hi:0));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Range.at_least: threshold must be >= 1") (fun () ->
      ignore (Range.Static.at_least wt ~lo:0 ~hi:1 ~threshold:0))

(* Top-k (exact order: count descending, ties to the lexicographically
   smaller string; k past the distinct count) and quantiles (ranks in
   and past the window), with and without a prefix, on random windows
   against the oracle. *)
let random_windows seed n ~ks =
  let rng = Xoshiro.create seed in
  let seq = make_seq rng n in
  let wt = Wtrie.Static.of_array seq and m = Oracle.model seq in
  for _ = 1 to 60 do
    let lo = Xoshiro.int rng (n + 1) in
    let hi = lo + Xoshiro.int rng (n - lo + 1) in
    Static_check.range ~ctx:"static" ~windows:[ (lo, hi) ]
      ~prefixes:[ None; Some "a"; Some "b" ]
      ~ks:(ks rng (hi - lo)) wt m
  done

let test_top_k () = random_windows 777 400 ~ks:(fun rng _ -> [ Xoshiro.int rng 6; 1000 ])
let test_quantile () = random_windows 888 350 ~ks:(fun rng w -> [ Xoshiro.int rng (w + 1) ])

let test_big_skewed () =
  (* majority exists on a skewed range; at_least finds the heavy hitters *)
  let seq = Array.make 1000 "heavy" in
  for i = 0 to 399 do
    seq.(2 * i) <- [| "x"; "y"; "z" |].(i mod 3)
  done;
  (* seq has 600 "heavy" plus 400 others interleaved in the first 800 *)
  let wt = Flat_wt.of_array (Array.map encode seq) in
  (match Range.Static.majority wt ~lo:0 ~hi:1000 with
  | Some (s, c) ->
      Alcotest.(check string) "majority heavy" "heavy" (Binarize.to_bytes s);
      check_bool "majority count" true (c > 500)
  | None -> Alcotest.fail "expected a majority");
  let heavies = Range.Static.at_least wt ~lo:0 ~hi:1000 ~threshold:100 in
  check_bool "at_least finds heavy+x,y,z" true (Array.length heavies = 4)

let () =
  Alcotest.run "wt_range"
    [
      ( "range",
        [
          Alcotest.test_case "static vs naive" `Quick test_static;
          Alcotest.test_case "all variants vs naive" `Quick test_variants;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "top-k vs naive" `Quick test_top_k;
          Alcotest.test_case "quantile vs naive" `Quick test_quantile;
          Alcotest.test_case "skewed data" `Quick test_big_skewed;
        ] );
    ]
