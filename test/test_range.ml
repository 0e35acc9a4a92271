(* Tests for the Section 5 range algorithms, over all three Wavelet Trie
   variants, against naive scans. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Xoshiro = Wt_bits.Xoshiro
module Wavelet_trie = Wt_core.Wavelet_trie
module Flat_wt = Wt_core.Flat_wt
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
module Range = Wt_core.Range

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let words =
  [| "a"; "ab"; "abc"; "b"; "ba"; "bb"; "c"; "ca"; "cb"; "cc" |]

let make_seq rng n = Array.init n (fun _ -> words.(Xoshiro.int rng (Array.length words)))

let encode = Binarize.of_bytes

(* naive helpers over the raw word array *)
let naive_slice seq lo hi = Array.to_list (Array.sub seq lo (hi - lo))

let naive_distinct seq lo hi =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun w -> Hashtbl.replace tbl w (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
    (naive_slice seq lo hi);
  Hashtbl.fold (fun w c acc -> (w, c) :: acc) tbl [] |> List.sort compare

let naive_majority seq lo hi =
  let total = hi - lo in
  List.find_opt (fun (_, c) -> 2 * c > total) (naive_distinct seq lo hi)

let naive_at_least seq lo hi t =
  List.filter (fun (_, c) -> c >= t) (naive_distinct seq lo hi)

let word_prefix w =
  (* the encoded bit-prefix meaning "starts with byte string w" *)
  let e = encode w in
  Bitstring.prefix e (Bitstring.length e - 1)

(* decoded results back to words *)
let decode_list l = List.map (fun (s, c) -> (Binarize.to_bytes s, c)) l

(* Small wrappers let the same exercise run over each variant. *)
type ops = {
  iter : ?prefix:Bitstring.t -> lo:int -> hi:int -> (Bitstring.t -> unit) -> unit;
  distinct : ?prefix:Bitstring.t -> lo:int -> hi:int -> unit -> (Bitstring.t * int) list;
  majority : ?prefix:Bitstring.t -> lo:int -> hi:int -> unit -> (Bitstring.t * int) option;
  at_least :
    ?prefix:Bitstring.t -> lo:int -> hi:int -> threshold:int -> unit -> (Bitstring.t * int) list;
  count_range : prefix:Bitstring.t -> lo:int -> hi:int -> int;
}

let static_ops seq =
  let wt = Flat_wt.of_array (Array.map encode seq) in
  {
    iter = (fun ?prefix ~lo ~hi f -> Range.Static.iter_range ?prefix wt ~lo ~hi f);
    distinct =
      (fun ?prefix ~lo ~hi () -> Array.to_list (Range.Static.range_distinct ?prefix wt ~lo ~hi));
    majority = (fun ?prefix ~lo ~hi () -> Range.Static.majority ?prefix wt ~lo ~hi);
    at_least =
      (fun ?prefix ~lo ~hi ~threshold () ->
        Array.to_list (Range.Static.at_least ?prefix wt ~lo ~hi ~threshold));
    count_range = (fun ~prefix ~lo ~hi -> Range.Static.range_count ~prefix wt ~lo ~hi);
  }

let append_ops seq =
  let wt = Append_wt.of_array (Array.map encode seq) in
  {
    iter = (fun ?prefix ~lo ~hi f -> Range.Append.iter_range ?prefix wt ~lo ~hi f);
    distinct =
      (fun ?prefix ~lo ~hi () -> Array.to_list (Range.Append.range_distinct ?prefix wt ~lo ~hi));
    majority = (fun ?prefix ~lo ~hi () -> Range.Append.majority ?prefix wt ~lo ~hi);
    at_least =
      (fun ?prefix ~lo ~hi ~threshold () ->
        Array.to_list (Range.Append.at_least ?prefix wt ~lo ~hi ~threshold));
    count_range = (fun ~prefix ~lo ~hi -> Range.Append.range_count ~prefix wt ~lo ~hi);
  }

let dynamic_ops seq =
  let wt = Dynamic_wt.of_array (Array.map encode seq) in
  {
    iter = (fun ?prefix ~lo ~hi f -> Range.Dynamic.iter_range ?prefix wt ~lo ~hi f);
    distinct =
      (fun ?prefix ~lo ~hi () -> Array.to_list (Range.Dynamic.range_distinct ?prefix wt ~lo ~hi));
    majority = (fun ?prefix ~lo ~hi () -> Range.Dynamic.majority ?prefix wt ~lo ~hi);
    at_least =
      (fun ?prefix ~lo ~hi ~threshold () ->
        Array.to_list (Range.Dynamic.at_least ?prefix wt ~lo ~hi ~threshold));
    count_range = (fun ~prefix ~lo ~hi -> Range.Dynamic.range_count ~prefix wt ~lo ~hi);
  }

let exercise name ops seq rng =
  let n = Array.length seq in
  for _ = 1 to 60 do
    let lo = Xoshiro.int rng (n + 1) in
    let hi = lo + Xoshiro.int rng (n - lo + 1) in
    (* sequential access *)
    let got = ref [] in
    ops.iter ~lo ~hi (fun s -> got := Binarize.to_bytes s :: !got);
    Alcotest.(check (list string))
      (name ^ " iter_range") (naive_slice seq lo hi) (List.rev !got);
    (* distinct *)
    Alcotest.(check (list (pair string int)))
      (name ^ " distinct") (naive_distinct seq lo hi)
      (List.sort compare (decode_list (ops.distinct ~lo ~hi ())));
    (* majority *)
    Alcotest.(check (option (pair string int)))
      (name ^ " majority") (naive_majority seq lo hi)
      (Option.map (fun (s, c) -> (Binarize.to_bytes s, c)) (ops.majority ~lo ~hi ()));
    (* at_least *)
    let t = 1 + Xoshiro.int rng 5 in
    Alcotest.(check (list (pair string int)))
      (name ^ " at_least")
      (naive_at_least seq lo hi t)
      (List.sort compare (decode_list (ops.at_least ~lo ~hi ~threshold:t ())));
    (* prefix-restricted variants, using byte prefixes "a", "b", "c" *)
    let pw = [| "a"; "b"; "c" |].(Xoshiro.int rng 3) in
    let p = word_prefix pw in
    let matching =
      List.filter (fun w -> String.length w >= 1 && String.sub w 0 1 = pw) (naive_slice seq lo hi)
    in
    check_int (name ^ " count_range") (List.length matching) (ops.count_range ~prefix:p ~lo ~hi);
    let got = ref [] in
    ops.iter ~prefix:p ~lo ~hi (fun s -> got := Binarize.to_bytes s :: !got);
    Alcotest.(check (list string)) (name ^ " iter prefix") matching (List.rev !got);
    let naive_pref_distinct =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun w -> Hashtbl.replace tbl w (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
        matching;
      Hashtbl.fold (fun w c acc -> (w, c) :: acc) tbl [] |> List.sort compare
    in
    Alcotest.(check (list (pair string int)))
      (name ^ " distinct prefix") naive_pref_distinct
      (List.sort compare (decode_list (ops.distinct ~prefix:p ~lo ~hi ())))
  done

let test_static () =
  let rng = Xoshiro.create 100 in
  let seq = make_seq rng 300 in
  exercise "static" (static_ops seq) seq rng

let test_variants () =
  let rng = Xoshiro.create 200 in
  let seq = make_seq rng 250 in
  let qrng = Xoshiro.create 999 in
  exercise "static" (static_ops seq) seq qrng;
  let qrng = Xoshiro.create 999 in
  exercise "append" (append_ops seq) seq qrng;
  let qrng = Xoshiro.create 999 in
  exercise "dynamic" (dynamic_ops seq) seq qrng

let test_edge_cases () =
  (* empty trie *)
  let ops = static_ops [||] in
  Alcotest.(check (list (pair string int))) "distinct empty" [] (decode_list (ops.distinct ~lo:0 ~hi:0 ()));
  Alcotest.(check (option (pair string int)))
    "majority empty" None
    (Option.map (fun (s, c) -> (Binarize.to_bytes s, c)) (ops.majority ~lo:0 ~hi:0 ()));
  (* singleton *)
  let ops = static_ops [| "xyz" |] in
  Alcotest.(check (option (pair string int)))
    "majority singleton" (Some ("xyz", 1))
    (Option.map (fun (s, c) -> (Binarize.to_bytes s, c)) (ops.majority ~lo:0 ~hi:1 ()));
  (* missing prefix *)
  check_int "absent prefix" 0 (ops.count_range ~prefix:(word_prefix "q") ~lo:0 ~hi:1);
  Alcotest.(check (list (pair string int)))
    "absent prefix distinct" []
    (decode_list (ops.distinct ~prefix:(word_prefix "q") ~lo:0 ~hi:1 ()));
  (* bad ranges *)
  Alcotest.check_raises "bad range" (Invalid_argument "Range: bad range") (fun () ->
      ignore (ops.distinct ~lo:1 ~hi:0 ()));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Range.at_least: threshold must be >= 1") (fun () ->
      ignore (ops.at_least ~lo:0 ~hi:1 ~threshold:0 ()))

let naive_top_k seq lo hi k =
  naive_distinct seq lo hi
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < k)

let test_top_k () =
  let rng = Xoshiro.create 777 in
  let seq = make_seq rng 400 in
  let wt = Flat_wt.of_array (Array.map encode seq) in
  for _ = 1 to 60 do
    let lo = Xoshiro.int rng 401 in
    let hi = lo + Xoshiro.int rng (400 - lo + 1) in
    let k = Xoshiro.int rng 6 in
    let got = decode_list (Array.to_list (Range.Static.range_topk wt ~lo ~hi ~k)) in
    (* exact order: count descending, ties to the lexicographically
       smaller string (the stable sort keeps [naive_distinct]'s order) *)
    Alcotest.(check (list (pair string int))) "top-k" (naive_top_k seq lo hi k) got
  done;
  (* k larger than the distinct count returns everything *)
  let all = Range.Static.range_topk wt ~lo:0 ~hi:400 ~k:1000 in
  check_int "k too large" (List.length (naive_distinct seq 0 400)) (Array.length all);
  (* with a prefix restriction *)
  let p = word_prefix "a" in
  let got = Range.Static.range_topk wt ~prefix:p ~lo:0 ~hi:400 ~k:3 in
  Array.iter
    (fun (s, _) -> check_bool "prefixed" true (Bitstring.is_prefix ~prefix:p s))
    got

let test_quantile () =
  let rng = Xoshiro.create 888 in
  let seq = make_seq rng 350 in
  let wt = Flat_wt.of_array (Array.map encode seq) in
  for _ = 1 to 80 do
    let lo = Xoshiro.int rng 351 in
    let hi = lo + Xoshiro.int rng (350 - lo + 1) in
    if hi > lo then begin
      (* sorted multiset of the byte strings in range *)
      let sorted = List.sort compare (naive_slice seq lo hi) in
      let k = Xoshiro.int rng (hi - lo) in
      (match Range.Static.quantile wt ~lo ~hi k with
      | Some s ->
          Alcotest.(check string) "quantile" (List.nth sorted k) (Binarize.to_bytes s)
      | None -> Alcotest.fail "quantile returned None in range");
      Alcotest.(check (option string))
        "quantile out of range" None
        (Option.map Binarize.to_bytes (Range.Static.quantile wt ~lo ~hi (hi - lo)));
      (* median = quantile at (hi-lo)/2 *)
      match Range.Static.quantile wt ~lo ~hi ((hi - lo) / 2) with
      | Some s ->
          Alcotest.(check string) "median"
            (List.nth sorted ((hi - lo) / 2))
            (Binarize.to_bytes s)
      | None -> Alcotest.fail "median missing"
    end
  done;
  (* prefix-restricted: k-th smallest among strings with the prefix *)
  let p = word_prefix "b" in
  let matching = List.sort compare (List.filter (fun w -> w.[0] = 'b') (naive_slice seq 0 350)) in
  List.iteri
    (fun k expected ->
      if k < 5 then
        match Range.Static.quantile wt ~prefix:p ~lo:0 ~hi:350 k with
        | Some s -> Alcotest.(check string) "prefixed quantile" expected (Binarize.to_bytes s)
        | None -> Alcotest.fail "prefixed quantile missing")
    matching

let test_big_skewed () =
  (* majority exists on a skewed range; at_least finds the heavy hitters *)
  let seq = Array.make 1000 "heavy" in
  for i = 0 to 399 do
    seq.(2 * i) <- [| "x"; "y"; "z" |].(i mod 3)
  done;
  (* seq has 600 "heavy" plus 400 others interleaved in the first 800 *)
  let ops = static_ops seq in
  (match ops.majority ~lo:0 ~hi:1000 () with
  | Some (s, c) ->
      Alcotest.(check string) "majority heavy" "heavy" (Binarize.to_bytes s);
      check_bool "majority count" true (c > 500)
  | None -> Alcotest.fail "expected a majority");
  let heavies = decode_list (ops.at_least ~lo:0 ~hi:1000 ~threshold:100 ()) in
  check_bool "at_least finds heavy+x,y,z" true (List.length heavies = 4)

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
