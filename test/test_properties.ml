(* Cross-cutting property tests: algebraic laws relating the indexed-
   sequence operations to each other, run with qcheck over random inputs
   and all three Wavelet Trie variants. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Wavelet_trie = Wt_core.Wavelet_trie
module Append_wt = Wt_core.Append_wt
module Dynamic_wt = Wt_core.Dynamic_wt
(* the range suite over the pointer trie, the §3 reference *)
module Range = Wt_core.Range.Make (Wavelet_trie.Node)
module Dyn_rle = Wt_bitvector.Dyn_rle

(* words over a tiny alphabet to force heavy sharing and duplicates *)
let word_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 1 5))
let seq_gen = QCheck.Gen.(list_size (int_range 1 120) word_gen)
let seq_arb = QCheck.make ~print:(fun l -> String.concat "," l) seq_gen

let encode_seq words = Array.of_list (List.map Binarize.of_bytes words)

(* rank is monotone and increments exactly at occurrences *)
let prop_rank_stepwise words =
  let seq = encode_seq words in
  let wt = Wavelet_trie.of_array seq in
  let n = Array.length seq in
  List.for_all
    (fun s ->
      let ok = ref true in
      for pos = 0 to n - 1 do
        let step = Wavelet_trie.rank wt s (pos + 1) - Wavelet_trie.rank wt s pos in
        let expect = if Bitstring.equal seq.(pos) s then 1 else 0 in
        if step <> expect then ok := false
      done;
      !ok)
    (Array.to_list seq)

(* select enumerates exactly the matching positions, in order *)
let prop_select_enumerates words =
  let seq = encode_seq words in
  let wt = Wavelet_trie.of_array seq in
  let s = seq.(0) in
  let expected =
    List.filteri (fun _ _ -> true) (Array.to_list seq)
    |> List.mapi (fun i x -> (i, x))
    |> List.filter (fun (_, x) -> Bitstring.equal x s)
    |> List.map fst
  in
  let got =
    List.init (List.length expected) (fun k ->
        match Wavelet_trie.select wt s k with Some p -> p | None -> -1)
  in
  got = expected && Wavelet_trie.select wt s (List.length expected) = None

(* rank s = rank_prefix (s as whole-string prefix), since Sset is
   prefix-free (the paper's observation after Lemma 3.3) *)
let prop_rank_eq_rank_prefix words =
  let seq = encode_seq words in
  let wt = Wavelet_trie.of_array seq in
  let n = Array.length seq in
  Array.for_all
    (fun s -> Wavelet_trie.rank wt s n = Wavelet_trie.rank_prefix wt s n)
    seq

(* rank_prefix is monotone in prefix length *)
let prop_rank_prefix_monotone words =
  let seq = encode_seq words in
  let wt = Wavelet_trie.of_array seq in
  let n = Array.length seq in
  let s = seq.(Array.length seq / 2) in
  let ok = ref true in
  for l = 0 to Bitstring.length s - 1 do
    let a = Wavelet_trie.rank_prefix wt (Bitstring.prefix s l) n in
    let b = Wavelet_trie.rank_prefix wt (Bitstring.prefix s (l + 1)) n in
    if b > a then ok := false
  done;
  !ok

(* distinct over the full range sums to n and matches rank counts *)
let prop_distinct_counts words =
  let seq = encode_seq words in
  let wt = Wavelet_trie.of_array seq in
  let n = Array.length seq in
  let d = Range.range_distinct wt ~lo:0 ~hi:n in
  Array.fold_left (fun acc (_, c) -> acc + c) 0 d = n
  && Array.for_all (fun (s, c) -> Wavelet_trie.rank wt s n = c) d
  && Array.length d = Wavelet_trie.distinct_count wt

(* the three variants stay in lockstep under a common build *)
let prop_variants_lockstep words =
  let seq = encode_seq words in
  let s = Wavelet_trie.of_array seq in
  let a = Append_wt.of_array seq in
  let d = Dynamic_wt.of_array seq in
  let n = Array.length seq in
  let q = seq.(0) in
  Wavelet_trie.rank s q n = Append_wt.rank a q n
  && Append_wt.rank a q n = Dynamic_wt.rank d q n
  && Wavelet_trie.select s q 0 = Dynamic_wt.select d q 0
  && Wavelet_trie.dump s = Append_wt.dump a
  && Append_wt.dump a = Dynamic_wt.dump d

(* deleting position i equals building from the sequence without it *)
let prop_delete_is_removal (words, k) =
  let seq = encode_seq words in
  let n = Array.length seq in
  let pos = k mod n in
  let d = Dynamic_wt.of_array seq in
  Dynamic_wt.delete d pos;
  Dynamic_wt.check_invariants d;
  let rest = Array.of_list (List.filteri (fun i _ -> i <> pos) (Array.to_list seq)) in
  let expect = Dynamic_wt.of_array rest in
  Dynamic_wt.dump d = Dynamic_wt.dump expect

(* a random insert then rebuild-compare *)
let prop_insert_matches_rebuild (words, k, w) =
  let seq = encode_seq words in
  let n = Array.length seq in
  let pos = k mod (n + 1) in
  let s = Binarize.of_bytes w in
  let d = Dynamic_wt.of_array seq in
  Dynamic_wt.insert d pos s;
  Dynamic_wt.check_invariants d;
  let spliced =
    Array.concat [ Array.sub seq 0 pos; [| s |]; Array.sub seq pos (n - pos) ]
  in
  Dynamic_wt.dump d = Dynamic_wt.dump (Dynamic_wt.of_array spliced)

(* dynamic bitvector: rank/select are inverse on both bit values *)
let prop_bv_rank_select_inverse bits =
  let bv = Dyn_rle.of_bits (Array.of_list bits) in
  List.for_all
    (fun b ->
      let total = if b then Dyn_rle.ones bv else Dyn_rle.zeros bv in
      let ok = ref true in
      for k = 0 to total - 1 do
        let p = Dyn_rle.select bv b k in
        if Dyn_rle.rank bv b p <> k then ok := false;
        if Dyn_rle.access bv p <> b then ok := false
      done;
      !ok)
    [ true; false ]

(* access_rank coherence across implementations *)
let prop_access_rank_coherent bits =
  let arr = Array.of_list bits in
  let bv = Dyn_rle.of_bits arr in
  let buf = Wt_bits.Bitbuf.create () in
  Array.iter (Wt_bits.Bitbuf.add buf) arr;
  let rrr = Wt_bitvector.Rrr.of_bitbuf buf in
  let ok = ref true in
  Array.iteri
    (fun pos _ ->
      let b1, r1 = Dyn_rle.access_rank bv pos in
      let b2, r2 = Wt_bitvector.Rrr.access_rank rrr pos in
      if b1 <> b2 || r1 <> r2 then ok := false;
      if r1 <> Dyn_rle.rank bv b1 pos then ok := false)
    arr;
  !ok

(* Appendix A, Lemma A.1: nH0(S) >= (sigma - 1) log2 n whenever every
   symbol occurs at least once. *)
let prop_lemma_a1 words =
  let seq = encode_seq words in
  let wt = Wavelet_trie.of_array seq in
  let st = Wavelet_trie.stats wt in
  let n = float_of_int st.n in
  let sigma = float_of_int st.distinct in
  st.n = 0 || st.seq_h0_bits +. 1e-6 >= (sigma -. 1.) *. (log n /. log 2.)

(* Lemma 3.5: H0(S) <= h~ <= average string length (in bits). *)
let prop_lemma_3_5 words =
  let seq = encode_seq words in
  let wt = Wavelet_trie.of_array seq in
  let st = Wavelet_trie.stats wt in
  let n = Array.length seq in
  if n = 0 then true
  else begin
    let avg_len =
      float_of_int (Array.fold_left (fun a s -> a + Bitstring.length s) 0 seq)
      /. float_of_int n
    in
    let h0 = st.seq_h0_bits /. float_of_int n in
    h0 <= st.avg_height +. 1e-9 && st.avg_height <= avg_len +. 1e-9
  end

let tests =
  let open QCheck in
  [
    Test.make ~name:"rank counts occurrences stepwise" ~count:80 seq_arb prop_rank_stepwise;
    Test.make ~name:"Lemma A.1: nH0 >= (sigma-1) log n" ~count:150 seq_arb prop_lemma_a1;
    Test.make ~name:"Lemma 3.5: H0 <= h~ <= avg length" ~count:150 seq_arb prop_lemma_3_5;
    Test.make ~name:"select enumerates positions" ~count:120 seq_arb prop_select_enumerates;
    Test.make ~name:"rank = rank_prefix on whole strings" ~count:120 seq_arb
      prop_rank_eq_rank_prefix;
    Test.make ~name:"rank_prefix monotone in prefix" ~count:120 seq_arb
      prop_rank_prefix_monotone;
    Test.make ~name:"distinct partitions the range" ~count:80 seq_arb prop_distinct_counts;
    Test.make ~name:"variants lockstep" ~count:60 seq_arb prop_variants_lockstep;
    Test.make ~name:"delete = rebuild without element" ~count:60
      (pair seq_arb small_nat) prop_delete_is_removal;
    Test.make ~name:"insert = rebuild with element" ~count:60
      (triple seq_arb small_nat (make word_gen))
      prop_insert_matches_rebuild;
    Test.make ~name:"dyn bitvector rank/select inverse" ~count:80
      (list_of_size Gen.(int_range 0 300) bool)
      prop_bv_rank_select_inverse;
    Test.make ~name:"access_rank coherent across FIDs" ~count:80
      (list_of_size Gen.(int_range 0 300) bool)
      prop_access_rank_coherent;
  ]

let () =
  Alcotest.run "wt_properties"
    [ ("cross-cutting", List.map QCheck_alcotest.to_alcotest tests) ]
