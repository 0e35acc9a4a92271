(* Tests for the wt_bits substrate: broadword primitives, bit buffers,
   Elias codes, run-length coding, entropy accounting, PRNG. *)

module Broadword = Wt_bits.Broadword
module Bitbuf = Wt_bits.Bitbuf
module Bit_io = Wt_bits.Bit_io
module Elias = Wt_bits.Elias
module Rle = Wt_bits.Rle
module Entropy = Wt_bits.Entropy
module Xoshiro = Wt_bits.Xoshiro

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Broadword *)

let naive_popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let test_popcount_small () =
  check_int "popcount 0" 0 (Broadword.popcount 0);
  check_int "popcount 1" 1 (Broadword.popcount 1);
  check_int "popcount 0xff" 8 (Broadword.popcount 0xff);
  check_int "popcount max_int" 62 (Broadword.popcount max_int);
  for i = 0 to 61 do
    check_int "popcount single bit" 1 (Broadword.popcount (1 lsl i))
  done

let test_popcount_random () =
  let rng = Xoshiro.create 42 in
  for _ = 1 to 1000 do
    let x = Xoshiro.next rng in
    check_int "popcount random" (naive_popcount x) (Broadword.popcount x)
  done

let naive_select x k =
  let rec go pos k =
    if pos > 62 then raise Not_found
    else if x land (1 lsl pos) <> 0 then if k = 0 then pos else go (pos + 1) (k - 1)
    else go (pos + 1) k
  in
  go 0 k

let test_select_in_word () =
  let rng = Xoshiro.create 7 in
  for _ = 1 to 500 do
    let x = Xoshiro.next rng in
    let c = Broadword.popcount x in
    for k = 0 to min (c - 1) 10 do
      check_int "select" (naive_select x k) (Broadword.select_in_word x k)
    done;
    if c < 62 then
      Alcotest.check_raises "select out of range" (Invalid_argument "Broadword.select_in_word: index out of range")
        (fun () -> ignore (Broadword.select_in_word x c))
  done

let test_select0_in_word () =
  let rng = Xoshiro.create 8 in
  for _ = 1 to 200 do
    let x = Xoshiro.next rng in
    let len = 1 + Xoshiro.int rng 62 in
    let xm = x land Broadword.mask len in
    let zeros = len - Broadword.popcount xm in
    for k = 0 to min (zeros - 1) 5 do
      let pos = Broadword.select0_in_word x len k in
      check_bool "selected bit is zero" true (x land (1 lsl pos) = 0);
      (* Count zeros strictly before pos *)
      let before = pos - Broadword.popcount (x land Broadword.mask pos) in
      check_int "rank of selected zero" k before
    done
  done

let test_highest_lowest () =
  check_int "highest_bit 1" 0 (Broadword.highest_bit 1);
  check_int "highest_bit 2" 1 (Broadword.highest_bit 2);
  check_int "highest_bit 255" 7 (Broadword.highest_bit 255);
  check_int "highest_bit 256" 8 (Broadword.highest_bit 256);
  check_int "highest max_int" 61 (Broadword.highest_bit max_int);
  check_int "lowest_bit 8" 3 (Broadword.lowest_bit 8);
  check_int "lowest_bit 12" 2 (Broadword.lowest_bit 12);
  check_int "bit_width 0" 0 (Broadword.bit_width 0);
  check_int "bit_width 1" 1 (Broadword.bit_width 1);
  check_int "bit_width 7" 3 (Broadword.bit_width 7);
  for i = 0 to 61 do
    check_int "highest single" i (Broadword.highest_bit (1 lsl i));
    check_int "lowest single" i (Broadword.lowest_bit (1 lsl i))
  done

let test_mask () =
  check_int "mask 0" 0 (Broadword.mask 0);
  check_int "mask 1" 1 (Broadword.mask 1);
  check_int "mask 8" 255 (Broadword.mask 8);
  check_int "mask 62" max_int (Broadword.mask 62)

let test_reverse_bits () =
  check_int "reverse 1 bit" 1 (Broadword.reverse_bits 1 1);
  check_int "reverse 0b01 over 2" 0b10 (Broadword.reverse_bits 0b01 2);
  check_int "reverse 0b110 over 3" 0b011 (Broadword.reverse_bits 0b110 3);
  let rng = Xoshiro.create 3 in
  for _ = 1 to 300 do
    let len = 1 + Xoshiro.int rng 62 in
    let x = Xoshiro.next rng land Broadword.mask len in
    let r = Broadword.reverse_bits x len in
    check_int "reverse involutive" x (Broadword.reverse_bits r len);
    for i = 0 to len - 1 do
      check_bool "bit mirrored" ((x lsr i) land 1 = 1) ((r lsr (len - 1 - i)) land 1 = 1)
    done
  done

(* ------------------------------------------------------------------ *)
(* Bitbuf *)

let test_bitbuf_basic () =
  let b = Bitbuf.create () in
  check_int "empty length" 0 (Bitbuf.length b);
  Bitbuf.add b true;
  Bitbuf.add b false;
  Bitbuf.add b true;
  check_int "length 3" 3 (Bitbuf.length b);
  check_bool "bit 0" true (Bitbuf.get b 0);
  check_bool "bit 1" false (Bitbuf.get b 1);
  check_bool "bit 2" true (Bitbuf.get b 2);
  Bitbuf.set b 1 true;
  check_bool "bit 1 set" true (Bitbuf.get b 1)

let test_bitbuf_random_bits () =
  let rng = Xoshiro.create 99 in
  let n = 3000 in
  let reference = Array.init n (fun _ -> Xoshiro.bool rng) in
  let b = Bitbuf.create () in
  Array.iter (Bitbuf.add b) reference;
  check_int "length" n (Bitbuf.length b);
  Array.iteri (fun i bit -> check_bool "bit" bit (Bitbuf.get b i)) reference;
  (* get_bits agrees with per-bit reads at random offsets/lengths. *)
  for _ = 1 to 500 do
    let len = Xoshiro.int rng 63 in
    let pos = Xoshiro.int rng (n - len + 1) in
    let v = Bitbuf.get_bits b pos len in
    for j = 0 to len - 1 do
      check_bool "get_bits bit" reference.(pos + j) ((v lsr j) land 1 = 1)
    done
  done

let test_bitbuf_set_bits () =
  let rng = Xoshiro.create 1234 in
  let n = 2000 in
  let reference = Array.make n false in
  let b = Bitbuf.create () in
  Bitbuf.add_run b false n;
  for _ = 1 to 400 do
    let len = 1 + Xoshiro.int rng 62 in
    let pos = Xoshiro.int rng (n - len + 1) in
    let v = Xoshiro.next rng land Broadword.mask len in
    Bitbuf.set_bits b pos len v;
    for j = 0 to len - 1 do
      reference.(pos + j) <- (v lsr j) land 1 = 1
    done
  done;
  Array.iteri (fun i bit -> check_bool "after set_bits" bit (Bitbuf.get b i)) reference

let test_bitbuf_add_bits_roundtrip () =
  let rng = Xoshiro.create 5 in
  let b = Bitbuf.create () in
  let writes = ref [] in
  for _ = 1 to 300 do
    let len = 1 + Xoshiro.int rng 62 in
    let v = Xoshiro.next rng land Broadword.mask len in
    Bitbuf.add_bits b len v;
    writes := (len, v) :: !writes
  done;
  let pos = ref 0 in
  List.iter
    (fun (len, v) ->
      check_int "roundtrip word" v (Bitbuf.get_bits b !pos len);
      pos := !pos + len)
    (List.rev !writes);
  check_int "total length" !pos (Bitbuf.length b)

let test_bitbuf_add_run () =
  let b = Bitbuf.create () in
  Bitbuf.add_run b true 100;
  Bitbuf.add_run b false 70;
  Bitbuf.add_run b true 1;
  check_int "length" 171 (Bitbuf.length b);
  check_int "pop all" 101 (Bitbuf.pop_count b 0 171);
  check_int "pop ones run" 100 (Bitbuf.pop_count b 0 100);
  check_int "pop zeros run" 0 (Bitbuf.pop_count b 100 70)

let test_bitbuf_pop_count () =
  let rng = Xoshiro.create 6 in
  let n = 2500 in
  let reference = Array.init n (fun _ -> Xoshiro.bool rng) in
  let b = Bitbuf.create () in
  Array.iter (Bitbuf.add b) reference;
  for _ = 1 to 300 do
    let len = Xoshiro.int rng (n + 1) in
    let pos = Xoshiro.int rng (n - len + 1) in
    let expected = ref 0 in
    for j = pos to pos + len - 1 do
      if reference.(j) then incr expected
    done;
    check_int "pop_count" !expected (Bitbuf.pop_count b pos len)
  done

let test_bitbuf_blit_truncate () =
  let a = Bitbuf.of_string "110100111000101" in
  let b = Bitbuf.of_string "01" in
  Bitbuf.blit a 3 b 7 (* bits 3..9 of a = "1001110" *);
  Alcotest.(check string) "blit" "011001110" (Bitbuf.to_string b);
  Bitbuf.truncate b 4;
  Alcotest.(check string) "truncate" "0110" (Bitbuf.to_string b);
  Bitbuf.add b true;
  Alcotest.(check string) "append after truncate" "01101" (Bitbuf.to_string b);
  let c = Bitbuf.copy b in
  Bitbuf.add c false;
  check_int "copy independent" 5 (Bitbuf.length b);
  check_int "copy extended" 6 (Bitbuf.length c);
  check_bool "equal no" false (Bitbuf.equal b c);
  check_bool "equal yes" true (Bitbuf.equal b (Bitbuf.copy b));
  Bitbuf.clear c;
  check_int "clear" 0 (Bitbuf.length c)

let test_bitbuf_of_to_string () =
  let s = "0110010111010001" in
  Alcotest.(check string) "roundtrip" s (Bitbuf.to_string (Bitbuf.of_string s));
  Alcotest.check_raises "bad char" (Invalid_argument "Bitbuf.of_string: bad character 'x'")
    (fun () -> ignore (Bitbuf.of_string "01x"))

(* ------------------------------------------------------------------ *)
(* Bit_io + Elias *)

let test_elias_gamma_roundtrip () =
  let w = Bit_io.Writer.create () in
  let values = List.init 1000 (fun i -> i + 1) in
  List.iter (Elias.write_gamma w) values;
  let r = Bit_io.Reader.create (Bit_io.Writer.buffer w) in
  List.iter (fun v -> check_int "gamma" v (Elias.read_gamma r)) values;
  check_bool "consumed" true (Bit_io.Reader.at_end r)

let test_elias_delta_roundtrip () =
  let w = Bit_io.Writer.create () in
  let rng = Xoshiro.create 11 in
  let values = List.init 500 (fun _ -> 1 + Xoshiro.int rng 1_000_000_000) in
  List.iter (Elias.write_delta w) values;
  let r = Bit_io.Reader.create (Bit_io.Writer.buffer w) in
  List.iter (fun v -> check_int "delta" v (Elias.read_delta r)) values;
  check_bool "consumed" true (Bit_io.Reader.at_end r)

let test_elias_lengths () =
  check_int "gamma_length 1" 1 (Elias.gamma_length 1);
  check_int "gamma_length 2" 3 (Elias.gamma_length 2);
  check_int "gamma_length 4" 5 (Elias.gamma_length 4);
  check_int "delta_length 1" 1 (Elias.delta_length 1);
  let rng = Xoshiro.create 12 in
  for _ = 1 to 200 do
    let v = 1 + Xoshiro.int rng 1_000_000 in
    let w = Bit_io.Writer.create () in
    Elias.write_gamma w v;
    check_int "gamma length matches" (Elias.gamma_length v) (Bit_io.Writer.pos w);
    let w = Bit_io.Writer.create () in
    Elias.write_delta w v;
    check_int "delta length matches" (Elias.delta_length v) (Bit_io.Writer.pos w)
  done

let test_elias_big_values () =
  (* Values near the top of the representable range. *)
  let values = [ max_int; max_int - 1; 1 lsl 61; (1 lsl 61) - 1 ] in
  List.iter
    (fun v ->
      let w = Bit_io.Writer.create () in
      Elias.write_delta w v;
      let r = Bit_io.Reader.create (Bit_io.Writer.buffer w) in
      check_int "delta big" v (Elias.read_delta r))
    values

let test_reader_seek_peek () =
  let w = Bit_io.Writer.create () in
  Bit_io.Writer.bits w 8 0b10110101;
  Bit_io.Writer.bit w true;
  check_int "writer pos" 9 (Bit_io.Writer.pos w);
  let r = Bit_io.Reader.create (Bit_io.Writer.buffer w) in
  check_bool "peek" true (Bit_io.Reader.peek_bit r);
  check_int "peek does not advance" 0 (Bit_io.Reader.pos r);
  check_int "bits" 0b0101 (Bit_io.Reader.bits r 4);
  check_int "pos after read" 4 (Bit_io.Reader.pos r);
  check_int "remaining" 5 (Bit_io.Reader.remaining r);
  Bit_io.Reader.seek r 8;
  check_bool "after seek" true (Bit_io.Reader.bit r);
  check_bool "at_end" true (Bit_io.Reader.at_end r);
  Alcotest.check_raises "bad seek" (Invalid_argument "Reader.seek")
    (fun () -> Bit_io.Reader.seek r 100)

(* ------------------------------------------------------------------ *)
(* Rle *)

let test_rle_of_to_bits () =
  let rng = Xoshiro.create 77 in
  for _ = 1 to 100 do
    let n = Xoshiro.int rng 500 in
    let bits = Array.init n (fun _ -> Xoshiro.int rng 10 < 7) in
    let runs = Rle.of_bits bits in
    Rle.check runs;
    check_int "total" n (Rle.total_bits runs);
    check_int "ones" (Array.fold_left (fun a b -> if b then a + 1 else a) 0 bits) (Rle.ones runs);
    Alcotest.(check (array bool)) "roundtrip" bits (Rle.to_bits runs)
  done

let test_rle_encode_decode () =
  let rng = Xoshiro.create 78 in
  for _ = 1 to 100 do
    let n = 1 + Xoshiro.int rng 800 in
    let bits = Array.init n (fun _ -> Xoshiro.int rng 10 < 2) in
    let runs = Rle.of_bits bits in
    let enc = Rle.encode runs in
    check_int "encoded_length" (Rle.encoded_length runs) (Bitbuf.length enc);
    let dec = Rle.decode ~total:n enc in
    Alcotest.(check (array bool)) "decode" bits (Rle.to_bits dec)
  done;
  let empty = Rle.decode ~total:0 (Bitbuf.create ()) in
  check_int "empty decode" 0 (Rle.total_bits empty)

(* ------------------------------------------------------------------ *)
(* Entropy *)

let test_entropy_h () =
  Alcotest.(check (float 1e-9)) "H(1/2)" 1.0 (Entropy.h 0.5);
  Alcotest.(check (float 1e-9)) "H(0)" 0.0 (Entropy.h 0.);
  Alcotest.(check (float 1e-9)) "H(1)" 0.0 (Entropy.h 1.);
  Alcotest.(check (float 1e-9)) "H(p)=H(1-p)" (Entropy.h 0.3) (Entropy.h 0.7)

let test_entropy_binomial () =
  Alcotest.(check (float 1e-9)) "C(n,0)" 0.0 (Entropy.binomial_bound 0 100);
  Alcotest.(check (float 1e-9)) "C(n,n)" 0.0 (Entropy.binomial_bound 100 100);
  Alcotest.(check (float 1e-6)) "C(4,2)=6" (Entropy.log2 6.) (Entropy.binomial_bound 2 4);
  Alcotest.(check (float 1e-6)) "C(10,3)=120" (Entropy.log2 120.) (Entropy.binomial_bound 3 10);
  (* B(m,n) <= nH(m/n) + O(1) *)
  let b = Entropy.binomial_bound 300 1000 in
  let nh = Entropy.bitvector_h0_bits ~ones:300 ~len:1000 in
  check_bool "B <= nH + 1" true (b <= nh +. 1.)

let test_entropy_counts () =
  let counts = Entropy.counts_of_list compare [ "a"; "b"; "a"; "c"; "a"; "b" ] in
  Array.sort compare counts;
  Alcotest.(check (array int)) "counts" [| 1; 2; 3 |] counts;
  let h0 = Entropy.h0_of_counts [| 1; 1; 1; 1 |] in
  Alcotest.(check (float 1e-9)) "uniform4" 2.0 h0;
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Entropy.h0_of_counts [||]);
  Alcotest.(check (float 1e-9)) "seq bits" 8.0 (Entropy.sequence_h0_bits [| 1; 1; 1; 1 |])

(* ------------------------------------------------------------------ *)
(* Xoshiro *)

let test_xoshiro_determinism () =
  let a = Xoshiro.create 33 and b = Xoshiro.create 33 in
  for _ = 1 to 100 do
    check_int "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done;
  let c = Xoshiro.create 34 in
  check_bool "different seed different stream" true (Xoshiro.next a <> Xoshiro.next c)

let test_xoshiro_ranges () =
  let rng = Xoshiro.create 55 in
  for _ = 1 to 1000 do
    let v = Xoshiro.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let o = Xoshiro.odd rng ~bits:20 in
    check_bool "odd" true (o land 1 = 1 && o < 1 lsl 20);
    let f = Xoshiro.float rng in
    check_bool "unit float" true (f >= 0. && f < 1.)
  done;
  check_bool "next non-negative" true (Xoshiro.next rng >= 0)

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"bitbuf get_bits/set_bits roundtrip" ~count:300
      (triple (int_bound 61) (int_bound 100) (list_of_size (Gen.return 200) bool))
      (fun (len0, pos0, bits) ->
        let len = max 1 len0 in
        let bits = Array.of_list bits in
        assume (Array.length bits >= pos0 + len);
        let b = Bitbuf.create () in
        Array.iter (Bitbuf.add b) bits;
        let v = Bitbuf.get_bits b pos0 len in
        Bitbuf.set_bits b pos0 len v;
        (* rewriting the same value is the identity *)
        Array.for_all (fun x -> x = true || x = false) bits
        && Bitbuf.to_string b
           = String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0'));
    Test.make ~name:"elias gamma roundtrip" ~count:500
      (int_range 1 1_000_000_000)
      (fun v ->
        let w = Bit_io.Writer.create () in
        Elias.write_gamma w v;
        let r = Bit_io.Reader.create (Bit_io.Writer.buffer w) in
        Elias.read_gamma r = v);
    Test.make ~name:"rle encode/decode identity" ~count:200
      (list_of_size Gen.(int_range 0 300) bool)
      (fun bits ->
        let bits = Array.of_list bits in
        let runs = Rle.of_bits bits in
        let dec = Rle.decode ~total:(Array.length bits) (Rle.encode runs) in
        Rle.to_bits dec = bits);
    Test.make ~name:"popcount sum over halves" ~count:500 (pair small_nat small_nat)
      (fun (a, b) ->
        Broadword.popcount ((a land 0xFFFF) lor ((b land 0xFFFF) lsl 16))
        = Broadword.popcount (a land 0xFFFF) + Broadword.popcount (b land 0xFFFF));
  ]

(* ------------------------------------------------------------------ *)
(* Membuf *)

(* [Membuf.popcount] over every range of buffers of 1 to 24 random
   bytes — ranges ending far from the buffer's end take the one-check
   load loop, those near it the per-chunk path — against a bit-by-bit
   count; a range past either end raises. *)
let test_membuf_popcount () =
  let rng = Xoshiro.create 9 in
  for len = 1 to 24 do
    let s = String.init len (fun _ -> Char.chr (Xoshiro.int rng 256)) in
    let mb = Wt_bits.Membuf.of_string s in
    let bit i = (Char.code s.[i / 8] lsr (i mod 8)) land 1 in
    for pos = 0 to 8 * len do
      let want = ref 0 in
      for n = 0 to (8 * len) - pos do
        check_int (Printf.sprintf "len %d, bits [%d, +%d)" len pos n) !want
          (Wt_bits.Membuf.popcount mb pos n);
        if pos + n < 8 * len then want := !want + bit (pos + n)
      done
    done;
    List.iter
      (fun (pos, n) ->
        check_bool (Printf.sprintf "len %d, bits [%d, +%d) raise" len pos n) true
          (match Wt_bits.Membuf.popcount mb pos n with
          | _ -> false
          | exception Invalid_argument _ -> true))
      [ (0, (8 * len) + 1); (8 * len, 1); (-1, 1); (0, -1) ]
  done

let () =
  Alcotest.run "wt_bits"
    [
      ( "broadword",
        [
          Alcotest.test_case "popcount small" `Quick test_popcount_small;
          Alcotest.test_case "popcount random" `Quick test_popcount_random;
          Alcotest.test_case "select_in_word" `Quick test_select_in_word;
          Alcotest.test_case "select0_in_word" `Quick test_select0_in_word;
          Alcotest.test_case "highest/lowest bit" `Quick test_highest_lowest;
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "reverse_bits" `Quick test_reverse_bits;
        ] );
      ( "bitbuf",
        [
          Alcotest.test_case "basic" `Quick test_bitbuf_basic;
          Alcotest.test_case "random bits" `Quick test_bitbuf_random_bits;
          Alcotest.test_case "set_bits" `Quick test_bitbuf_set_bits;
          Alcotest.test_case "add_bits roundtrip" `Quick test_bitbuf_add_bits_roundtrip;
          Alcotest.test_case "add_run" `Quick test_bitbuf_add_run;
          Alcotest.test_case "pop_count" `Quick test_bitbuf_pop_count;
          Alcotest.test_case "blit/truncate/copy" `Quick test_bitbuf_blit_truncate;
          Alcotest.test_case "of/to string" `Quick test_bitbuf_of_to_string;
        ] );
      ( "elias",
        [
          Alcotest.test_case "gamma roundtrip" `Quick test_elias_gamma_roundtrip;
          Alcotest.test_case "delta roundtrip" `Quick test_elias_delta_roundtrip;
          Alcotest.test_case "code lengths" `Quick test_elias_lengths;
          Alcotest.test_case "big values" `Quick test_elias_big_values;
        ] );
      ( "bit_io",
        [ Alcotest.test_case "reader seek/peek" `Quick test_reader_seek_peek ] );
      ( "rle",
        [
          Alcotest.test_case "of/to bits" `Quick test_rle_of_to_bits;
          Alcotest.test_case "encode/decode" `Quick test_rle_encode_decode;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "binary entropy" `Quick test_entropy_h;
          Alcotest.test_case "binomial bound" `Quick test_entropy_binomial;
          Alcotest.test_case "counts" `Quick test_entropy_counts;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "determinism" `Quick test_xoshiro_determinism;
          Alcotest.test_case "ranges" `Quick test_xoshiro_ranges;
        ] );
      ("membuf", [ Alcotest.test_case "popcount = bit count" `Quick test_membuf_popcount ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
