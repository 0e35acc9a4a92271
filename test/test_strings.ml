(* Tests for wt_strings: Bitstring views/lcp/compare and the prefix-free
   binarization codecs. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Bitbuf = Wt_bits.Bitbuf
module Xoshiro = Wt_bits.Xoshiro

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bs = Bitstring.of_string

let test_basic () =
  check_int "empty" 0 (Bitstring.length Bitstring.empty);
  check_bool "is_empty" true (Bitstring.is_empty Bitstring.empty);
  let t = bs "01101" in
  check_int "length" 5 (Bitstring.length t);
  check_bool "get 0" false (Bitstring.get t 0);
  check_bool "get 1" true (Bitstring.get t 1);
  check_bool "get 4" true (Bitstring.get t 4);
  check_string "to_string" "01101" (Bitstring.to_string t);
  Alcotest.(check (list bool))
    "to_bool_list" [ false; true; true; false; true ] (Bitstring.to_bool_list t);
  check_string "of_bool_list" "01101"
    (Bitstring.to_string (Bitstring.of_bool_list [ false; true; true; false; true ]))

let test_sub_drop_prefix () =
  let t = bs "0110100111" in
  check_string "sub" "1010" (Bitstring.to_string (Bitstring.sub t 2 4));
  check_string "drop" "100111" (Bitstring.to_string (Bitstring.drop t 4));
  check_string "prefix" "011" (Bitstring.to_string (Bitstring.prefix t 3));
  (* nested views *)
  let v = Bitstring.sub (Bitstring.drop t 2) 1 5 in
  check_string "nested" "01001" (Bitstring.to_string v);
  check_string "drop all" "" (Bitstring.to_string (Bitstring.drop t 10))

let test_append_concat () =
  check_string "append" "01101"
    (Bitstring.to_string (Bitstring.append (bs "011") (bs "01")));
  check_string "concat" "0110110"
    (Bitstring.to_string (Bitstring.concat [ bs "01"; bs "101"; bs "10" ]));
  check_string "cons" "1011" (Bitstring.to_string (Bitstring.cons true (bs "011")));
  check_string "snoc" "0111" (Bitstring.to_string (Bitstring.snoc (bs "011") true));
  (* concat of views *)
  let t = bs "11110000" in
  check_string "concat views" "111000"
    (Bitstring.to_string (Bitstring.concat [ Bitstring.prefix t 3; Bitstring.drop t 5 ]))

let test_lcp () =
  check_int "lcp equal" 4 (Bitstring.lcp (bs "0110") (bs "0110"));
  check_int "lcp empty" 0 (Bitstring.lcp Bitstring.empty (bs "0110"));
  check_int "lcp prefix" 3 (Bitstring.lcp (bs "011") (bs "0110"));
  check_int "lcp diverge" 2 (Bitstring.lcp (bs "0110") (bs "0100"));
  check_int "lcp first bit" 0 (Bitstring.lcp (bs "10") (bs "01"));
  (* long strings exercising the word-parallel path *)
  let rng = Xoshiro.create 9 in
  for _ = 1 to 200 do
    let n = 1 + Xoshiro.int rng 300 in
    let a = Array.init n (fun _ -> Xoshiro.bool rng) in
    let k = Xoshiro.int rng (n + 1) in
    (* b = a with bit k flipped (or equal when k = n) *)
    let b = Array.copy a in
    if k < n then b.(k) <- not b.(k);
    let sa = Bitstring.of_bool_list (Array.to_list a) in
    let sb = Bitstring.of_bool_list (Array.to_list b) in
    check_int "lcp random" k (Bitstring.lcp sa sb)
  done

let test_compare () =
  check_int "equal" 0 (Bitstring.compare (bs "0101") (bs "0101"));
  check_bool "prefix sorts first" true (Bitstring.compare (bs "01") (bs "010") < 0);
  check_bool "extension sorts last" true (Bitstring.compare (bs "010") (bs "01") > 0);
  check_bool "0 < 1" true (Bitstring.compare (bs "00") (bs "01") < 0);
  check_bool "1 > 0" true (Bitstring.compare (bs "10") (bs "0111") > 0);
  check_bool "empty least" true (Bitstring.compare Bitstring.empty (bs "0") < 0);
  check_bool "equal views" true (Bitstring.equal (Bitstring.drop (bs "110") 1) (bs "10"));
  check_bool "hash consistent" true
    (Bitstring.hash (Bitstring.drop (bs "11010") 2) = Bitstring.hash (bs "010"))

let test_is_prefix () =
  check_bool "empty prefix" true (Bitstring.is_prefix ~prefix:Bitstring.empty (bs "01"));
  check_bool "proper prefix" true (Bitstring.is_prefix ~prefix:(bs "01") (bs "0110"));
  check_bool "self prefix" true (Bitstring.is_prefix ~prefix:(bs "0110") (bs "0110"));
  check_bool "not prefix" false (Bitstring.is_prefix ~prefix:(bs "00") (bs "0110"));
  check_bool "too long" false (Bitstring.is_prefix ~prefix:(bs "01101") (bs "0110"))

let test_bitbuf_interop () =
  let buf = Bitbuf.of_string "10110" in
  let t = Bitstring.of_bitbuf buf in
  check_string "of_bitbuf" "10110" (Bitstring.to_string t);
  Bitbuf.add buf true;
  check_int "copy is independent" 5 (Bitstring.length t);
  let out = Bitbuf.of_string "00" in
  Bitstring.append_to_bitbuf (Bitstring.drop t 1) out;
  check_string "append_to_bitbuf" "000110" (Bitbuf.to_string out)

(* ------------------------------------------------------------------ *)
(* Binarize *)

let test_bytes_roundtrip () =
  let cases = [ ""; "a"; "abc"; "hello world"; "\x00\xff\x00"; String.make 100 'z' ] in
  List.iter
    (fun s ->
      let enc = Binarize.of_bytes s in
      check_int ("length of " ^ String.escaped s)
        ((9 * String.length s) + 1)
        (Bitstring.length enc);
      check_string ("roundtrip " ^ String.escaped s) s (Binarize.to_bytes enc))
    cases

let test_bytes_prefix_free () =
  (* No encoding is a prefix of another (distinct strings). *)
  let strings = [ ""; "a"; "ab"; "abc"; "b"; "ba"; "\x00"; "aa" ] in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          if s1 <> s2 then
            check_bool
              (Printf.sprintf "%S not prefix of %S" s1 s2)
              false
              (Bitstring.is_prefix ~prefix:(Binarize.of_bytes s1) (Binarize.of_bytes s2)))
        strings)
    strings

let test_bytes_order_preserving () =
  let rng = Xoshiro.create 21 in
  let random_string () =
    String.init (Xoshiro.int rng 12) (fun _ -> Char.chr (Xoshiro.int rng 256))
  in
  for _ = 1 to 500 do
    let a = random_string () and b = random_string () in
    let cmp_bytes = compare a b in
    let cmp_bits = Bitstring.compare (Binarize.of_bytes a) (Binarize.of_bytes b) in
    check_bool
      (Printf.sprintf "order of %S vs %S" a b)
      true
      ((cmp_bytes = 0) = (cmp_bits = 0) && (cmp_bytes < 0) = (cmp_bits < 0))
  done

let test_bytes_malformed () =
  Alcotest.check_raises "empty" (Invalid_argument "Binarize.to_bytes: missing terminator")
    (fun () -> ignore (Binarize.to_bytes Bitstring.empty));
  Alcotest.check_raises "truncated" (Invalid_argument "Binarize.to_bytes: truncated byte")
    (fun () -> ignore (Binarize.to_bytes (bs "101")));
  Alcotest.check_raises "trailing" (Invalid_argument "Binarize.to_bytes: trailing bits")
    (fun () -> ignore (Binarize.to_bytes (bs "011")))

(* The table-driven codec against a bit-at-a-time reference encoder:
   every byte value, at every length from 0 to 64 (so both the six-code
   fast paths and their tails), plus malformed inputs long enough to
   reach the fast path before failing. *)
let reference_encode s =
  let out = Bitbuf.create () in
  String.iter
    (fun c ->
      Bitbuf.add out true;
      for k = 7 downto 0 do
        Bitbuf.add out ((Char.code c lsr k) land 1 = 1)
      done)
    s;
  Bitbuf.add out false;
  Bitstring.of_bitbuf out

let test_bytes_reference () =
  for v = 0 to 255 do
    for len = 0 to 64 do
      let s = String.init len (fun i -> Char.chr ((v + (i * 37)) land 255)) in
      let enc = Binarize.of_bytes s in
      if not (Bitstring.equal enc (reference_encode s)) then
        Alcotest.failf "of_bytes differs from the reference on %S" s;
      if Binarize.to_bytes (reference_encode s) <> s then
        Alcotest.failf "to_bytes does not invert the reference on %S" s
    done
  done;
  let long = reference_encode (String.make 20 '\xff') in
  let n = Bitstring.length long in
  Alcotest.check_raises "missing terminator"
    (Invalid_argument "Binarize.to_bytes: missing terminator") (fun () ->
      ignore (Binarize.to_bytes (Bitstring.prefix long (n - 1))));
  Alcotest.check_raises "truncated byte" (Invalid_argument "Binarize.to_bytes: truncated byte")
    (fun () -> ignore (Binarize.to_bytes (Bitstring.prefix long (n - 5))));
  Alcotest.check_raises "trailing bits" (Invalid_argument "Binarize.to_bytes: trailing bits")
    (fun () -> ignore (Binarize.to_bytes (Bitstring.append long long)))

(* Byte codes.  [canonical code] is a reference: each coded byte's
   codeword, most significant bit first, handed out in order of length
   and then of byte. *)
let canonical code =
  let coded =
    List.filter (fun b -> Binarize.code_length code b > 0) (List.init 256 Fun.id)
    |> List.stable_sort (fun a b ->
           compare (Binarize.code_length code a) (Binarize.code_length code b))
  in
  let next = ref 0 and len = ref 0 in
  List.map
    (fun b ->
      let l = Binarize.code_length code b in
      next := !next lsl (l - !len);
      len := l;
      let cw = !next in
      incr next;
      (b, l, cw))
    coded

let set_of bytes =
  let seen = Bytes.make 256 '\000' in
  List.iter (fun b -> Bytes.set seen b '\001') bytes;
  Binarize.set_of_flags seen

let membuf_of bb =
  let b = Buffer.create 64 in
  Bitbuf.add_to_buffer b bb;
  Wt_bits.Membuf.of_string (Buffer.contents b)

(* [code]'s lengths are capped and meet the Kraft inequality; every
   codeword decodes back to its byte (alone at bit depth 9, as an
   internal label's one whole byte, from bit 3 of a buffer); bits that
   start no codeword neither decode nor compare in place; and the end
   field's width follows the shortest codeword. *)
let check_code ctx code =
  let cws = canonical code in
  check_int (ctx ^ ": bytes coded") (List.length cws) (Binarize.code_bytes code);
  let kraft = List.fold_left (fun acc (_, l, _) -> acc + (1 lsl (12 - l))) 0 cws in
  check_bool (ctx ^ ": Kraft sum at most 1") true (kraft <= 1 lsl 12);
  List.iter
    (fun (b, l, cw) ->
      check_bool (ctx ^ ": length within the cap") true (l >= 1 && l <= Binarize.max_code_length);
      check_bool (ctx ^ ": codeword fits its length") true (cw < 1 lsl l);
      let stored = Bitbuf.create () in
      Bitbuf.add_bits stored 3 0b101;
      Bitbuf.add_bits stored l (Wt_bits.Broadword.reverse_bits cw l);
      let out = Bitbuf.create () in
      Binarize.unpack code (membuf_of stored) 3 ~depth:9 ~stored:l 9 ~leaf:false out;
      check_string
        (Printf.sprintf "%s: byte %d decodes" ctx b)
        (Bitstring.to_string (Bitstring.sub (Binarize.of_bytes (String.make 1 (Char.chr b))) 0 9))
        (Bitbuf.to_string out))
    cws;
  let lmax = Binarize.longest code in
  for v = 0 to (1 lsl lmax) - 1 do
    (* v, most significant bit first, starts no codeword *)
    if not (List.exists (fun (_, l, cw) -> l <= lmax && v lsr (lmax - l) = cw) cws) then begin
      let stored = Bitbuf.create () in
      Bitbuf.add_bits stored 3 0;
      Bitbuf.add_bits stored lmax (Wt_bits.Broadword.reverse_bits v lmax);
      let mb = membuf_of stored in
      (match Binarize.unpack code mb 3 ~depth:9 ~stored:lmax 9 ~leaf:false (Bitbuf.create ()) with
      | () -> Alcotest.failf "%s: bits %d decoded" ctx v
      | exception Invalid_argument _ -> ());
      match Binarize.lcp code mb 3 ~depth:9 ~stored:lmax 9 ~leaf:false (Binarize.of_bytes "ab") 0 with
      | _ -> Alcotest.failf "%s: bits %d compared" ctx v
      | exception Invalid_argument _ -> ()
    end
  done;
  let lmin = List.fold_left (fun acc (_, l, _) -> Int.min acc l) lmax cws in
  check_int (ctx ^ ": shortest") lmin (Binarize.shortest code);
  check_int (ctx ^ ": end field width")
    (Wt_bits.Broadword.bit_width ((7 / lmin) + 1))
    (Binarize.end_width code)

let huffman counts = Binarize.code_of_lengths (Binarize.huffman_lengths counts)

(* Huffman's cost, the sum of its merged weights, by a sorted list. *)
let huffman_cost counts =
  let rec go acc = function
    | a :: b :: rest -> go (acc + a + b) (List.merge compare [ a + b ] rest)
    | _ -> acc
  in
  go 0 (List.sort compare (List.filter (fun c -> c > 0) (Array.to_list counts)))

(* Codes over random histograms (with their Huffman cost whenever no
   length reaches the cap), a one-byte set, all 256 bytes, no byte, and
   a Fibonacci-weighted histogram whose Huffman code runs past the cap;
   B's fixed-width codes; and lengths that break the cap or the Kraft
   inequality, which are refused. *)
let test_byte_codes () =
  let rng = Xoshiro.create 5 in
  for i = 1 to 40 do
    let counts =
      Array.init 256 (fun _ ->
          if Xoshiro.int rng (1 + (i mod 7)) = 0 then Xoshiro.int rng (1 lsl (1 + (i mod 20))) else 0)
    in
    let code = huffman counts in
    let ctx = Printf.sprintf "histogram %d" i in
    check_code ctx code;
    let cost = ref 0 in
    Array.iteri (fun b c -> cost := !cost + (c * Binarize.code_length code b)) counts;
    if Binarize.longest code < Binarize.max_code_length && Binarize.code_bytes code > 1 then
      check_int (ctx ^ ": Huffman's cost") (huffman_cost counts) !cost;
    check_string (ctx ^ ": the same counts, the same code") (Binarize.huffman_lengths counts)
      (Binarize.huffman_lengths (Array.copy counts))
  done;
  let one = huffman (Array.init 256 (fun b -> if b = 0x61 then 9 else 0)) in
  check_code "one byte" one;
  check_int "one byte: one bit" 1 (Binarize.code_length one 0x61);
  let all = huffman (Array.make 256 3) in
  check_code "all 256 bytes" all;
  check_int "all 256 bytes: eight bits" 8 (Binarize.shortest all);
  let none = huffman (Array.make 256 0) in
  check_code "no byte" none;
  check_int "no byte: bytes" 0 (Binarize.code_bytes none);
  let fib = Array.make 256 0 in
  let a = ref 1 and b = ref 1 in
  for i = 0 to 29 do
    fib.(i * 5) <- !a;
    let c = !a + !b in
    a := !b;
    b := c
  done;
  let capped = huffman fib in
  check_code "Fibonacci weights" capped;
  check_int "Fibonacci weights: capped" Binarize.max_code_length (Binarize.longest capped);
  List.iter
    (fun size ->
      let set = set_of (List.init size (fun i -> (i * 37) land 255)) in
      let code = Binarize.fixed_code set in
      let w = Int.max 1 (Wt_bits.Broadword.bit_width (size - 1)) in
      check_code (Printf.sprintf "fixed, %d bytes" size) code;
      check_int "fixed width" w (Binarize.longest code);
      List.iteri
        (fun r (b, l, cw) ->
          check_bool "a byte of B" true (Binarize.mem set b);
          check_int "its rank in w bits" w l;
          check_int "its rank" r cw)
        (canonical code))
    [ 1; 2; 3; 5; 32; 200; 256 ];
  let raises l =
    match Binarize.code_of_lengths l with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "a length past the cap" true (raises (String.make 1 '\013' ^ String.make 255 '\000'));
  check_bool "past Kraft" true (raises (String.make 3 '\001' ^ String.make 253 '\000'));
  check_bool "not 256 lengths" true (raises (String.make 255 '\000'))

(* The codes labels are tested in: B's fixed-width codes of 1 to 256
   bytes (widths 1, 1, 2, 5, 8 and 8), the last all 256 bytes, whose
   codeword is a byte's data bits; and Huffman codes of a skewed
   histogram over 40 bytes, of one byte (one 1-bit codeword, the rest
   of its code space unused) and of one dominant byte (a 1-bit
   codeword, so a 4-bit end field). *)
let codes =
  let rng = Xoshiro.create 17 in
  let some k = List.sort_uniq compare (List.init k (fun _ -> Xoshiro.int rng 256)) in
  let skewed = Array.make 256 0 in
  List.iteri (fun i b -> skewed.(b) <- 1 + (1000 / (i + 1))) (some 40);
  let dominant = Array.init 256 (fun b -> if b < 9 then if b = 4 then 1000 else 1 + b else 0) in
  List.map
    (fun c -> (c, true))
    (List.map Binarize.fixed_code
       [ set_of [ 0x61 ]; set_of [ 0x00; 0xff ]; set_of [ 0x00; 0x61; 0xff ]; set_of (some 40);
         set_of (some 400); Binarize.full_set ])
  @ List.map
      (fun counts -> (huffman counts, false))
      [ skewed; Array.init 256 (fun b -> if b = 0x61 then 1 else 0); dominant ]

(* The bytes a code holds, for strings drawn from them. *)
let coded code = Array.of_list (List.map (fun (b, _, _) -> b) (canonical code))

(* The stored bits of a label of [len] bits from [depth] of [s]'s
   encoding: its data bits, the whole bytes' as their codewords. *)
let stored_length code s ~depth len =
  let bits = ref 0 in
  for p = depth to depth + len - 1 do
    if p mod 9 <> 0 then bits := !bits + 1
  done;
  String.iteri
    (fun i c ->
      if (9 * i) + 1 >= depth && (9 * i) + 9 <= depth + len then
        bits := !bits - 8 + Binarize.code_length code (Char.code c))
    s;
  !bits

let pack_range code enc depth stop =
  let stored = Bitbuf.create () and dropped = Bitbuf.create () in
  (* three junk bits first, so [unpack] reads at an odd offset *)
  Bitbuf.add_bits stored 3 0b101;
  let p = ref depth in
  while !p < stop do
    (* the last marker position within a pseudo-random reach, or the
       next one *)
    let e = (!p + 1 + ((!p * 7) mod 56)) / 9 * 9 in
    let e = if e > !p then e else ((!p / 9) + 1) * 9 in
    let take = Int.min (stop - !p) (e - !p) in
    let m = Binarize.markers ~depth:!p take in
    Bitbuf.add_bits dropped m
      (Binarize.pack_bits code stored ~depth:!p take (Bitstring.get_bits enc !p take));
    p := !p + take
  done;
  (stored, dropped)

let pack_rest code enc depth = pack_range code enc depth (Bitstring.length enc)

(* [Binarize.lcp] of a packed label, stored from bit 3 of [mb], against
   queries from bit 5 of a bitstring: the label and one bit more, and
   three times a random prefix and the label with a random bit flipped,
   each as [Bitstring.lcp_from] finds it on the decoded [label]. *)
let check_lcp rng ctx code mb ~depth ~stored ~leaf label =
  let len = Bitstring.length label in
  let junk = Bitstring.of_bool_list [ true; false; true; true; false ] in
  let bit b = Bitstring.of_bool_list [ b ] in
  let check what s =
    check_int (Printf.sprintf "%s: lcp with %s" ctx what) (Bitstring.lcp_from label s 5)
      (Binarize.lcp code mb 3 ~depth ~stored len ~leaf s 5)
  in
  check "the label and a bit" (Bitstring.concat [ junk; label; bit true ]);
  for _ = 1 to 3 do
    let k = Xoshiro.int rng (len + 1) in
    check "a prefix" (Bitstring.concat [ junk; Bitstring.sub label 0 k ]);
    if k < len then
      check "a bit flipped"
        (Bitstring.concat
           [
             junk;
             Bitstring.sub label 0 k;
             bit (not (Bitstring.get label k));
             Bitstring.drop label (k + 1);
           ])
  done

let unpacked code mb ~depth ~stored =
  let len = Binarize.leaf_length code mb 3 ~depth ~stored in
  if len < 0 then invalid_arg "no leaf label";
  let out = Bitbuf.create () in
  Binarize.unpack code mb 3 ~depth ~stored len ~leaf:true out;
  Bitstring.of_bitbuf out

(* Leaf labels without marker bits: the rest of an encoded string from
   every bit depth (every phase mod 9, lengths 0 to 40 bytes) packs, in
   pieces that each end at a marker position or at the label's end, to
   its stored bits, dropping ones and then the terminator; its codewords
   give back its length, and it unpacks from that depth back to itself
   and compares in place as its bits do.  Each string is drawn from its
   code's bytes.  Under a fixed-width code the stored lengths seen are
   the only ones [leaf_length] accepts, and each gives back its label's
   length, whatever the bits. *)
let test_leaf_labels () =
  let rng = Xoshiro.create 9 and lrng = Xoshiro.create 41 in
  List.iteri
    (fun ci (code, fixed) ->
      let bytes = coded code in
      let seen = Hashtbl.create 64 in
      for len = 0 to 40 do
        let s =
          String.init len (fun _ -> Char.chr bytes.(Xoshiro.int rng (Array.length bytes)))
        in
        let enc = Binarize.of_bytes s in
        for depth = 0 to Bitstring.length enc do
          let rest = Bitstring.drop enc depth in
          let stored, dropped = pack_rest code enc depth in
          let d = Bitbuf.length stored - 3 and m = Bitbuf.length dropped in
          let ctx = Printf.sprintf "code %d: %d bytes from depth %d" ci len depth in
          (match Hashtbl.find_opt seen (depth mod 9, d) with
          | Some l ->
              if fixed then check_int (ctx ^ ": one length a stored length") l (Bitstring.length rest)
          | None -> Hashtbl.replace seen (depth mod 9, d) (Bitstring.length rest));
          check_int (ctx ^ ": bits stored")
            (stored_length code s ~depth (Bitstring.length rest))
            d;
          let mb = membuf_of stored in
          check_int (ctx ^ ": logical length") (Bitstring.length rest)
            (Binarize.leaf_length code mb 3 ~depth ~stored:d);
          (* a one before each byte, then the terminator *)
          for i = 0 to m - 1 do
            check_bool (ctx ^ ": dropped bit") (i < m - 1) (Bitbuf.get dropped i)
          done;
          check_bool (ctx ^ ": round trip") true
            (Bitstring.equal rest (unpacked code mb ~depth ~stored:d));
          check_lcp lrng ctx code mb ~depth ~stored:d ~leaf:true rest
        done
      done;
      (* the terminator-only label (phase 0) and the empty one (phase 1) *)
      let mb = membuf_of (Bitbuf.create ()) in
      check_string "terminator only" "0"
        (Bitstring.to_string (unpacked code mb ~depth:9 ~stored:0));
      check_string "empty" "" (Bitstring.to_string (unpacked code mb ~depth:10 ~stored:0));
      if fixed then begin
        let w = Binarize.longest code in
        let junk = Bitbuf.create () in
        Bitbuf.add_run junk true 400;
        let mb = membuf_of junk in
        for depth = 0 to 17 do
          for d = 0 to 39 * w do
            check_int
              (Printf.sprintf "w %d: stored length %d at depth %d" w d depth)
              (Option.value ~default:(-1) (Hashtbl.find_opt seen (depth mod 9, d)))
              (Binarize.leaf_length code mb 3 ~depth ~stored:d)
          done
        done
      end)
    codes;
  (* a byte outside the code, and a byte cut by the piece's end, which
     keeps its data bits *)
  let code, _ = List.hd codes in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let enc = Binarize.of_bytes "b" in
  check_bool "byte outside the code" true
    (raises (fun () ->
         Binarize.pack_bits code (Bitbuf.create ()) ~depth:0 10 (Bitstring.get_bits enc 0 10)));
  let enc = Binarize.of_bytes "a" in
  let cut = Bitbuf.create () in
  check_int "cut byte: marker dropped" 1
    (Binarize.pack_bits code cut ~depth:0 5 (Bitstring.get_bits enc 0 5));
  check_string "cut byte: raw data bits" (Bitstring.to_string (Bitstring.sub enc 1 4))
    (Bitstring.to_string (Bitstring.of_bitbuf cut));
  (* the byte set of some strings, and one label walk over them that
     counts the whole bytes of labels starting at depth 9 *)
  let strings = [| "ab"; ""; "\x00\xff"; "ab" |] in
  check_string "byte_set" (set_of [ 0x00; 0x61; 0x62; 0xff ]) (Binarize.byte_set strings);
  let seen = Bytes.make 256 '\000' and counts = Array.make 256 0 in
  Array.iter
    (fun s ->
      let enc = Binarize.of_bytes s in
      let part = ref 0 and p = ref 0 in
      while !p < Bitstring.length enc do
        let take = Int.min (1 + (!p mod 5)) (Bitstring.length enc - !p) in
        part :=
          Binarize.label_bytes seen counts ~start:9 ~depth:!p take (Bitstring.get_bits enc !p take)
            !part;
        p := !p + take
      done)
    strings;
  check_string "label_bytes" (Binarize.byte_set strings) (Binarize.set_of_flags seen);
  check_int "whole bytes from depth 9: b twice" 2 counts.(0x62);
  check_int "whole bytes from depth 9: 0xff" 1 counts.(0xff);
  check_int "whole bytes from depth 9: no a" 0 counts.(0x61)

(* Version 8's end field: the index of the label's end state among
   those its stored length admits under a fixed-width code, found by
   trying every length from the depth. *)
let v8_field code ~depth len =
  let w = Binarize.longest code in
  let stored l =
    l - Binarize.markers ~depth l - ((8 - w) * Binarize.whole_bytes ~depth l)
  in
  let d = stored len in
  let states =
    List.sort_uniq compare
      (List.filter_map
         (fun l -> if stored l = d then Some ((depth + l) mod 9) else None)
         (List.init ((9 * (d + 2)) + 9) Fun.id))
  in
  let rec index i = function
    | m :: rest -> if m = (depth + len) mod 9 then i else index (i + 1) rest
    | [] -> -1
  in
  index 0 states

(* Internal labels: every run of an encoded string's bits that stops
   before its terminator, from every depth phase (a byte above, so a
   first byte can be cut) to every end state, over 0 to 40 bytes,
   packs in pieces to its stored bits, dropping only ones; its end field
   fits the field's width, and with its stored bits gives back its
   length; it unpacks to itself and is compared in place as its decoded
   bits are.  Under B's fixed-width codes of 1, 2, 3, 5, 9, 17, 33, 65,
   129 and 256 bytes (w = 1, 1, 2, 3, 4, 5, 6, 7, 8, 8: every end field
   width) the field is version 8's, a stored length admits up to
   7 / w + 2 end states, and on bits of all ones each stored length and
   field seen gives back its label's length while every other one up
   to 30 bytes is rejected; the Huffman codes of [codes] admit at most
   7 / lmin + 2. *)
let test_internal_labels () =
  let rng = Xoshiro.create 23 and lrng = Xoshiro.create 43 in
  let fixed size =
    let set =
      if size = 256 then Binarize.full_set
      else
        set_of
          (List.filteri (fun i _ -> i < size)
             (List.sort_uniq compare (List.init 256 (fun b -> (b * 37) land 255))))
    in
    (Binarize.fixed_code set, true)
  in
  List.iter
    (fun (code, fixed) ->
      let lmin = Binarize.shortest code and x = Binarize.end_width code in
      let bytes = coded code in
      let seen = Hashtbl.create 1024 and most = ref 0 in
      for phase = 0 to 8 do
        for nbytes = 0 to 40 do
          let s =
            String.init 44 (fun _ -> Char.chr bytes.(Xoshiro.int rng (Array.length bytes)))
          in
          let enc = Binarize.of_bytes s in
          for m = 0 to 8 do
            let depth = 9 + phase in
            let len = (9 * nbytes) + ((m - phase + 9) mod 9) in
            let ctx = Printf.sprintf "lmin %d, x %d: %d bits from depth %d" lmin x len depth in
            let stored, dropped = pack_range code enc depth (depth + len) in
            let d = Bitbuf.length stored - 3 in
            check_int (ctx ^ ": markers dropped") (Binarize.markers ~depth len)
              (Bitbuf.length dropped);
            check_bool (ctx ^ ": every marker a one") true
              (Bitbuf.pop_count dropped 0 (Bitbuf.length dropped) = Bitbuf.length dropped);
            check_int (ctx ^ ": bits stored") (stored_length code s ~depth len) d;
            let field = Binarize.end_field code stored 3 ~depth ~stored:d len in
            check_bool (ctx ^ ": field fits") true (field >= 0 && field < 1 lsl x);
            if fixed then check_int (ctx ^ ": version 8's field") (v8_field code ~depth len) field;
            most := Int.max !most field;
            (match Hashtbl.find_opt seen (phase, d, field) with
            | Some l -> if fixed then check_int (ctx ^ ": one length a state") l len
            | None -> Hashtbl.replace seen (phase, d, field) len);
            let mb = membuf_of stored in
            check_int (ctx ^ ": length") len
              (Binarize.internal_length code mb 3 ~depth ~stored:d field);
            let out = Bitbuf.create () in
            Binarize.unpack code mb 3 ~depth ~stored:d len ~leaf:false out;
            let label = Bitstring.of_bitbuf out in
            check_bool (ctx ^ ": round trip") true
              (Bitstring.equal (Bitstring.sub enc depth len) label);
            check_lcp lrng ctx code mb ~depth ~stored:d ~leaf:false label
          done
        done
      done;
      if fixed then
        check_int (Printf.sprintf "w %d: end states of one stored length" lmin) ((7 / lmin) + 2)
          (!most + 1)
      else check_bool "end states within the field" true (!most + 1 <= (7 / lmin) + 2);
      if fixed then begin
        let junk = Bitbuf.create () in
        Bitbuf.add_run junk true 400;
        let mb = membuf_of junk in
        for depth = 0 to 17 do
          for d = -1 to 30 * lmin do
            for field = 0 to (1 lsl x) - 1 do
              let len = Binarize.internal_length code mb 3 ~depth ~stored:d field in
              let ctx = Printf.sprintf "w %d: stored %d, field %d at depth %d" lmin d field depth in
              match Hashtbl.find_opt seen (depth mod 9, d, field) with
              | Some l -> check_int (ctx ^ ": its label's length") l len
              | None -> check_int ctx (-1) len
            done
          done
        done
      end)
    (List.map fixed [ 1; 2; 3; 5; 9; 17; 33; 65; 129; 256 ]
    @ List.filter (fun (_, fixed) -> not fixed) codes)

let test_int_codecs () =
  check_string "msb 5 w4" "0101" (Bitstring.to_string (Binarize.of_int_msb ~width:4 5));
  check_string "lsb 5 w4" "1010" (Bitstring.to_string (Binarize.of_int_lsb ~width:4 5));
  let rng = Xoshiro.create 31 in
  for _ = 1 to 300 do
    let width = 1 + Xoshiro.int rng 61 in
    let v = Xoshiro.next rng land Wt_bits.Broadword.mask width in
    check_int "msb roundtrip" v (Binarize.to_int_msb (Binarize.of_int_msb ~width v));
    check_int "lsb roundtrip" v (Binarize.to_int_lsb (Binarize.of_int_lsb ~width v))
  done;
  (* MSB-first preserves numeric order at fixed width *)
  for _ = 1 to 200 do
    let a = Xoshiro.int rng 1000 and b = Xoshiro.int rng 1000 in
    let ba = Binarize.of_int_msb ~width:10 a and bb = Binarize.of_int_msb ~width:10 b in
    check_bool "numeric order" true ((compare a b < 0) = (Bitstring.compare ba bb < 0))
  done

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"bytes encode/decode" ~count:300 string (fun s ->
        Binarize.to_bytes (Binarize.of_bytes s) = s);
    Test.make ~name:"lcp symmetric and bounded" ~count:300
      (pair (list bool) (list bool))
      (fun (a, b) ->
        let sa = Bitstring.of_bool_list a and sb = Bitstring.of_bool_list b in
        let l = Bitstring.lcp sa sb in
        l = Bitstring.lcp sb sa && l <= min (List.length a) (List.length b));
    Test.make ~name:"compare total order vs bool lists" ~count:300
      (pair (list bool) (list bool))
      (fun (a, b) ->
        let sa = Bitstring.of_bool_list a and sb = Bitstring.of_bool_list b in
        let expected = compare a b in
        (* OCaml list compare on bools is lexicographic with false < true *)
        let got = Bitstring.compare sa sb in
        (expected = 0) = (got = 0) && (expected < 0) = (got < 0));
    Test.make ~name:"sub/append identity" ~count:300
      (pair (list bool) small_nat)
      (fun (l, k0) ->
        let t = Bitstring.of_bool_list l in
        let n = Bitstring.length t in
        let k = if n = 0 then 0 else k0 mod (n + 1) in
        Bitstring.equal t (Bitstring.append (Bitstring.prefix t k) (Bitstring.drop t k)));
  ]

let () =
  Alcotest.run "wt_strings"
    [
      ( "bitstring",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "sub/drop/prefix" `Quick test_sub_drop_prefix;
          Alcotest.test_case "append/concat" `Quick test_append_concat;
          Alcotest.test_case "lcp" `Quick test_lcp;
          Alcotest.test_case "compare/equal/hash" `Quick test_compare;
          Alcotest.test_case "is_prefix" `Quick test_is_prefix;
          Alcotest.test_case "bitbuf interop" `Quick test_bitbuf_interop;
        ] );
      ( "binarize",
        [
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "prefix-free" `Quick test_bytes_prefix_free;
          Alcotest.test_case "order-preserving" `Quick test_bytes_order_preserving;
          Alcotest.test_case "malformed input" `Quick test_bytes_malformed;
          Alcotest.test_case "matches the bitwise reference" `Quick test_bytes_reference;
          Alcotest.test_case "int codecs" `Quick test_int_codecs;
          Alcotest.test_case "leaf labels without marker bits" `Quick test_leaf_labels;
          Alcotest.test_case "internal labels without marker bits" `Quick test_internal_labels;
          Alcotest.test_case "byte codes" `Quick test_byte_codes;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
