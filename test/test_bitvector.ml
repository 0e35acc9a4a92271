(* Tests for wt_bitvector: every implementation is validated against a
   naive reference model on random and adversarial bit sequences. *)

module Bitbuf = Wt_bits.Bitbuf
module Xoshiro = Wt_bits.Xoshiro
module Plain = Wt_bitvector.Plain
module Rrr = Wt_bitvector.Rrr
module Appendable = Wt_bitvector.Appendable
module Dyn_rle = Wt_bitvector.Dyn_rle
module Dyn_gap = Wt_bitvector.Dyn_gap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Reference model *)

module Model = struct
  type t = { mutable bits : bool array }

  let create () = { bits = [||] }
  let of_array bits = { bits = Array.copy bits }
  let length t = Array.length t.bits
  let access t pos = t.bits.(pos)

  let rank t b pos =
    let acc = ref 0 in
    for i = 0 to pos - 1 do
      if t.bits.(i) = b then incr acc
    done;
    !acc

  let select t b k =
    let seen = ref 0 in
    let res = ref (-1) in
    Array.iteri
      (fun i bit ->
        if bit = b then begin
          if !seen = k && !res < 0 then res := i;
          incr seen
        end)
      t.bits;
    if !res < 0 then raise Not_found else !res

  let count t b = rank t b (length t)

  let insert t pos b =
    let n = Array.length t.bits in
    let out = Array.make (n + 1) false in
    Array.blit t.bits 0 out 0 pos;
    out.(pos) <- b;
    Array.blit t.bits pos out (pos + 1) (n - pos);
    t.bits <- out

  let delete t pos =
    let n = Array.length t.bits in
    let out = Array.make (n - 1) false in
    Array.blit t.bits 0 out 0 pos;
    Array.blit t.bits (pos + 1) out pos (n - 1 - pos);
    t.bits <- out

  let append t b = insert t (Array.length t.bits) b
end

(* Interesting bit distributions, including the adversarial ones for the
   compressed encodings: very sparse, very dense, long runs. *)
let patterns rng n =
  [
    ("uniform", Array.init n (fun _ -> Xoshiro.bool rng));
    ("sparse", Array.init n (fun _ -> Xoshiro.int rng 64 = 0));
    ("dense", Array.init n (fun _ -> Xoshiro.int rng 64 <> 0));
    ("all-zero", Array.make n false);
    ("all-one", Array.make n true);
    ( "runs",
      let bits = Array.make n false in
      let i = ref 0 in
      let b = ref false in
      while !i < n do
        let run = 1 + Xoshiro.int rng 200 in
        for j = !i to min (n - 1) (!i + run - 1) do
          bits.(j) <- !b
        done;
        i := !i + run;
        b := not !b
      done;
      bits );
    ("alternating", Array.init n (fun i -> i land 1 = 0));
  ]

(* Full agreement check between a static implementation and the model. *)
let agree ~name ~access ~rank ~select ~length ~rng model =
  let n = Model.length model in
  check_int (name ^ " length") n (length ());
  (* all positions for small inputs, random sample for large *)
  let positions =
    if n <= 300 then List.init n Fun.id
    else List.init 300 (fun _ -> Xoshiro.int rng n)
  in
  List.iter
    (fun pos ->
      check_bool (name ^ " access") (Model.access model pos) (access pos);
      check_int (name ^ " rank1") (Model.rank model true pos) (rank true pos);
      check_int (name ^ " rank0") (Model.rank model false pos) (rank false pos))
    positions;
  check_int (name ^ " rank1 end") (Model.count model true) (rank true n);
  check_int (name ^ " rank0 end") (Model.count model false) (rank false n);
  List.iter
    (fun b ->
      let total = Model.count model b in
      let idxs =
        if total = 0 then []
        else if total <= 100 then List.init total Fun.id
        else List.init 100 (fun _ -> Xoshiro.int rng total)
      in
      List.iter
        (fun k -> check_int (name ^ " select") (Model.select model b k) (select b k))
        idxs)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Plain *)

let test_plain_patterns () =
  let rng = Xoshiro.create 101 in
  List.iter
    (fun n ->
      List.iter
        (fun (pname, bits) ->
          let model = Model.of_array bits in
          let buf = Bitbuf.create () in
          Array.iter (Bitbuf.add buf) bits;
          let bv = Plain.of_bitbuf buf in
          agree
            ~name:(Printf.sprintf "plain/%s/%d" pname n)
            ~access:(Plain.access bv) ~rank:(Plain.rank bv) ~select:(Plain.select bv)
            ~length:(fun () -> Plain.length bv)
            ~rng model;
          check_int "ones" (Model.count model true) (Plain.ones bv);
          check_int "zeros" (Model.count model false) (Plain.zeros bv))
        (patterns rng n))
    [ 0; 1; 2; 55; 56; 57; 447; 448; 449; 1000; 5000 ]

let test_plain_bounds () =
  let bv = Plain.of_string "0110" in
  Alcotest.check_raises "access -1" (Invalid_argument "Plain.access: position -1 out of [0, 4)")
    (fun () -> ignore (Plain.access bv (-1)));
  Alcotest.check_raises "rank 5" (Invalid_argument "Plain.rank: position 5 out of [0, 4]")
    (fun () -> ignore (Plain.rank bv true 5));
  Alcotest.check_raises "select 2" (Invalid_argument "Plain.select: index 2 out of [0, 2)")
    (fun () -> ignore (Plain.select bv true 2))

(* ------------------------------------------------------------------ *)
(* Rrr *)

(* The bits a blob holds, decoded block by block. *)
let rrr_bits bv =
  let out = Bitbuf.create () in
  let rest = ref (Rrr.length bv) in
  Rrr.iter_blocks bv (fun block ->
      Bitbuf.add_bits out (Int.min Rrr.block_bits !rest) block;
      rest := !rest - Rrr.block_bits);
  out

let test_rrr_patterns () =
  let rng = Xoshiro.create 202 in
  List.iter
    (fun n ->
      List.iter
        (fun (pname, bits) ->
          let model = Model.of_array bits in
          let buf = Bitbuf.create () in
          Array.iter (Bitbuf.add buf) bits;
          let bv = Rrr.of_bitbuf buf in
          agree
            ~name:(Printf.sprintf "rrr/%s/%d" pname n)
            ~access:(Rrr.access bv) ~rank:(Rrr.rank bv) ~select:(Rrr.select bv)
            ~length:(fun () -> Rrr.length bv)
            ~rng model;
          (* decoding gives back the input *)
          check_bool "roundtrip" true (Bitbuf.equal buf (rrr_bits bv)))
        (patterns rng n))
    [ 0; 1; 61; 62; 63; 991; 992; 993; 3000 ]

(* The flat blob encoded straight from 62-bit blocks, opened at an
   unaligned offset inside a larger stream, answers like the model —
   one superblock (no directory) and several (with one) — and decodes
   back to the same blocks. *)
let test_rrr_flat_blocks () =
  let rng = Xoshiro.create 404 in
  List.iter
    (fun n ->
      List.iter
        (fun (pname, bits) ->
          let model = Model.of_array bits in
          let blocks = Array.make ((n / Rrr.block_bits) + 1) 0 in
          Array.iteri
            (fun i b ->
              if b then
                blocks.(i / Rrr.block_bits) <-
                  blocks.(i / Rrr.block_bits) lor (1 lsl (i mod Rrr.block_bits)))
            bits;
          let stream = Bitbuf.create () in
          Bitbuf.add_bits stream 5 0b10110;
          Rrr.append_blocks stream blocks ~len:n;
          let blob_bits = Bitbuf.length stream - 5 in
          Bitbuf.add_bits stream 7 0b1111111;
          let out = Buffer.create 64 in
          Bitbuf.add_to_buffer out stream;
          let mb = Wt_bits.Membuf.of_string (Buffer.contents out) in
          let bv = Rrr.of_membuf mb 5 ~len:n ~version:Rrr.newest_version in
          check_int "blob length" blob_bits (Rrr.space_bits bv);
          agree
            ~name:(Printf.sprintf "rrr-flat/%s/%d" pname n)
            ~access:(Rrr.access bv) ~rank:(Rrr.rank bv) ~select:(Rrr.select bv)
            ~length:(fun () -> Rrr.length bv)
            ~rng model;
          check_int "ones" (Model.count model true) (Rrr.ones bv);
          let decoded = ref [] in
          Rrr.iter_blocks bv (fun block -> decoded := block :: !decoded);
          Alcotest.(check (list int))
            (Printf.sprintf "blocks %s/%d" pname n)
            (Array.to_list (Array.sub blocks 0 ((n + Rrr.block_bits - 1) / Rrr.block_bits)))
            (List.rev !decoded))
        (patterns rng n))
    [ 0; 1; 61; 62; 63; 991; 992; 993; 3000 ]

(* The flat blob over every tail length, in each code: lengths 62q + r
   for every r in 1..62 and q in {0, 1, 15, 16, 17} — one block, two,
   and both sides of the superblock boundary where the RRR directory
   appears — plus exact multiples of 62, each at five densities, and
   each blob written by the chooser and forced into either code.  Every
   query, the cursor, the iterator and the block decoder agree with
   [Plain] over the same bits, and the blob is exactly as long as its
   parts computed here from the bits: a one-block blob's class
   (bit_width r) and offset; a class-range RRR blob's tag, base and
   width, directory, classes (bit_width (cmax - cmin) each) and each
   block's offset, ceil (log2 C(m, c)) bits over its m coded positions
   (62, or r for the last block); a plain blob's tag, one bit_width len
   sample per 512 bits, and its bits. *)

let flat_lengths =
  List.concat_map (fun q -> List.init 62 (fun r -> (62 * q) + r + 1)) [ 0; 1; 15; 16; 17 ]
  @ [ 0; 992; 1984 ]

type density = Zeros | One_set | Half | All_but_one | Ones

let densities = [ Zeros; One_set; Half; All_but_one; Ones ]

let flat_bits len density seed =
  let rng = Xoshiro.create seed in
  let pick = if len = 0 then -1 else Xoshiro.int rng len in
  Array.init len (fun i ->
      match density with
      | Zeros -> false
      | One_set -> i = pick
      | Half -> Xoshiro.bool rng
      | All_but_one -> i <> pick
      | Ones -> true)

(* Pascal's triangle and bit widths, apart from the coder's own. *)
let pascal =
  let t = Array.make_matrix 63 63 0 in
  for n = 0 to 62 do
    t.(n).(0) <- 1;
    for k = 1 to n do
      t.(n).(k) <- t.(n - 1).(k - 1) + if k < n then t.(n - 1).(k) else 0
    done
  done;
  t

let rec bits_for x = if x = 0 then 0 else 1 + bits_for (x lsr 1)
let ceil_log2 x = if x <= 1 then 0 else bits_for (x - 1)

(* The RRR blob of [bits]: a one-block blob, or a class-range one. *)
let rrr_blob_bits bits =
  let len = Array.length bits in
  let nblocks = (len + 61) / 62 in
  let nsb = (nblocks + 15) / 16 in
  let dir = if nsb > 1 then 2 * nsb * bits_for (64 * nblocks) else 0 in
  let tail = len - (62 * (nblocks - 1)) in
  let offsets = ref 0 and cmin = ref 62 and cmax = ref 0 in
  for blk = 0 to nblocks - 1 do
    let m = if blk = nblocks - 1 then tail else 62 in
    let c = ref 0 in
    for i = 0 to m - 1 do
      if bits.((62 * blk) + i) then incr c
    done;
    cmin := min !cmin !c;
    cmax := max !cmax !c;
    offsets := !offsets + ceil_log2 pascal.(m).(!c)
  done;
  if nblocks <= 1 then (if nblocks = 1 then bits_for tail else 0) + !offsets
  else 10 + dir + (nblocks * bits_for (!cmax - !cmin)) + !offsets

let plain_blob_bits len = 1 + ((len + 511) / 512 * bits_for len) + len

(* The code a blob of [bits] is written in ([?code] forces one), and its
   length in bits. *)
let expected_blob ?code bits =
  let len = Array.length bits in
  let rrr = rrr_blob_bits bits in
  if len <= 62 then (Rrr.Rrr, rrr)
  else
    match code with
    | Some Rrr.Rrr -> (Rrr.Rrr, rrr)
    | Some Plain -> (Plain, plain_blob_bits len)
    | None -> if plain_blob_bits len <= rrr then (Plain, plain_blob_bits len) else (Rrr, rrr)

let blocks_of bits =
  let len = Array.length bits in
  let blocks = Array.make ((len / 62) + 1) 0 in
  Array.iteri (fun i b -> if b then blocks.(i / 62) <- blocks.(i / 62) lor (1 lsl (i mod 62))) bits;
  blocks

(* [bits]' blob ([?code] as in [append_blocks]) at bit 3 of a stream,
   with [pad] more bits behind it: the stream's bytes and the blob's
   length. *)
let flat_blob ?code ?(pad = 9) bits =
  let stream = Bitbuf.create () in
  Bitbuf.add_bits stream 3 0b101;
  Rrr.append_blocks ?code stream (blocks_of bits) ~len:(Array.length bits);
  let blob_bits = Bitbuf.length stream - 3 in
  let rng = Xoshiro.create pad in
  for _ = 1 to pad do
    Bitbuf.add stream (Xoshiro.bool rng)
  done;
  let out = Buffer.create 64 in
  Bitbuf.add_to_buffer out stream;
  (Buffer.contents out, blob_bits)

let check_flat_blob ?code bits =
  let len = Array.length bits in
  let blocks = blocks_of bits in
  let bytes, blob_bits = flat_blob ?code bits in
  let bv =
    Rrr.of_membuf (Wt_bits.Membuf.of_string bytes) 3 ~len ~version:Rrr.newest_version
  in
  let buf = Bitbuf.create () in
  Array.iter (Bitbuf.add buf) bits;
  let plain = Plain.of_bitbuf buf in
  (* formats only on a failure: this runs millions of times *)
  let expect what pos want got =
    if want <> got then
      Alcotest.failf "len %d, %d ones, %s: %s at %d: expected %d, got %d" len (Plain.ones plain)
        (match Rrr.code bv with Rrr -> "rrr" | Plain -> "plain")
        what pos want got
  in
  let pair (b, r) = (2 * r) + Bool.to_int b in
  let want_code, want_bits = expected_blob ?code bits in
  expect "code" 0 (Bool.to_int (want_code = Rrr.Plain))
    (Bool.to_int (Rrr.code bv = Rrr.Plain));
  expect "space_bits = computed" 0 want_bits (Rrr.space_bits bv);
  expect "space_bits = appended" 0 blob_bits (Rrr.space_bits bv);
  expect "length" 0 len (Rrr.length bv);
  expect "ones" 0 (Plain.ones plain) (Rrr.ones bv);
  expect "zeros" 0 (Plain.zeros plain) (Rrr.zeros bv);
  (* a forced code is not the canonical blob when the other is smaller *)
  if code = None then Rrr.check bv ~version:Rrr.newest_version;
  let cursor = Rrr.Cursor.create bv in
  for pos = 0 to len do
    List.iter
      (fun b ->
        let want = Plain.rank plain b pos in
        expect "rank" pos want (Rrr.rank bv b pos);
        expect "cursor rank" pos want (Rrr.Cursor.rank cursor b pos))
      [ true; false ];
    if pos < len then begin
      let b = Plain.access plain pos in
      let want = pair (b, Plain.rank plain b pos) in
      expect "access" pos (Bool.to_int b) (Bool.to_int (Rrr.access bv pos));
      expect "access_rank" pos want (pair (Rrr.access_rank bv pos));
      expect "cursor access_rank" pos want (pair (Rrr.Cursor.access_rank cursor pos))
    end
  done;
  (* a second cursor, descending: every step repositions *)
  let cursor = Rrr.Cursor.create bv in
  for pos = len - 1 downto 0 do
    let b = Plain.access plain pos in
    expect "cursor access_rank, descending" pos
      (pair (b, Plain.rank plain b pos))
      (pair (Rrr.Cursor.access_rank cursor pos))
  done;
  List.iter
    (fun b ->
      for k = 0 to (if b then Plain.ones plain else Plain.zeros plain) - 1 do
        expect "select" k (Plain.select plain b k) (Rrr.select bv b k)
      done)
    [ true; false ];
  List.iter
    (fun start ->
      let it = Rrr.Iter.create bv start in
      for pos = start to len - 1 do
        expect "iter pos" pos pos (Rrr.Iter.pos it);
        expect "iter bit" pos (Bool.to_int (Plain.access plain pos))
          (Bool.to_int (Rrr.Iter.next it))
      done;
      expect "iter exhausted" len 0 (Bool.to_int (Rrr.Iter.has_next it)))
    [ 0; len / 2; len ];
  let blk = ref 0 in
  Rrr.iter_blocks bv (fun block ->
      expect "iter_blocks" !blk blocks.(!blk) block;
      incr blk);
  expect "iter_blocks count" 0 ((len + 61) / 62) !blk

let codes = [ None; Some Rrr.Rrr; Some Rrr.Plain ]

let test_rrr_flat_every_tail () =
  List.iter
    (fun len ->
      List.iter
        (fun d -> List.iter (fun code -> check_flat_blob ?code (flat_bits len d len)) codes)
        densities)
    flat_lengths

let qcheck_flat_blob =
  let gen =
    QCheck.Gen.(quad (oneofl flat_lengths) (oneofl densities) (oneofl codes) nat)
  in
  let print (len, d, code, seed) =
    Printf.sprintf "len %d, density %d, code %s, seed %d" len
      (match d with Zeros -> 0 | One_set -> 1 | Half -> 2 | All_but_one -> 3 | Ones -> 4)
      (match code with None -> "chosen" | Some Rrr.Rrr -> "rrr" | Some Plain -> "plain")
      seed
  in
  QCheck.Test.make ~name:"rrr flat blob = plain at every tail length" ~count:300
    (QCheck.make ~print gen) (fun (len, d, code, seed) ->
      check_flat_blob ?code (flat_bits len d seed);
      true)

(* Each code through its own encoder at lengths 0 to 1,100 — every
   length up to 130, then a stride, and both sides of each plain
   sample boundary — at densities 0, 1/62, 0.1, 0.5, 0.9 and 1: both
   agree with [Plain] everywhere, and the chooser writes whichever blob
   is smaller, plain on a tie. *)
let code_lengths =
  List.sort_uniq compare
    (List.init 131 Fun.id
    @ List.init 75 (fun i -> 137 + (13 * i))
    @ [ 511; 512; 513; 1023; 1024; 1025; 1100 ])

let test_flat_codes () =
  List.iter
    (fun len ->
      List.iter
        (fun p ->
          let rng = Xoshiro.create (len + int_of_float (p *. 1000.)) in
          let bits = Array.init len (fun _ -> Xoshiro.float rng < p) in
          List.iter (fun code -> check_flat_blob ?code bits) codes;
          if len > 62 then begin
            let _, rrr = flat_blob ~code:Rrr bits and _, plain = flat_blob ~code:Plain bits in
            let _, chosen = flat_blob bits in
            check_int (Printf.sprintf "len %d, density %g: the smaller blob" len p)
              (min rrr plain) chosen;
            check_int "rrr priced" (rrr_blob_bits bits) rrr;
            check_int "plain priced" (plain_blob_bits len) plain
          end)
        [ 0.; 1. /. 62.; 0.1; 0.5; 0.9; 1. ])
    code_lengths

(* Corrupt version-5 blobs: a flipped code tag, a class width above 6,
   a class base that puts a class above 62, and a plain rank sample
   that falls or rises by more than 512.  Each is caught — the view
   refuses to open ([Invalid_argument]) or the deep check fails — and
   no query on it raises anything but [Invalid_argument]: every read
   stays inside the buffer. *)
let set_bits bytes pos width v =
  for i = 0 to width - 1 do
    let byte = (pos + i) / 8 and bit = (pos + i) mod 8 in
    let c = Char.code (Bytes.get bytes byte) in
    let c = if (v lsr i) land 1 = 1 then c lor (1 lsl bit) else c land lnot (1 lsl bit) in
    Bytes.set bytes byte (Char.chr c)
  done

let get_bits bytes pos width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    let byte = (pos + i) / 8 and bit = (pos + i) mod 8 in
    v := (!v lsl 1) lor ((Char.code (Bytes.get bytes byte) lsr bit) land 1)
  done;
  !v

let test_flat_corrupt () =
  let rng = Xoshiro.create 77 in
  let case name ~density ~len ~code corrupt =
    let bits = Array.init len (fun _ -> Xoshiro.float rng < density) in
    let bytes, _ = flat_blob bits ~pad:4000 in
    let bytes = Bytes.of_string bytes in
    let open_ () =
      Rrr.of_membuf
        (Wt_bits.Membuf.of_string (Bytes.to_string bytes))
        3 ~len ~version:Rrr.newest_version
    in
    check_bool (name ^ ": written in the expected code") true (Rrr.code (open_ ()) = code);
    corrupt bytes;
    let guard f = try ignore (f ()) with Invalid_argument _ -> () in
    match open_ () with
    | exception Invalid_argument _ -> ()
    | bv ->
        for pos = 0 to len do
          guard (fun () -> Rrr.rank bv true pos);
          if pos < len then guard (fun () -> Rrr.access_rank bv pos)
        done;
        for k = 0 to len - 1 do
          guard (fun () -> Rrr.select bv true k);
          guard (fun () -> Rrr.select bv false k)
        done;
        let cursor = Rrr.Cursor.create bv in
        for pos = 0 to len - 1 do
          guard (fun () -> Rrr.Cursor.access_rank cursor pos)
        done;
        guard (fun () -> Rrr.iter_blocks bv ignore);
        let caught =
          match Rrr.check bv ~version:Rrr.newest_version with
          | () -> false
          | exception (Failure _ | Invalid_argument _) -> true
        in
        check_bool (name ^ ": caught by the deep check") true caught
  in
  let flip_tag bytes = set_bits bytes 3 1 (1 - get_bits bytes 3 1) in
  case "flipped tag, rrr" ~density:0.05 ~len:1000 ~code:Rrr flip_tag;
  case "flipped tag, plain" ~density:0.5 ~len:1000 ~code:Plain flip_tag;
  case "flipped tag, small rrr" ~density:0.05 ~len:300 ~code:Rrr flip_tag;
  case "class width 7" ~density:0.05 ~len:1000 ~code:Rrr (fun b -> set_bits b 10 3 7);
  case "class base 62 plus a range" ~density:0.05 ~len:5000 ~code:Rrr (fun b ->
      set_bits b 4 6 62);
  case "class base 62 plus a range, no directory" ~density:0.05 ~len:900 ~code:Rrr (fun b ->
      set_bits b 4 6 62);
  let w = bits_for 1500 in
  case "plain sample falls" ~density:0.5 ~len:1500 ~code:Plain (fun b ->
      set_bits b (4 + w) w (get_bits b 4 w - 1));
  case "plain sample rises by 513" ~density:0.5 ~len:1500 ~code:Plain (fun b ->
      set_bits b (4 + w) w (get_bits b 4 w + 513))

(* The segment encoder, stepped 1, 2, 3 and all blocks at a time,
   writes exactly [append_blocks]' bits: lengths 0 to 130, a stride to
   1,100 and one append-only segment (4,096), at densities from 0 to 1,
   so that both codes occur. *)
let test_rrr_encoder () =
  let rng = Xoshiro.create 505 in
  let lengths =
    List.init 131 Fun.id @ List.init 89 (fun i -> 131 + (11 * i)) @ [ 1100; 4096 ]
  in
  let seen = Array.make 2 0 in
  List.iter
    (fun len ->
      List.iter
        (fun density ->
          let buf = Bitbuf.create () in
          for _ = 1 to len do
            Bitbuf.add buf (Xoshiro.float rng < density)
          done;
          let nblocks = (len + Rrr.block_bits - 1) / Rrr.block_bits in
          let blocks =
            Array.init nblocks (fun i ->
                let at = i * Rrr.block_bits in
                Bitbuf.get_bits buf at (Int.min Rrr.block_bits (len - at)))
          in
          let want = Bitbuf.create () in
          Rrr.append_blocks want blocks ~len;
          let code = Rrr.code (Rrr.of_blob want ~len) in
          if nblocks > 1 then (match code with Rrr -> seen.(0) <- 1 | Plain -> seen.(1) <- 1);
          List.iter
            (fun k ->
              let name = Printf.sprintf "len %d, density %g, %d blocks a step" len density k in
              let e = Rrr.Encoder.create buf in
              let steps = ref 0 in
              while not (Rrr.Encoder.finished e) do
                Rrr.Encoder.step e k;
                incr steps
              done;
              check_int (name ^ ": steps") ((nblocks + k - 1) / k) !steps;
              let got = Bitbuf.create () in
              Rrr.Encoder.write e got;
              check_bool (name ^ ": append_blocks' bits") true (Bitbuf.equal want got))
            [ 1; 2; 3; Int.max 1 nblocks ])
        [ 0.; 1. /. 62.; 0.1; 0.5; 0.9; 1. ])
    lengths;
  check_bool "both codes written" true (seen = [| 1; 1 |]);
  (* writing before the last step is refused *)
  let buf = Bitbuf.create () in
  Bitbuf.add_run buf true 200;
  let e = Rrr.Encoder.create buf in
  Rrr.Encoder.step e 2;
  Alcotest.check_raises "unfinished" (Invalid_argument "Rrr.Encoder.write: blocks left to step")
    (fun () -> Rrr.Encoder.write e (Bitbuf.create ()))

let test_rrr_compression () =
  (* A sparse bitvector must compress far below its plain length. *)
  let n = 100_000 in
  let rng = Xoshiro.create 7 in
  let buf = Bitbuf.create () in
  for _ = 1 to n do
    Bitbuf.add buf (Xoshiro.int rng 100 = 0)
  done;
  let bv = Rrr.of_bitbuf buf in
  let h0 = Wt_bits.Entropy.bitvector_h0_bits ~ones:(Rrr.ones bv) ~len:n in
  let space = float_of_int (Rrr.space_bits bv) in
  check_bool
    (Printf.sprintf "space %.0f within 4x of entropy %.0f and below plain %d" space h0 n)
    true
    (space < float_of_int n *. 0.75 && space < 4. *. h0 +. 10_000.)

let test_rrr_iterator () =
  let rng = Xoshiro.create 303 in
  List.iter
    (fun n ->
      let bits = Array.init n (fun _ -> Xoshiro.int rng 10 < 3) in
      let buf = Bitbuf.create () in
      Array.iter (Bitbuf.add buf) bits;
      let bv = Rrr.of_bitbuf buf in
      (* from 0 *)
      let it = Rrr.Iter.create bv 0 in
      Array.iteri
        (fun i b ->
          check_bool "has_next" true (Rrr.Iter.has_next it);
          check_int "iter pos" i (Rrr.Iter.pos it);
          check_bool "iter bit" b (Rrr.Iter.next it))
        bits;
      check_bool "exhausted" false (Rrr.Iter.has_next it);
      (* from random positions *)
      for _ = 1 to 20 do
        let start = Xoshiro.int rng (n + 1) in
        let it = Rrr.Iter.create bv start in
        for i = start to min (n - 1) (start + 100) do
          check_bool "iter bit from start" bits.(i) (Rrr.Iter.next it)
        done
      done)
    [ 1; 62; 200; 2000 ]

(* ------------------------------------------------------------------ *)
(* Appendable *)

let test_appendable_incremental () =
  let rng = Xoshiro.create 404 in
  let model = Model.create () in
  let bv = Appendable.create () in
  (* Append enough to cross several segment boundaries (seg = 4096). *)
  for i = 0 to 13_000 do
    let b = Xoshiro.int rng 5 = 0 in
    Model.append model b;
    Appendable.append bv b;
    if i mod 1379 = 0 then begin
      Appendable.check_invariants bv;
      agree
        ~name:(Printf.sprintf "appendable@%d" i)
        ~access:(Appendable.access bv) ~rank:(Appendable.rank bv)
        ~select:(Appendable.select bv)
        ~length:(fun () -> Appendable.length bv)
        ~rng model
    end
  done;
  Appendable.check_invariants bv

let test_appendable_init_offset () =
  let rng = Xoshiro.create 405 in
  List.iter
    (fun (b0, off) ->
      let model = Model.create () in
      for _ = 1 to off do
        Model.append model b0
      done;
      let bv = Appendable.init b0 off in
      check_bool "constant" true (Appendable.is_constant bv);
      for _ = 1 to 5000 do
        let b = Xoshiro.bool rng in
        Model.append model b;
        Appendable.append bv b
      done;
      Appendable.check_invariants bv;
      agree
        ~name:(Printf.sprintf "appendable-init(%b,%d)" b0 off)
        ~access:(Appendable.access bv) ~rank:(Appendable.rank bv)
        ~select:(Appendable.select bv)
        ~length:(fun () -> Appendable.length bv)
        ~rng model)
    [ (false, 1); (true, 1); (false, 777); (true, 777); (true, 10_000); (false, 0) ]

(* Every query path of an append-only bitvector against [Plain] on the
   same bits: rank, select, access and access_rank at every position
   and index, a cursor walking forward and an iterator from 0.  Only a
   mismatch reaches Alcotest. *)
let same_as_plain name bv bits =
  let buf = Bitbuf.create () in
  Array.iter (Bitbuf.add buf) bits;
  let plain = Plain.of_bitbuf buf in
  let n = Array.length bits in
  let expect what at want got =
    if want <> got then Alcotest.failf "%s: %s at %d is %d, not %d" name what at got want
  in
  expect "length" 0 n (Appendable.length bv);
  let cursor = Appendable.Cursor.create bv in
  let pair (b, r) = (r lsl 1) lor Bool.to_int b in
  for pos = 0 to n do
    List.iter
      (fun b ->
        let want = Plain.rank plain b pos in
        expect (Printf.sprintf "rank %b" b) pos want (Appendable.rank bv b pos);
        expect (Printf.sprintf "cursor rank %b" b) pos want (Appendable.Cursor.rank cursor b pos))
      [ false; true ];
    if pos < n then begin
      let b = bits.(pos) in
      let want = pair (b, Plain.rank plain b pos) in
      expect "access" pos (Bool.to_int b) (Bool.to_int (Appendable.access bv pos));
      expect "access_rank" pos want (pair (Appendable.access_rank bv pos));
      expect "cursor access_rank" pos want (pair (Appendable.Cursor.access_rank cursor pos))
    end
  done;
  List.iter
    (fun b ->
      for k = 0 to (if b then Plain.ones plain else n - Plain.ones plain) - 1 do
        expect (Printf.sprintf "select %b" b) k (Plain.select plain b k) (Appendable.select bv b k)
      done)
    [ false; true ];
  let it = Appendable.Iter.create bv 0 in
  Array.iteri
    (fun i b -> expect "iter" i (Bool.to_int b) (Bool.to_int (Appendable.Iter.next it)))
    bits;
  expect "iter end" n 0 (Bool.to_int (Appendable.Iter.has_next it))

let test_appendable_pending_window () =
  (* Right after a segment boundary, the segment's blob is still being
     encoded (the Section 4.1 de-amortization): queries in that window
     are served from the raw bits, and the blob, once written, answers
     the same.  A dense segment freezes plain and a sparse one as
     class-range RRR; a snapshot taken mid-window keeps answering for
     its own bits after the original's blob is written. *)
  let rng = Xoshiro.create 909 in
  List.iter
    (fun (name, density, code) ->
      let bits = Array.init (4096 + 80) (fun _ -> Xoshiro.float rng < density) in
      let seg = Bitbuf.create () in
      Array.iteri (fun i b -> if i < 4096 then Bitbuf.add seg b) bits;
      check_bool (name ^ ": the segment's code") true (Rrr.code (Rrr.of_bitbuf seg) = code);
      let bv = Appendable.create () in
      Array.iteri (fun i b -> if i < 4096 then Appendable.append bv b) bits;
      (* right at the boundary: one full pending segment, empty tail *)
      Appendable.check_invariants bv;
      same_as_plain (name ^ "@boundary") bv (Array.sub bits 0 4096);
      let snap = ref None in
      (* every single append through the encoding window *)
      for i = 4096 to Array.length bits - 1 do
        Appendable.append bv bits.(i);
        Appendable.check_invariants bv;
        same_as_plain (Printf.sprintf "%s+%d" name (i - 4095)) bv (Array.sub bits 0 (i + 1));
        if i = 4105 then snap := Some (Appendable.snapshot bv)
      done;
      match !snap with
      | None -> assert false
      | Some snap ->
          Appendable.check_invariants snap;
          same_as_plain (name ^ " snapshot") snap (Array.sub bits 0 4106))
    [ ("one in three", 1. /. 3., Rrr.Rrr); ("dense", 0.5, Plain); ("sparse", 0.02, Rrr) ]

let test_appendable_iterator () =
  let rng = Xoshiro.create 406 in
  let bits = Array.init 9000 (fun _ -> Xoshiro.int rng 3 = 0) in
  let buf = Bitbuf.create () in
  Array.iter (Bitbuf.add buf) bits;
  let bv = Appendable.of_bitbuf buf in
  let it = Appendable.Iter.create bv 0 in
  Array.iteri (fun i b -> check_bool (string_of_int i) b (Appendable.Iter.next it)) bits;
  check_bool "end" false (Appendable.Iter.has_next it);
  (* with an init offset *)
  let bv = Appendable.init true 100 in
  Array.iter (Appendable.append bv) bits;
  let it = Appendable.Iter.create bv 0 in
  for _ = 1 to 100 do
    check_bool "offset bit" true (Appendable.Iter.next it)
  done;
  Array.iter (fun b -> check_bool "body bit" b (Appendable.Iter.next it)) bits

(* A snapshot taken while frozen segments, a pending segment still under
   construction and a tail are all live answers for its own length after
   the original appends two more segments: every query path — scalar,
   cursor and iterator — against the bits it saw. *)
let test_appendable_snapshot () =
  let rng = Xoshiro.create 407 in
  List.iter
    (fun (b0, off, len) ->
      let name = Printf.sprintf "snapshot(%b,%d,%d)" b0 off len in
      let body = Array.init (len + (2 * 4096) + 100) (fun _ -> Xoshiro.int rng 3 = 0) in
      let bits = Array.append (Array.make off b0) body in
      let bv = Appendable.init b0 off in
      Array.iteri (fun i b -> if i < len then Appendable.append bv b) body;
      let snap = Appendable.snapshot bv in
      Array.iteri (fun i b -> if i >= len then Appendable.append bv b) body;
      let seen = Model.of_array (Array.sub bits 0 (off + len)) in
      let model = Model.of_array bits in
      Appendable.check_invariants snap;
      Appendable.check_invariants bv;
      agree ~name ~access:(Appendable.access snap) ~rank:(Appendable.rank snap)
        ~select:(Appendable.select snap)
        ~length:(fun () -> Appendable.length snap)
        ~rng seen;
      agree ~name:(name ^ " original") ~access:(Appendable.access bv)
        ~rank:(Appendable.rank bv) ~select:(Appendable.select bv)
        ~length:(fun () -> Appendable.length bv)
        ~rng model;
      let n = Model.length seen in
      let cur = Appendable.Cursor.create snap and it = Appendable.Iter.create snap 0 in
      let ones = ref 0 in
      for pos = 0 to n - 1 do
        let b = Model.access seen pos in
        check_int (name ^ " cursor rank") !ones (Appendable.Cursor.rank cur true pos);
        let b', r = Appendable.Cursor.access_rank cur pos in
        check_bool (name ^ " cursor bit") b b';
        check_int (name ^ " cursor access_rank") (if b then !ones else pos - !ones) r;
        check_bool (name ^ " iter") b (Appendable.Iter.next it);
        if b then incr ones
      done;
      check_bool (name ^ " iter end") false (Appendable.Iter.has_next it))
    [ (false, 0, 4096 + 20); (false, 0, 8192 + 30); (true, 100, 8192 + 12) ]

(* ------------------------------------------------------------------ *)
(* Dynamic bitvectors (shared scenarios over both codecs) *)

module type DYN = sig
  include Wt_bitvector.Chunk_tree.S
end

let dyn_random_ops (module D : DYN) codec_name seed =
  let rng = Xoshiro.create seed in
  let model = Model.create () in
  let bv = D.create () in
  for step = 1 to 4000 do
    let n = Model.length model in
    let choice = Xoshiro.int rng 10 in
    if choice < 5 || n = 0 then begin
      (* biased towards runs to exercise run merging *)
      let b = Xoshiro.int rng 4 < 3 in
      let pos = Xoshiro.int rng (n + 1) in
      Model.insert model pos b;
      D.insert bv pos b
    end
    else if choice < 7 then begin
      let pos = Xoshiro.int rng n in
      Model.delete model pos;
      D.delete bv pos
    end
    else begin
      let b = Xoshiro.bool rng in
      Model.append model b;
      D.append bv b
    end;
    if step mod 500 = 0 then begin
      D.check_invariants bv;
      agree
        ~name:(Printf.sprintf "%s@%d" codec_name step)
        ~access:(D.access bv) ~rank:(D.rank bv) ~select:(D.select bv)
        ~length:(fun () -> D.length bv)
        ~rng model
    end
  done;
  D.check_invariants bv

let dyn_init (module D : DYN) codec_name =
  List.iter
    (fun (b, n) ->
      let bv = D.init b n in
      check_int (codec_name ^ " init length") n (D.length bv);
      check_int (codec_name ^ " init ones") (if b then n else 0) (D.ones bv);
      check_bool (codec_name ^ " constant") true (D.is_constant bv);
      D.check_invariants bv;
      if n > 0 then begin
        check_bool "first" b (D.access bv 0);
        check_bool "last" b (D.access bv (n - 1));
        check_int "rank mid" (if b then n / 2 else 0) (D.rank bv true (n / 2))
      end)
    [ (false, 0); (true, 0); (false, 1); (true, 1); (false, 100_000); (true, 100_000) ]

let dyn_bulk (module D : DYN) codec_name seed =
  let rng = Xoshiro.create seed in
  List.iter
    (fun n ->
      List.iter
        (fun (pname, bits) ->
          let model = Model.of_array bits in
          let bv = D.of_bits bits in
          D.check_invariants bv;
          agree
            ~name:(Printf.sprintf "%s/%s/%d" codec_name pname n)
            ~access:(D.access bv) ~rank:(D.rank bv) ~select:(D.select bv)
            ~length:(fun () -> D.length bv)
            ~rng model)
        (patterns rng n))
    [ 0; 1; 2; 100; 2048 ]

let dyn_delete_to_empty (module D : DYN) _codec_name seed =
  let rng = Xoshiro.create seed in
  let bits = Array.init 500 (fun _ -> Xoshiro.bool rng) in
  let model = Model.of_array bits in
  let bv = D.of_bits bits in
  while D.length bv > 0 do
    let pos = Xoshiro.int rng (D.length bv) in
    Model.delete model pos;
    D.delete bv pos;
    D.check_invariants bv;
    if D.length bv > 0 then begin
      let p = Xoshiro.int rng (D.length bv) in
      check_bool "access after delete" (Model.access model p) (D.access bv p)
    end
  done;
  check_int "empty" 0 (D.length bv)

let dyn_iterator (module D : DYN) codec_name seed =
  let rng = Xoshiro.create seed in
  let bits = Array.init 3000 (fun _ -> Xoshiro.int rng 4 = 0) in
  let bv = D.of_bits bits in
  let it = D.Iter.create bv 0 in
  Array.iteri
    (fun i b -> check_bool (Printf.sprintf "%s iter %d" codec_name i) b (D.Iter.next it))
    bits;
  check_bool "end" false (D.Iter.has_next it);
  for _ = 1 to 20 do
    let start = Xoshiro.int rng (Array.length bits + 1) in
    let it = D.Iter.create bv start in
    for i = start to min (Array.length bits - 1) (start + 64) do
      check_bool "iter from start" bits.(i) (D.Iter.next it)
    done
  done

let dyn_leaf_count (module D : DYN) codec_name =
  (* Leaf count must stay proportional to content, not operation count:
     insert many then delete most, and check the tree shrank. *)
  let bv = D.create () in
  let rng = Xoshiro.create 17 in
  for _ = 1 to 20_000 do
    D.insert bv (Xoshiro.int rng (D.length bv + 1)) (Xoshiro.bool rng)
  done;
  let full = D.leaf_count bv in
  for _ = 1 to 19_900 do
    D.delete bv (Xoshiro.int rng (D.length bv))
  done;
  D.check_invariants bv;
  let small = D.leaf_count bv in
  check_bool
    (Printf.sprintf "%s leaves shrink (%d -> %d)" codec_name full small)
    true
    (small <= 4 && small < full)

let dyn_suite (module D : DYN) codec_name seed =
  [
    Alcotest.test_case "random ops vs model" `Quick (fun () ->
        dyn_random_ops (module D) codec_name seed);
    Alcotest.test_case "init" `Quick (fun () -> dyn_init (module D) codec_name);
    Alcotest.test_case "bulk patterns" `Quick (fun () ->
        dyn_bulk (module D) codec_name (seed + 1));
    Alcotest.test_case "delete to empty" `Quick (fun () ->
        dyn_delete_to_empty (module D) codec_name (seed + 2));
    Alcotest.test_case "iterator" `Quick (fun () ->
        dyn_iterator (module D) codec_name (seed + 3));
    Alcotest.test_case "leaf count shrinks" `Quick (fun () ->
        dyn_leaf_count (module D) codec_name);
  ]

(* ------------------------------------------------------------------ *)
(* Space sanity: RLE on runs beats plain; gap Init(1,n) is heavy. *)

let test_rle_space_on_runs () =
  let n = 50_000 in
  let bits = Array.init n (fun i -> i mod 2000 < 1000) in
  let bv = Dyn_rle.of_bits bits in
  check_bool
    (Printf.sprintf "rle compresses long runs: %d bits for %d" (Dyn_rle.space_bits bv) n)
    true
    (Dyn_rle.space_bits bv < n / 10)

let test_gap_init_is_linear () =
  (* Not a timing test: check the representation size blows up, which is
     the structural reason Init is slow (Remark 4.2). *)
  let n = 20_000 in
  let rle = Dyn_rle.init true n in
  let gap = Dyn_gap.init true n in
  check_bool
    (Printf.sprintf "rle init tiny (%d bits), gap init linear (%d bits)"
       (Dyn_rle.space_bits rle) (Dyn_gap.space_bits gap))
    true
    (Dyn_rle.space_bits rle < 1024 && Dyn_gap.space_bits gap > n / 2)

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let bits_gen = QCheck.(list_of_size Gen.(int_range 0 400) bool)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"rrr rank1(select1(k)) = k" ~count:100 bits_gen (fun l ->
        let bits = Array.of_list l in
        let buf = Bitbuf.create () in
        Array.iter (Bitbuf.add buf) bits;
        let bv = Rrr.of_bitbuf buf in
        let ok = ref true in
        for k = 0 to Rrr.ones bv - 1 do
          let p = Rrr.select bv true k in
          if Rrr.rank bv true p <> k || not (Rrr.access bv p) then ok := false
        done;
        !ok);
    Test.make ~name:"plain rank0 + rank1 = pos" ~count:100 bits_gen (fun l ->
        let bits = Array.of_list l in
        let buf = Bitbuf.create () in
        Array.iter (Bitbuf.add buf) bits;
        let bv = Plain.of_bitbuf buf in
        let ok = ref true in
        for pos = 0 to Plain.length bv do
          if Plain.rank bv true pos + Plain.rank bv false pos <> pos then ok := false
        done;
        !ok);
    Test.make ~name:"dyn_rle insert then delete is identity" ~count:100
      (pair bits_gen (pair small_nat bool))
      (fun (l, (pos0, b)) ->
        let bits = Array.of_list l in
        let bv = Dyn_rle.of_bits bits in
        let pos = if Array.length bits = 0 then 0 else pos0 mod (Array.length bits + 1) in
        Dyn_rle.insert bv pos b;
        Dyn_rle.delete bv pos;
        Dyn_rle.check_invariants bv;
        Dyn_rle.length bv = Array.length bits
        && Array.for_all Fun.id (Array.mapi (fun i x -> Dyn_rle.access bv i = x) bits));
    Test.make ~name:"dyn_gap matches dyn_rle under same ops" ~count:50
      (list_of_size Gen.(int_range 1 200) (pair (int_bound 1000) bool))
      (fun ops ->
        let a = Dyn_rle.create () and b = Dyn_gap.create () in
        List.iter
          (fun (p, bit) ->
            let pos = p mod (Dyn_rle.length a + 1) in
            Dyn_rle.insert a pos bit;
            Dyn_gap.insert b pos bit)
          ops;
        let n = Dyn_rle.length a in
        Dyn_gap.length b = n
        && List.for_all
             (fun pos -> Dyn_rle.access a pos = Dyn_gap.access b pos)
             (List.init n Fun.id));
  ]

let () =
  Alcotest.run "wt_bitvector"
    [
      ( "plain",
        [
          Alcotest.test_case "patterns vs model" `Quick test_plain_patterns;
          Alcotest.test_case "bounds checking" `Quick test_plain_bounds;
        ] );
      ( "rrr",
        [
          Alcotest.test_case "patterns vs model" `Quick test_rrr_patterns;
          Alcotest.test_case "flat blob from blocks" `Quick test_rrr_flat_blocks;
          Alcotest.test_case "flat blob at every tail length" `Quick test_rrr_flat_every_tail;
          Alcotest.test_case "flat codes at lengths 0 to 1,100" `Quick test_flat_codes;
          Alcotest.test_case "corrupt flat blobs" `Quick test_flat_corrupt;
          QCheck_alcotest.to_alcotest qcheck_flat_blob;
          Alcotest.test_case "segment encoder = append_blocks" `Quick test_rrr_encoder;
          Alcotest.test_case "compression" `Quick test_rrr_compression;
          Alcotest.test_case "iterator" `Quick test_rrr_iterator;
        ] );
      ( "appendable",
        [
          Alcotest.test_case "incremental vs model" `Quick test_appendable_incremental;
          Alcotest.test_case "init offset" `Quick test_appendable_init_offset;
          Alcotest.test_case "pending construction window" `Quick test_appendable_pending_window;
          Alcotest.test_case "iterator" `Quick test_appendable_iterator;
          Alcotest.test_case "snapshot" `Quick test_appendable_snapshot;
        ] );
      ("dyn_rle", dyn_suite (module Dyn_rle) "dyn_rle" 1000);
      ("dyn_gap", dyn_suite (module Dyn_gap) "dyn_gap" 2000);
      ( "space",
        [
          Alcotest.test_case "rle compresses runs" `Quick test_rle_space_on_runs;
          Alcotest.test_case "gap init blows up" `Quick test_gap_init_is_linear;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
