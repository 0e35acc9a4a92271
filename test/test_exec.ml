(* Batch query engine (lib/exec): batches against the one oracle on
   random and golden workloads for all three variants, rank-cursor unit
   tests against the scalar bitvector operations (in arbitrary position
   order, not just monotone), bulk_append equivalence, and the Exec_*
   probe counters. *)

module Bitstring = Wt_strings.Bitstring
module Xoshiro = Wt_bits.Xoshiro
module Bitbuf = Wt_bits.Bitbuf
module Rrr = Wt_bitvector.Rrr
module Appendable = Wt_bitvector.Appendable
module Dyn_rle = Wt_bitvector.Dyn_rle
module Wavelet_trie = Wt_core.Wavelet_trie
module Append_wt = Wt_core.Append_wt
module I = Wt_core.Indexed_sequence
module Probe = Wt_obs.Probe

let check_int = Alcotest.(check int)
let bs = Bitstring.of_string

(* ------------------------------------------------------------------ *)
(* Batches against the one oracle (oracle.ml), which gives the exact
   error contract of [query_batch]. *)

let check_against_oracle name arr batch ops =
  Oracle.agree ~ctx:name ops ~expected:(Oracle.expected (Oracle.model arr) ops) batch

let gen_ops rng arr n = Oracle.Gen.ops ~n rng (Oracle.model arr)

let url_strings rng n =
  Array.init n (fun _ ->
      Printf.sprintf "host-%d.net/p/%d" (Xoshiro.int rng 7) (Xoshiro.int rng 31))

(* ------------------------------------------------------------------ *)
(* (a) batch = oracle on random workloads, all three variants. *)

let test_batch_oracle_random () =
  List.iter
    (fun seed ->
      let rng = Xoshiro.create seed in
      let n = 50 + Xoshiro.int rng 400 in
      let arr = url_strings rng n in
      let ops = gen_ops rng arr (1 + Xoshiro.int rng 300) in
      check_against_oracle "static" arr (Wtrie.Static.query_batch (Wtrie.Static.of_array arr) ops) ops;
      check_against_oracle "append" arr (Wtrie.Append.query_batch (Wtrie.Append.of_array arr) ops) ops;
      check_against_oracle "dynamic" arr
        (Wtrie.Dynamic.query_batch (Wtrie.Dynamic.of_array arr) ops)
        ops)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_batch_empty_and_tiny () =
  (* empty sequence: every access errors, ranks at 0 are fine *)
  let arr = [||] in
  let wt = Wtrie.Static.of_array arr in
  let ops =
    [|
      I.Access { pos = 0 };
      I.Rank { s = "x"; pos = 0 };
      I.Select { s = "x"; count = 0 };
      I.Rank_prefix { prefix = ""; pos = 0 };
      I.Select_prefix { prefix = ""; count = -1 };
    |]
  in
  check_against_oracle "empty" arr (Wtrie.Static.query_batch wt ops) ops;
  check_int "empty batch" 0 (Array.length (Wtrie.Static.query_batch wt [||]));
  (* single-string sequence, duplicated ops *)
  let arr = [| "only"; "only"; "only" |] in
  let wt = Wtrie.Append.of_array arr in
  let ops =
    Array.concat
      [
        Array.init 6 (fun i -> I.Select { s = "only"; count = i });
        Array.init 4 (fun pos -> I.Access { pos });
        [| I.Rank { s = "only"; pos = 3 }; I.Rank_prefix { prefix = "on"; pos = 2 } |];
      ]
  in
  check_against_oracle "tiny" arr (Wtrie.Append.query_batch wt ops) ops

(* (b) Figure 2 golden, at the bitstring level: the engine functor run
   directly against the scalar Query results, covering every op kind on
   the paper's exact trie. *)

module Exec_static = Wt_exec.Exec.Make (Wavelet_trie.Node)

let test_fig2_bit_level () =
  let strings =
    List.map bs [ "0001"; "0011"; "0100"; "00100"; "0100"; "00100"; "0100" ]
  in
  let wt = Wavelet_trie.of_list strings in
  let distinct = List.sort_uniq Bitstring.compare strings in
  let prefixes = List.map bs [ ""; "0"; "00"; "01"; "1"; "001"; "0100" ] in
  let ops =
    Array.of_list
      (List.concat
         [
           List.init 7 (fun pos -> Exec_static.Access pos);
           List.concat_map
             (fun s -> List.init 8 (fun pos -> Exec_static.Rank (s, pos)))
             distinct;
           List.concat_map
             (fun s -> List.init 4 (fun k -> Exec_static.Select (s, k)))
             distinct;
           List.concat_map
             (fun p -> List.init 8 (fun pos -> Exec_static.Rank_prefix (p, pos)))
             prefixes;
           List.concat_map
             (fun p -> List.init 4 (fun k -> Exec_static.Select_prefix (p, k)))
             prefixes;
         ])
  in
  let res = Exec_static.run wt ops in
  Array.iteri
    (fun i op ->
      match (op, res.(i)) with
      | Exec_static.Access pos, Exec_static.Bits b ->
          Alcotest.(check string)
            (Printf.sprintf "access %d" pos)
            (Bitstring.to_string (Wavelet_trie.access wt pos))
            (Bitstring.to_string b)
      | Exec_static.Rank (s, pos), Exec_static.Count c ->
          check_int
            (Printf.sprintf "rank %s %d" (Bitstring.to_string s) pos)
            (Wavelet_trie.rank wt s pos) c
      | Exec_static.Rank_prefix (p, pos), Exec_static.Count c ->
          check_int
            (Printf.sprintf "rank_prefix %s %d" (Bitstring.to_string p) pos)
            (Wavelet_trie.rank_prefix wt p pos)
            c
      | Exec_static.Select (s, k), r ->
          let got =
            match r with
            | Exec_static.Found pos -> Some pos
            | Exec_static.Missing _ -> None
            | _ -> Alcotest.fail "select: wrong result shape"
          in
          Alcotest.(check (option int))
            (Printf.sprintf "select %s %d" (Bitstring.to_string s) k)
            (Wavelet_trie.select wt s k) got
      | Exec_static.Select_prefix (p, k), r ->
          let got =
            match r with
            | Exec_static.Found pos -> Some pos
            | Exec_static.Missing _ -> None
            | _ -> Alcotest.fail "select_prefix: wrong result shape"
          in
          Alcotest.(check (option int))
            (Printf.sprintf "select_prefix %s %d" (Bitstring.to_string p) k)
            (Wavelet_trie.select_prefix wt p k)
            got
      | _ -> Alcotest.fail "result shape does not match op")
    ops

(* (c) Dynamic variant under interleaved insert/delete: re-batch after
   every burst of mutations and compare against the mirrored array. *)

let test_dynamic_interleaved () =
  let rng = Xoshiro.create 99 in
  let wt = Wtrie.Dynamic.of_array [||] in
  let mirror = ref [] in
  (* mirror as list for cheap positional insert/delete *)
  let insert_at pos x l =
    let rec go i = function
      | rest when i = pos -> x :: rest
      | [] -> [ x ]
      | y :: rest -> y :: go (i + 1) rest
    in
    go 0 l
  in
  let delete_at pos l = List.filteri (fun i _ -> i <> pos) l in
  for round = 1 to 12 do
    for _ = 1 to 25 do
      let len = List.length !mirror in
      if len > 0 && Xoshiro.int rng 3 = 0 then begin
        let pos = Xoshiro.int rng len in
        Wtrie.Dynamic.delete wt ~pos;
        mirror := delete_at pos !mirror
      end
      else begin
        let pos = Xoshiro.int rng (len + 1) in
        let s =
          Printf.sprintf "host-%d.net/p/%d" (Xoshiro.int rng 5) (Xoshiro.int rng 9)
        in
        Wtrie.Dynamic.insert wt ~pos s;
        mirror := insert_at pos s !mirror
      end
    done;
    let arr = Array.of_list !mirror in
    let ops = gen_ops rng arr 120 in
    check_against_oracle
      (Printf.sprintf "dynamic round %d" round)
      arr
      (Wtrie.Dynamic.query_batch wt ops)
      ops
  done

(* ------------------------------------------------------------------ *)
(* (d) Rank cursors agree with the scalar bitvector ops — in arbitrary
   position order (backward seeks must re-anchor, not corrupt state). *)

let random_bitbuf rng n =
  let buf = Bitbuf.create () in
  for _ = 1 to n do
    (* runs of random length so RLE leaves and RRR classes vary *)
    Bitbuf.add buf (Xoshiro.bool rng)
  done;
  buf

let positions_mixed rng n k =
  (* monotone prefix then random jumps, including pos 0 and len *)
  Array.init k (fun i ->
      if i < k / 2 then i * (n / (k / 2 + 1))
      else if i = k / 2 then n
      else Xoshiro.int rng (n + 1))

let test_rrr_cursor () =
  let rng = Xoshiro.create 7 in
  List.iter
    (fun n ->
      let buf = random_bitbuf rng n in
      let bv = Rrr.of_bitbuf buf in
      let cur = Rrr.Cursor.create bv in
      Array.iter
        (fun pos ->
          check_int
            (Printf.sprintf "rrr rank1 @%d/%d" pos n)
            (Rrr.rank bv true pos)
            (Rrr.Cursor.rank cur true pos);
          check_int
            (Printf.sprintf "rrr rank0 @%d/%d" pos n)
            (Rrr.rank bv false pos)
            (Rrr.Cursor.rank cur false pos);
          if pos < n then begin
            let b, r = Rrr.Cursor.access_rank cur pos in
            let b', r' = Rrr.access_rank bv pos in
            Alcotest.(check (pair bool int))
              (Printf.sprintf "rrr access_rank @%d/%d" pos n)
              (b', r') (b, r)
          end)
        (positions_mixed rng n 200))
    [ 1; 61; 62; 63; 992; 993; 5000 ]

let test_appendable_cursor () =
  let rng = Xoshiro.create 8 in
  (* cross the frozen-segment boundary (seg_bits = 4096) and exercise the
     offset-prefix: init-based constant prefix then mixed appends *)
  List.iter
    (fun (use_init, n) ->
      let bv = if use_init then Appendable.init true 100 else Appendable.create () in
      for _ = 1 to n do
        Appendable.append bv (Xoshiro.bool rng)
      done;
      let len = Appendable.length bv in
      let cur = Appendable.Cursor.create bv in
      Array.iter
        (fun pos ->
          check_int
            (Printf.sprintf "appendable rank1 @%d/%d" pos len)
            (Appendable.rank bv true pos)
            (Appendable.Cursor.rank cur true pos);
          if pos < len then begin
            let b, r = Appendable.Cursor.access_rank cur pos in
            let b', r' = Appendable.access_rank bv pos in
            Alcotest.(check (pair bool int))
              (Printf.sprintf "appendable access_rank @%d/%d" pos len)
              (b', r') (b, r)
          end)
        (positions_mixed rng len 300))
    [ (false, 100); (false, 9000); (true, 50); (true, 9000) ]

let test_dyn_rle_cursor () =
  let rng = Xoshiro.create 9 in
  List.iter
    (fun n ->
      let bv = Dyn_rle.create () in
      (* runs + point inserts so the AVL has many leaves *)
      let bit = ref false in
      for i = 1 to n do
        if Xoshiro.int rng 5 = 0 then bit := not !bit;
        if i mod 7 = 0 && Dyn_rle.length bv > 0 then
          Dyn_rle.insert bv (Xoshiro.int rng (Dyn_rle.length bv)) !bit
        else Dyn_rle.append bv !bit
      done;
      let len = Dyn_rle.length bv in
      let cur = Dyn_rle.Cursor.create bv in
      Array.iter
        (fun pos ->
          check_int
            (Printf.sprintf "dyn_rle rank1 @%d/%d" pos len)
            (Dyn_rle.rank bv true pos)
            (Dyn_rle.Cursor.rank cur true pos);
          if pos < len then begin
            let b, r = Dyn_rle.Cursor.access_rank cur pos in
            Alcotest.(check (pair bool int))
              (Printf.sprintf "dyn_rle access_rank @%d/%d" pos len)
              (Dyn_rle.access bv pos, Dyn_rle.rank bv (Dyn_rle.access bv pos) pos)
              (b, r)
          end)
        (positions_mixed rng len 300))
    [ 1; 40; 2000 ]

(* Cursor reuse across mutations: the chunk-tree cursor caches a decoded
   leaf, and an [insert]/[delete]/[append] between queries replaces the
   tree's root.  The cursor must detect the new root and reload — a
   regression here answers from the pre-edit leaf (stale run offsets and
   one-counts) without any error. *)
let test_dyn_rle_cursor_across_updates () =
  let rng = Xoshiro.create 77 in
  let bv = Dyn_rle.create () in
  let bit = ref false in
  for _ = 1 to 3000 do
    if Xoshiro.int rng 5 = 0 then bit := not !bit;
    Dyn_rle.append bv !bit
  done;
  let cur = Dyn_rle.Cursor.create bv in
  for round = 1 to 200 do
    let len = Dyn_rle.length bv in
    (* query — populating the cursor cache ... *)
    let pos = Xoshiro.int rng (len + 1) in
    check_int
      (Printf.sprintf "round %d pre-edit rank @%d" round pos)
      (Dyn_rle.rank bv true pos)
      (Dyn_rle.Cursor.rank cur true pos);
    (* ... mutate near the cached position, so a stale cache would cover
       the queried region ... *)
    (match Xoshiro.int rng 3 with
    | 0 -> Dyn_rle.insert bv (Xoshiro.int rng (len + 1)) (Xoshiro.int rng 2 = 0)
    | 1 -> if len > 0 then Dyn_rle.delete bv (Xoshiro.int rng len)
    | _ -> Dyn_rle.append bv (Xoshiro.int rng 2 = 0));
    (* ... and re-query through the same cursor at nearby positions *)
    let len = Dyn_rle.length bv in
    let near = min len (max 0 (pos - 1 + Xoshiro.int rng 3)) in
    check_int
      (Printf.sprintf "round %d post-edit rank @%d" round near)
      (Dyn_rle.rank bv true near)
      (Dyn_rle.Cursor.rank cur true near);
    if len > 0 then begin
      let p = min (len - 1) near in
      Alcotest.(check (pair bool int))
        (Printf.sprintf "round %d post-edit access_rank @%d" round p)
        (Dyn_rle.access_rank bv p)
        (Dyn_rle.Cursor.access_rank cur p)
    end
  done

(* Two back-to-back batches against the scalar oracle, with mutations in
   between: pins that a [query_batch] call never carries engine or
   cursor state into the next one, for both mutable variants. *)
let test_back_to_back_batches () =
  let rng = Xoshiro.create 99 in
  (* dynamic: batch / insert+delete / batch *)
  let arr0 = url_strings rng 400 in
  let dwt = Wtrie.Dynamic.of_array arr0 in
  let ops1 = gen_ops rng arr0 500 in
  check_against_oracle "dynamic batch 1" arr0 (Wtrie.Dynamic.query_batch dwt ops1) ops1;
  let arr = ref (Array.to_list arr0) in
  for i = 0 to 60 do
    let s = Printf.sprintf "fresh-%d.io/%d" (i mod 5) i in
    let pos = Xoshiro.int rng (List.length !arr + 1) in
    Wtrie.Dynamic.insert dwt ~pos s;
    arr := List.filteri (fun j _ -> j < pos) !arr @ (s :: List.filteri (fun j _ -> j >= pos) !arr);
    if i land 1 = 0 then begin
      let pos = Xoshiro.int rng (List.length !arr) in
      Wtrie.Dynamic.delete dwt ~pos;
      arr := List.filteri (fun j _ -> j <> pos) !arr
    end
  done;
  let arr1 = Array.of_list !arr in
  let ops2 = gen_ops rng arr1 500 in
  check_against_oracle "dynamic batch 2" arr1 (Wtrie.Dynamic.query_batch dwt ops2) ops2;
  (* append-only: batch / append / batch *)
  let awt = Wtrie.Append.create () in
  Array.iter (Wtrie.Append.append awt) arr0;
  let ops1 = gen_ops rng arr0 500 in
  check_against_oracle "append batch 1" arr0 (Wtrie.Append.query_batch awt ops1) ops1;
  let extra = url_strings rng 300 in
  Array.iter (Wtrie.Append.append awt) extra;
  let arr1 = Array.append arr0 extra in
  let ops2 = gen_ops rng arr1 500 in
  check_against_oracle "append batch 2" arr1 (Wtrie.Append.query_batch awt ops2) ops2

(* ------------------------------------------------------------------ *)
(* (e) bulk_append is exactly Array.iter append. *)

let test_bulk_append_equivalence () =
  let rng = Xoshiro.create 13 in
  for trial = 1 to 10 do
    let one = Wtrie.Append.create () and batch = Wtrie.Append.create () in
    (* several batches in a row, alternating with scalar appends, so
       bulk routing hits leaves, splits and existing internals *)
    for _ = 1 to 4 do
      let ss = url_strings rng (1 + Xoshiro.int rng 200) in
      Array.iter (Wtrie.Append.append one) ss;
      Wtrie.Append.append_batch batch ss;
      let extra = Printf.sprintf "solo-%d" (Xoshiro.int rng 100) in
      Wtrie.Append.append one extra;
      Wtrie.Append.append batch extra
    done;
    Append_wt.check_invariants batch;
    if Append_wt.dump one <> Append_wt.dump batch then
      Alcotest.failf "trial %d: bulk_append trie differs from scalar appends" trial
  done;
  (* prefix-freeness violations still raise, as in scalar append *)
  let wt = Wtrie.Append.create () in
  Wtrie.Append.append_batch wt [| "ab" |];
  (match Wt_core.String_api.encode "ab" with
  | e ->
      Alcotest.check_raises "proper prefix rejected"
        (Invalid_argument
           "Append_wt.append: string is a proper prefix of a stored string")
        (fun () -> Append_wt.bulk_append wt [| Bitstring.prefix e 3 |]))

(* (f) Probe counters: one batch hit, per-op count, cursor hits. *)

let test_exec_probes () =
  let rng = Xoshiro.create 17 in
  let arr = url_strings rng 2000 in
  let wt = Wtrie.Static.of_array arr in
  let ops = gen_ops rng arr 500 in
  Probe.reset ();
  Probe.enable ();
  Fun.protect ~finally:(fun () ->
      Probe.disable ();
      Probe.reset ())
  @@ fun () ->
  let results = Wtrie.Static.query_batch wt ops in
  check_int "one batch" 1 (Probe.counter Exec_batch);
  (* ops failing argument validation never reach the engine *)
  let engine_ops =
    Array.fold_left
      (fun acc r ->
        match r with
        | Error (I.Position_out_of_bounds _) | Error (I.Negative_count _) -> acc
        | _ -> acc + 1)
      0 results
  in
  check_int "ops counted" engine_ops (Probe.counter Exec_batch_ops);
  Alcotest.(check bool) "cursor hits recorded" true (Probe.counter Bv_cursor_hit > 0);
  Alcotest.(check bool)
    "levels timed" true
    (List.exists (fun (op, _) -> op = "exec_level") (Probe.latency_list ()))

let () =
  Alcotest.run "wt_exec"
    [
      ( "oracle",
        [
          Alcotest.test_case "random batches match the scalar oracle" `Quick
            test_batch_oracle_random;
          Alcotest.test_case "empty and tiny sequences" `Quick test_batch_empty_and_tiny;
          Alcotest.test_case "figure-2 trie, bit level, all op kinds" `Quick
            test_fig2_bit_level;
          Alcotest.test_case "dynamic variant under interleaved insert/delete" `Quick
            test_dynamic_interleaved;
        ] );
      ( "cursors",
        [
          Alcotest.test_case "rrr cursor = scalar rank/access" `Quick test_rrr_cursor;
          Alcotest.test_case "appendable cursor = scalar rank/access" `Quick
            test_appendable_cursor;
          Alcotest.test_case "dyn_rle cursor = scalar rank/access" `Quick
            test_dyn_rle_cursor;
          Alcotest.test_case "dyn_rle cursor across insert/delete/append" `Quick
            test_dyn_rle_cursor_across_updates;
          Alcotest.test_case "back-to-back batches vs oracle" `Quick
            test_back_to_back_batches;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "bulk_append = iterated append" `Quick
            test_bulk_append_equivalence;
        ] );
      ( "probes",
        [ Alcotest.test_case "batch counters and cursor hits" `Quick test_exec_probes ] );
    ]
