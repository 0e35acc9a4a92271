(* Tests for wt_succinct: Elias-Fano, partial sums, the succinct
   binary tree shape and the arena's node directory, each against
   explicit reference structures. *)

module Bitbuf = Wt_bits.Bitbuf
module Xoshiro = Wt_bits.Xoshiro
module Elias_fano = Wt_succinct.Elias_fano
module Partial_sums = Wt_succinct.Partial_sums
module Bintree = Wt_succinct.Bintree
module Directory = Wt_succinct.Flat_directory
module Membuf = Wt_bits.Membuf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Elias-Fano *)

let sorted_array rng n max_v =
  let a = Array.init n (fun _ -> Xoshiro.int rng (max_v + 1)) in
  Array.sort compare a;
  a

let test_ef_get () =
  let rng = Xoshiro.create 11 in
  List.iter
    (fun (n, u) ->
      let values = sorted_array rng n u in
      let ef = Elias_fano.of_array ~universe:u values in
      check_int "length" n (Elias_fano.length ef);
      check_int "universe" u (Elias_fano.universe ef);
      Array.iteri (fun i v -> check_int (Printf.sprintf "get %d" i) v (Elias_fano.get ef i)) values)
    [ (0, 100); (1, 0); (1, 1000); (10, 10); (100, 7); (500, 1_000_000); (1000, 1000) ]

let test_ef_rank_le () =
  let rng = Xoshiro.create 12 in
  List.iter
    (fun (n, u) ->
      let values = sorted_array rng n u in
      let ef = Elias_fano.of_array ~universe:u values in
      let naive_rank_le x =
        Array.fold_left (fun acc v -> if v <= x then acc + 1 else acc) 0 values
      in
      for _ = 1 to 200 do
        let x = Xoshiro.int rng (u + 3) - 1 in
        check_int (Printf.sprintf "rank_le %d" x) (naive_rank_le x) (Elias_fano.rank_le ef x)
      done;
      check_int "rank_le -1" 0 (Elias_fano.rank_le ef (-1));
      check_int "rank_le u" n (Elias_fano.rank_le ef u))
    [ (0, 100); (5, 5); (100, 10_000); (1000, 50) ]

let test_ef_predecessor () =
  let ef = Elias_fano.of_array ~universe:100 [| 3; 7; 7; 20; 90 |] in
  Alcotest.(check (option (pair int int))) "pred 2" None (Elias_fano.predecessor ef 2);
  Alcotest.(check (option (pair int int))) "pred 3" (Some (0, 3)) (Elias_fano.predecessor ef 3);
  Alcotest.(check (option (pair int int))) "pred 7" (Some (2, 7)) (Elias_fano.predecessor ef 7);
  Alcotest.(check (option (pair int int)))
    "pred 19" (Some (2, 7)) (Elias_fano.predecessor ef 19);
  Alcotest.(check (option (pair int int)))
    "pred 1000" (Some (4, 90)) (Elias_fano.predecessor ef 1000)

let test_ef_monotone_violation () =
  Alcotest.check_raises "not monotone" (Invalid_argument "Elias_fano.of_array: not monotone")
    (fun () -> ignore (Elias_fano.of_array ~universe:10 [| 5; 3 |]))

let test_ef_space () =
  (* k values in a large universe: ~ k (2 + log(u/k)) bits, far below k words. *)
  let rng = Xoshiro.create 13 in
  let n = 10_000 in
  let u = 10_000_000 in
  let ef = Elias_fano.of_array ~universe:u (sorted_array rng n u) in
  let per_value = float_of_int (Elias_fano.space_bits ef) /. float_of_int n in
  check_bool
    (Printf.sprintf "compact: %.1f bits/value" per_value)
    true (per_value < 20.)

let test_ef_duplicates () =
  (* heavy duplication: every value the same *)
  let ef = Elias_fano.of_array ~universe:50 (Array.make 200 25) in
  for i = 0 to 199 do
    check_int "dup get" 25 (Elias_fano.get ef i)
  done;
  check_int "rank_le 24" 0 (Elias_fano.rank_le ef 24);
  check_int "rank_le 25" 200 (Elias_fano.rank_le ef 25);
  (* zeros allowed *)
  let ef = Elias_fano.of_array ~universe:10 [| 0; 0; 3; 10 |] in
  check_int "get 0" 0 (Elias_fano.get ef 0);
  check_int "rank_le 0" 2 (Elias_fano.rank_le ef 0)

(* ------------------------------------------------------------------ *)
(* Partial sums *)

let test_ps_degenerate () =
  let ps = Partial_sums.of_lengths [||] in
  check_int "empty count" 0 (Partial_sums.count ps);
  check_int "empty total" 0 (Partial_sums.total ps);
  check_int "empty sum" 0 (Partial_sums.sum ps 0);
  let ps = Partial_sums.of_lengths [| 0; 0; 0 |] in
  check_int "all-zero total" 0 (Partial_sums.total ps);
  check_int "all-zero sum" 0 (Partial_sums.sum ps 3)

let test_ps_basic () =
  let ps = Partial_sums.of_lengths [| 3; 0; 5; 1; 0; 2 |] in
  check_int "count" 6 (Partial_sums.count ps);
  check_int "total" 11 (Partial_sums.total ps);
  check_int "sum 0" 0 (Partial_sums.sum ps 0);
  check_int "sum 1" 3 (Partial_sums.sum ps 1);
  check_int "sum 2" 3 (Partial_sums.sum ps 2);
  check_int "sum 3" 8 (Partial_sums.sum ps 3);
  check_int "sum 6" 11 (Partial_sums.sum ps 6);
  check_int "length_of 2" 5 (Partial_sums.length_of ps 2);
  check_int "length_of 4" 0 (Partial_sums.length_of ps 4);
  (* find skips zero-length items *)
  check_int "find 0" 0 (Partial_sums.find ps 0);
  check_int "find 2" 0 (Partial_sums.find ps 2);
  check_int "find 3" 2 (Partial_sums.find ps 3);
  check_int "find 7" 2 (Partial_sums.find ps 7);
  check_int "find 8" 3 (Partial_sums.find ps 8);
  check_int "find 9" 5 (Partial_sums.find ps 9);
  check_int "find 10" 5 (Partial_sums.find ps 10)

let test_ps_random () =
  let rng = Xoshiro.create 21 in
  for _ = 1 to 30 do
    let n = 1 + Xoshiro.int rng 300 in
    let lens = Array.init n (fun _ -> Xoshiro.int rng 20) in
    let ps = Partial_sums.of_lengths lens in
    let sums = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      sums.(i + 1) <- sums.(i) + lens.(i)
    done;
    for i = 0 to n do
      check_int "sum" sums.(i) (Partial_sums.sum ps i)
    done;
    for pos = 0 to sums.(n) - 1 do
      let i = Partial_sums.find ps pos in
      check_bool "find bracket" true (sums.(i) <= pos && pos < sums.(i + 1))
    done
  done

(* ------------------------------------------------------------------ *)
(* Bintree *)

(* Reference: explicit strictly binary trees. *)
type ref_tree = L | N of ref_tree * ref_tree

let rec random_tree rng budget =
  if budget <= 1 || Xoshiro.int rng 4 = 0 then (L, 1)
  else begin
    let l, nl = random_tree rng (budget / 2) in
    let r, nr = random_tree rng (budget - (budget / 2)) in
    (N (l, r), nl + nr + 1)
  end

let shape_of_tree tree =
  let buf = Bitbuf.create () in
  let rec go = function
    | L -> Bitbuf.add buf false
    | N (l, r) ->
        Bitbuf.add buf true;
        go l;
        go r
  in
  go tree;
  buf

(* Collect, per preorder id: (is_leaf, parent, left, right, subtree_size). *)
let analyze tree =
  let info = ref [] in
  let rec go parent id t =
    match t with
    | L ->
        info := (id, (true, parent, -1, -1, 1)) :: !info;
        id + 1
    | N (l, r) ->
        let left_id = id + 1 in
        let after_l = go (Some id) left_id l in
        let right_id = after_l in
        let after_r = go (Some id) right_id r in
        info := (id, (false, parent, left_id, right_id, after_r - id)) :: !info;
        after_r
  in
  let n = go None 0 tree in
  (n, !info)

let test_bintree_navigation () =
  let rng = Xoshiro.create 77 in
  List.iter
    (fun budget ->
      let tree, _ = random_tree rng budget in
      let shape = shape_of_tree tree in
      let bt = Bintree.of_bitbuf shape in
      let n, info = analyze tree in
      check_int "node count" n (Bintree.node_count bt);
      check_int "leaves = internal + 1" (Bintree.internal_count bt + 1) (Bintree.leaf_count bt);
      List.iter
        (fun (id, (leaf, parent, left, right, size)) ->
          check_bool (Printf.sprintf "is_leaf %d" id) leaf (Bintree.is_leaf bt id);
          (match parent with
          | None -> Alcotest.(check (option int)) "root parent" None (Bintree.parent bt id)
          | Some p ->
              Alcotest.(check (option int))
                (Printf.sprintf "parent %d" id)
                (Some p) (Bintree.parent bt id));
          if not leaf then begin
            check_int (Printf.sprintf "left %d" id) left (Bintree.left_child bt id);
            check_int (Printf.sprintf "right %d" id) right (Bintree.right_child bt id)
          end;
          check_int (Printf.sprintf "subtree_end %d" id) (id + size) (Bintree.subtree_end bt id);
          (match parent with
          | Some p ->
              let is_left = Bintree.left_child bt p = id in
              check_bool
                (Printf.sprintf "is_left_child %d" id)
                is_left (Bintree.is_left_child bt id)
          | None -> ()))
        info)
    [ 1; 3; 7; 31; 100; 500; 2000 ]

let test_bintree_validation () =
  Alcotest.check_raises "unbalanced" (Invalid_argument "Bintree.of_bitbuf: invalid shape (unbalanced)")
    (fun () -> ignore (Bintree.of_bitbuf (Bitbuf.of_string "10")));
  Alcotest.check_raises "early close"
    (Invalid_argument "Bintree.of_bitbuf: invalid shape (early close)") (fun () ->
      ignore (Bintree.of_bitbuf (Bitbuf.of_string "1001100")));
  Alcotest.check_raises "empty" (Invalid_argument "Bintree.of_bitbuf: empty shape")
    (fun () -> ignore (Bintree.of_bitbuf (Bitbuf.create ())));
  (* single leaf is fine *)
  let bt = Bintree.of_bitbuf (Bitbuf.of_string "0") in
  check_int "single node" 1 (Bintree.node_count bt);
  check_bool "leaf" true (Bintree.is_leaf bt 0)

let test_bintree_internal_rank () =
  (* Shape: root with two internal children, each with two leaves:
     preorder = 1 1 0 0 1 0 0 *)
  let bt = Bintree.of_bitbuf (Bitbuf.of_string "1100100") in
  check_int "rank of root" 0 (Bintree.internal_rank bt 0);
  check_int "rank of node1" 1 (Bintree.internal_rank bt 1);
  check_int "rank of node4" 2 (Bintree.internal_rank bt 4);
  check_int "internal count" 3 (Bintree.internal_count bt)

let test_bintree_left_spine () =
  (* Degenerate left spine exercises deep excess searches. *)
  let depth = 3000 in
  let buf = Bitbuf.create () in
  for _ = 1 to depth do
    Bitbuf.add buf true;
    (* each internal node: left child continues the spine *)
    ()
  done;
  (* spine of internal nodes each whose right child is a leaf:
     preorder = 1 (1 (1 ... 0) 0) 0 — build explicitly: 1^depth then 0,
     then depth 0s interleaved?  Simpler: right spine: 1 0 1 0 ... 1 0 0 *)
  Bitbuf.clear buf;
  for _ = 1 to depth do
    Bitbuf.add buf true;
    Bitbuf.add buf false
  done;
  Bitbuf.add buf false;
  let bt = Bintree.of_bitbuf buf in
  check_int "nodes" ((2 * depth) + 1) (Bintree.node_count bt);
  (* Walk the right spine. *)
  let v = ref 0 in
  for _ = 1 to depth - 1 do
    check_bool "internal" false (Bintree.is_leaf bt !v);
    check_int "left child is leaf" (!v + 1) (Bintree.left_child bt !v);
    check_bool "left child leaf" true (Bintree.is_leaf bt (!v + 1));
    let r = Bintree.right_child bt !v in
    Alcotest.(check (option int)) "parent of right" (Some !v) (Bintree.parent bt r);
    v := r
  done

(* ------------------------------------------------------------------ *)
(* The arena's node directory (partitioned Elias–Fano) *)

(* A directory case: [pad] bits ahead of the stream, the offsets (one
   more than the nodes), their universe, and the internal bits. *)
type dir_case = { pad : int; offsets : int array; universe : int; internal : bool array }

(* Node counts around the block size and the one- and two-value edges;
   gaps from runs of equal values to wide jumps, after a first gap that
   may be huge (the root's β); universe 0 when every value is; internal
   bits at random, at most nodes / 2 of them. *)
let dir_cases ~max_nodes =
  let open QCheck.Gen in
  let nodes =
    oneof [ oneofl [ 0; 1; 2; 31; 32; 33; 63; 64; 65 ]; int_range 0 max_nodes ]
  in
  let gap = oneof [ return 0; int_range 0 3; int_range 0 200; int_range 0 100_000 ] in
  let first_gap = oneof [ return 0; int_range 0 50; int_range 100_000 5_000_000 ] in
  nodes >>= fun n ->
  list_repeat n gap >>= fun gaps ->
  first_gap >>= fun g0 ->
  int_range 0 2 >>= fun slack ->
  int_range 0 13 >>= fun pad ->
  list_repeat n bool >>= fun bits ->
  let offsets = Array.make (n + 1) 0 in
  List.iteri
    (fun i g -> offsets.(i + 1) <- offsets.(i) + (if i = 0 then g0 + g else g))
    gaps;
  let internal = Array.of_list bits in
  let set = ref 0 in
  Array.iteri
    (fun i b -> if b then if !set < n / 2 then incr set else internal.(i) <- false)
    internal;
  let universe = if offsets.(n) = 0 && slack = 0 then 0 else offsets.(n) + slack in
  return { pad; offsets; universe; internal }

let print_dir_case c =
  Printf.sprintf "pad %d universe %d offsets [%s] internal [%s]" c.pad c.universe
    (String.concat "; " (Array.to_list (Array.map string_of_int c.offsets)))
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") c.internal)))

(* The case's stream, [pad] zero bits ahead, as bytes; and its length. *)
let dir_bytes c =
  let internal = Bitbuf.create () in
  Array.iter (Bitbuf.add internal) c.internal;
  let bb = Bitbuf.create () in
  Bitbuf.add_bits bb c.pad 0;
  Directory.append bb ~internal ~universe:c.universe c.offsets;
  let buf = Buffer.create 64 in
  Bitbuf.add_to_buffer buf bb;
  (Buffer.contents buf, Bitbuf.length bb - c.pad)

let dir_of c bytes bits =
  Directory.of_membuf (Membuf.of_string bytes) ~bit:c.pad ~bits
    ~nodes:(Array.length c.offsets - 1) ~universe:c.universe

let prop_directory c =
  let bytes, bits = dir_bytes c in
  let d = dir_of c bytes bits in
  let n = Array.length c.offsets - 1 in
  let rank = ref 0 and ok = ref true in
  for i = 0 to n do
    ok := !ok && Directory.get d i = c.offsets.(i);
    if i < n then begin
      let expect = if c.internal.(i) then !rank else -1 in
      ok := !ok && Directory.irank d i = expect;
      ok := !ok && Directory.visit d i = (expect, c.offsets.(i), c.offsets.(i + 1));
      if c.internal.(i) then incr rank
    end
  done;
  Directory.check d;
  !ok && Directory.internal_count d = !rank

let qcheck_directory =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"get, irank and visit = the arrays" ~count:500
       (QCheck.make ~print:print_dir_case (dir_cases ~max_nodes:300))
       prop_directory)

(* Every query on [d] answers or raises the codec's own
   [Invalid_argument]: a read the bytes' window refuses ("Membuf.")
   would have left the section. *)
let bounded what d n =
  let attempt f =
    match f () with
    | _ -> ()
    | exception Invalid_argument m when not (String.starts_with ~prefix:"Membuf." m) -> ()
    | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e)
  in
  for i = -1 to n + 1 do
    attempt (fun () -> ignore (Directory.get d i));
    attempt (fun () -> ignore (Directory.irank d i));
    attempt (fun () -> ignore (Directory.visit d i))
  done;
  attempt (fun () -> ignore (Directory.internal_count d));
  match Directory.check d with () -> () | exception Failure _ -> ()

(* Every bit of the stream flipped, and the stream cut at every length:
   the view opens or refuses, and then stays bounded. *)
let prop_directory_corrupt c =
  let bytes, bits = dir_bytes c in
  let n = Array.length c.offsets - 1 in
  for bit = c.pad to c.pad + bits - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b (bit / 8) (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    bounded (Printf.sprintf "flip %d" bit) (dir_of c (Bytes.to_string b) bits) n
  done;
  for cut = 0 to bits - 1 do
    let len = (c.pad + cut + 7) / 8 in
    match dir_of c (String.sub bytes 0 len) cut with
    | exception Invalid_argument m when not (String.starts_with ~prefix:"Membuf." m) -> ()
    | d -> bounded (Printf.sprintf "cut at %d" cut) d n
  done;
  true

let qcheck_directory_corrupt =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"flipped or cut: bounded to the section" ~count:40
       (QCheck.make ~print:print_dir_case (dir_cases ~max_nodes:70))
       prop_directory_corrupt)

let () =
  Alcotest.run "wt_succinct"
    [
      ( "elias_fano",
        [
          Alcotest.test_case "get" `Quick test_ef_get;
          Alcotest.test_case "rank_le" `Quick test_ef_rank_le;
          Alcotest.test_case "predecessor" `Quick test_ef_predecessor;
          Alcotest.test_case "monotone check" `Quick test_ef_monotone_violation;
          Alcotest.test_case "space" `Quick test_ef_space;
          Alcotest.test_case "duplicates and zeros" `Quick test_ef_duplicates;
        ] );
      ( "partial_sums",
        [
          Alcotest.test_case "degenerate" `Quick test_ps_degenerate;
          Alcotest.test_case "basic" `Quick test_ps_basic;
          Alcotest.test_case "random" `Quick test_ps_random;
        ] );
      ( "bintree",
        [
          Alcotest.test_case "navigation vs reference" `Quick test_bintree_navigation;
          Alcotest.test_case "shape validation" `Quick test_bintree_validation;
          Alcotest.test_case "internal rank" `Quick test_bintree_internal_rank;
          Alcotest.test_case "deep spine" `Quick test_bintree_left_spine;
        ] );
      ("flat_directory", [ qcheck_directory; qcheck_directory_corrupt ]);
    ]
