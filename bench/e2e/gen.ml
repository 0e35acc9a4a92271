(* Workload inputs.  Everything here is a function of the benchmark
   seed; the program under test only ever sees the strings and
   operations generated from it. *)

type shape = { hosts : int; paths_per_host : int }

(* ~2,000 distinct URLs: the served arena (~0.55 MB) fits one core's
   L2 cache. *)
let small = { hosts = 50; paths_per_host = 40 }

(* ~56,000 distinct URLs: the arena (~6.6 MB) does not. *)
let wide = { hosts = 2000; paths_per_host = 200 }

let urls ~seed shape n =
  Wt_workload.Urls.raw_sequence
    (Wt_workload.Urls.create ~seed ~hosts:shape.hosts ~paths_per_host:shape.paths_per_host ())
    n

let rng ~seed salt = Random.State.make [| seed; salt |]
let int rng bound = Random.State.int rng bound

let occurrences data =
  let h = Hashtbl.create 4096 in
  Array.iter (fun s -> Hashtbl.replace h s (1 + Option.value ~default:0 (Hashtbl.find_opt h s))) data;
  h

(* The point-op mix of [wtrie loadgen]: 1/2 access, 1/4 rank, 1/8
   select, 1/8 rank_prefix.  Strings are drawn from the data, select
   asks for an occurrence that exists, and a prefix is a random cut of
   a stored string, so no operation answers an error. *)
let point_ops rng data k =
  let n = Array.length data in
  let occ = occurrences data in
  let pick () = data.(int rng n) in
  Array.init k (fun _ ->
      match int rng 8 with
      | 0 | 1 | 2 | 3 -> Wtrie.Access { pos = int rng n }
      | 4 | 5 -> Wtrie.Rank { s = pick (); pos = int rng (n + 1) }
      | 6 ->
          let s = pick () in
          Wtrie.Select { s; count = int rng (Hashtbl.find occ s) }
      | _ ->
          let s = pick () in
          Wtrie.Rank_prefix
            { prefix = String.sub s 0 (1 + int rng (String.length s)); pos = int rng (n + 1) })

type answer = (Wtrie.value, Wtrie.error) result

(* The reference answer: a scalar call on a second, fully verified
   ([`Copy]) open of the index, a different code path from the batch
   engine that serves and scans. *)
let scalar (c : Wtrie.Static.t) op : answer =
  let int r = Result.map (fun v -> Wtrie.Int v) r in
  match op with
  | Wtrie.Access { pos } -> Result.map (fun s -> Wtrie.Str s) (Wtrie.Static.access c ~pos)
  | Wtrie.Rank { s; pos } -> int (Wtrie.Static.rank c s ~pos)
  | Wtrie.Select { s; count } -> int (Wtrie.Static.select c s ~count)
  | Wtrie.Rank_prefix { prefix; pos } -> int (Wtrie.Static.rank_prefix c ~prefix ~pos)
  | Wtrie.Select_prefix { prefix; count } -> int (Wtrie.Static.select_prefix c ~prefix ~count)

(* A pool of operations with their reference answers.  Load is drawn
   from the pool, so every reply can be checked by a lookup. *)
type pool = { ops : Wtrie.op array; answers : answer array }

let pool ~rng ~data ~index k =
  let c = Wtrie.Static.open_file_exn ~mode:`Copy index in
  let ops = point_ops rng data k in
  let answers = Array.map (scalar c) ops in
  Wtrie.Static.close c;
  (* the reference itself must agree with the generated data *)
  Array.iteri
    (fun i op ->
      match (op, answers.(i)) with
      | Wtrie.Access { pos }, Ok (Wtrie.Str s) when s = data.(pos) -> ()
      | Wtrie.Access _, _ -> failwith "reference index disagrees with the generated data"
      | _, Error e -> failwith (Format.asprintf "reference answer is an error: %a" Wtrie.pp_error e)
      | _ -> ())
    ops;
  { ops; answers }

(* Measured bits over the paper's lower bound LB = LT(Sset) + n H0(S). *)
let space_x_lb (st : Wt_core.Stats.t) = float_of_int st.total_bits /. Wt_core.Stats.lower_bound st
