(* The one differential oracle for every backend of the indexed string
   sequence (§1; Lemmas 3.2–3.3).

   - [Model]: [Indexed_sequence.Naive] over the binarized strings answers
     the point ops, and window loops over the plain strings answer the
     range ops, each with the exact [Wtrie.error] of every bad argument.
   - [Gen]: ops, probe strings and prefixes, windows — out-of-range
     positions, negative counts, absent strings and prefixes, [""], the
     bytes 0x00 and 0xFF, and selects at count - 1, count and count + 1;
     and exhaustive sets: every position, every occurrence, a rank of
     every string at chosen positions.
   - [Check (Q)]: any [Wtrie.QUERY_API] against the model — every point
     op through the scalar façade and through [query_batch] at
     [~domains:1], [2] and [4] (batches of at least 512 ops, so [Par_exec]
     really shards), the totals, and every range op over windows x
     prefixes x k/threshold sets; [exhaustive] adds every position and
     occurrence and every quantile of one window.
   - [wire]: every point op and [Length] against a live [Server], from
     one client and from several client domains.
   - [Scenario]: the tiered store driven by ingests, flushes,
     compactions, publishes, reopens and injected crashes, checked
     after each structural step. *)

module I = Wt_core.Indexed_sequence
module Naive = I.Naive
module Xoshiro = Wt_bits.Xoshiro
module Server = Wt_serve.Server
module Client = Wt_serve.Client
module Wire = Wt_serve.Wire
module T = Wtrie.Tiered

let encode = Wt_core.String_api.encode
let encode_prefix = Wt_core.String_api.encode_prefix

(* The §3 pointer trie as a QUERY_API, its functors applied here: the
   reference instance. *)
module Pointer = struct
  module W = Wt_core.Wavelet_trie
  include Wt_core.Range.Make_string (Wt_core.Range.Make (W.Node))
  module E = Wt_exec.Exec.Make_string (W.Node)

  type t = W.t

  let length = W.length
  let distinct_count = W.distinct_count
  let space_bits = W.space_bits
  let query_batch ?domains t ops = Wt_par.Par_exec.query_batch ?domains E.query_batch t ops

  include I.Point (struct type nonrec t = t let length = length let query_batch = query_batch end)

  let of_array a = W.of_array (Array.map encode a)
end

module type POINT = sig
  type t

  val access : t -> pos:int -> (string, I.error) result
  val rank : t -> string -> pos:int -> (int, I.error) result
  val select : t -> string -> count:int -> (int, I.error) result
  val rank_prefix : t -> prefix:string -> pos:int -> (int, I.error) result
  val select_prefix : t -> prefix:string -> count:int -> (int, I.error) result
end

(* One op through a scalar façade. *)
let scalar (type a) (module Q : POINT with type t = a) (t : a) op =
  let int r = Result.map (fun v -> I.Int v) r in
  match op with
  | I.Access { pos } -> Result.map (fun s -> I.Str s) (Q.access t ~pos)
  | I.Rank { s; pos } -> int (Q.rank t s ~pos)
  | I.Select { s; count } -> int (Q.select t s ~count)
  | I.Rank_prefix { prefix; pos } -> int (Q.rank_prefix t ~prefix ~pos)
  | I.Select_prefix { prefix; count } -> int (Q.select_prefix t ~prefix ~count)

(* ------------------------------------------------------------------ *)
(* Model *)

module Model = struct
  type t = {
    strings : string array;
    naive : Naive.t;
    distinct : string array Lazy.t;  (** the stored strings, sorted, once each *)
    scans : (string * int * int, int list * (string * int) list) Hashtbl.t;
        (** window scans, by (prefix, lo, hi) *)
    answers : (I.op, (I.value, I.error) result) Hashtbl.t;  (** point answers, by op *)
  }

  let length m = Array.length m.strings
  let distinct_count m = Array.length (Lazy.force m.distinct)
  let oob m pos = Error (I.Position_out_of_bounds { pos; len = length m })

  let access m ~pos =
    if pos < 0 || pos >= length m then oob m pos
    else Ok (Wt_strings.Binarize.to_bytes (Naive.access m.naive pos))

  let rank m s ~pos =
    if pos < 0 || pos > length m then oob m pos else Ok (Naive.rank m.naive (encode s) pos)

  let rank_prefix m ~prefix ~pos =
    if pos < 0 || pos > length m then oob m pos
    else Ok (Naive.rank_prefix m.naive (encode_prefix prefix) pos)

  let count m s = Naive.rank m.naive (encode s) (length m)
  let count_prefix m ~prefix = Naive.rank_prefix m.naive (encode_prefix prefix) (length m)

  let selected ~count found occurrences =
    if count < 0 then Error (I.Negative_count { count })
    else
      match found () with
      | Some p -> Ok p
      | None -> Error (I.No_occurrence { count; occurrences = occurrences () })

  let select m s ~count =
    let e = encode s in
    selected ~count
      (fun () -> Naive.select m.naive e count)
      (fun () -> Naive.rank m.naive e (length m))

  let select_prefix m ~prefix ~count =
    selected ~count
      (fun () -> Naive.select_prefix m.naive (encode_prefix prefix) count)
      (fun () -> count_prefix m ~prefix)

  (* Range ops: loops over the window of plain strings.  Binarization
     keeps byte order, so a trie's path order is [String.compare]. *)

  let window m lo hi =
    let len = length m in
    let lo = Option.value lo ~default:0 and hi = Option.value hi ~default:len in
    if lo < 0 || lo > len then oob m lo
    else if hi < lo || hi > len then oob m hi
    else Ok (lo, hi)

  (* The window's matching positions, and its tally sorted by string. *)
  let scan ?(prefix = "") m (lo, hi) =
    match Hashtbl.find_opt m.scans (prefix, lo, hi) with
    | Some r -> r
    | None ->
        let positions =
          List.init (hi - lo) (( + ) lo)
          |> List.filter (fun i -> String.starts_with ~prefix m.strings.(i))
        in
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun i ->
            let s = m.strings.(i) in
            Hashtbl.replace tbl s (1 + Option.value (Hashtbl.find_opt tbl s) ~default:0))
          positions;
        let r = (positions, List.sort compare (List.of_seq (Hashtbl.to_seq tbl))) in
        Hashtbl.add m.scans (prefix, lo, hi) r;
        r

  let matching ?prefix m w = fst (scan ?prefix m w)
  let tally ?prefix m w = snd (scan ?prefix m w)

  let on ?lo ?hi m f = Result.map f (window m lo hi)
  let select_all ?prefix ?lo ?hi m = on ?lo ?hi m (fun w -> Array.of_list (matching ?prefix m w))

  let range_count ?prefix m ~lo ~hi =
    on ~lo ~hi m (fun w -> List.length (matching ?prefix m w))

  let range_distinct ?prefix ?lo ?hi m = on ?lo ?hi m (fun w -> Array.of_list (tally ?prefix m w))

  let range_topk ?prefix ?lo ?hi m ~k =
    if k < 0 then Error (I.Negative_count { count = k })
    else
      on ?lo ?hi m (fun w ->
          let l = List.stable_sort (fun (_, a) (_, b) -> compare b a) (tally ?prefix m w) in
          Array.of_list (List.filteri (fun i _ -> i < k) l))

  let range_majority ?prefix ?lo ?hi m =
    on ?lo ?hi m (fun w ->
        let l = tally ?prefix m w in
        let total = List.fold_left (fun acc (_, c) -> acc + c) 0 l in
        List.find_opt (fun (_, c) -> 2 * c > total) l)

  let range_at_least ?prefix ?lo ?hi m ~threshold =
    on ?lo ?hi m (fun w ->
        Array.of_list (List.filter (fun (_, c) -> c >= max 1 threshold) (tally ?prefix m w)))

  let range_quantile ?prefix ?lo ?hi m ~k =
    if k < 0 then Error (I.Negative_count { count = k })
    else
      on ?lo ?hi m (fun w ->
          let rec nth k = function
            | (s, c) :: rest -> if k < c then Some s else nth (k - c) rest
            | [] -> None
          in
          nth k (tally ?prefix m w))
end

let model strings =
  let strings = Array.copy strings in
  {
    Model.strings;
    naive = Naive.of_array (Array.map encode strings);
    distinct = lazy (Array.of_list (List.sort_uniq compare (Array.to_list strings)));
    scans = Hashtbl.create 16;
    answers = Hashtbl.create 1024;
  }

(* The model's answers to [ops], each worked out once per model. *)
let expected (m : Model.t) ops =
  Array.map
    (fun op ->
      match Hashtbl.find_opt m.answers op with
      | Some r -> r
      | None ->
          let r = scalar (module Model) m op in
          Hashtbl.add m.answers op r;
          r)
    ops

(* A mirror array edited like a dynamic sequence. *)
let insert a pos s =
  Array.concat [ Array.sub a 0 pos; [| s |]; Array.sub a pos (Array.length a - pos) ]

let delete a pos =
  Array.append (Array.sub a 0 pos) (Array.sub a (pos + 1) (Array.length a - pos - 1))

(* ------------------------------------------------------------------ *)
(* Temporary files *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* A fresh path for a directory [name] in the temp directory. *)
let temp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wt_%s_%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

(* [f path] with the static index [t] saved at a fresh temporary
   [path], removed afterwards. *)
let with_saved t f =
  let path = Filename.temp_file "wt_index" ".wtx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wtrie.Static.save_file_exn t path;
      f path)

(* A writable copy of the flat directory [src] at [temp_dir name]. *)
let copy_dir src name =
  let dir = temp_dir name in
  Sys.mkdir dir 0o755;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc data))
    (Sys.readdir src);
  dir

(* ------------------------------------------------------------------ *)
(* Legacy fixtures.  Nothing writes format v2 any more: the v2 tests
   read the indexes in [fixtures/legacy] (its README says how they were
   made), each the sequence [legacy_s 0 … legacy_s 4499] as a static,
   append-only or dynamic trie, and [legacy_s 0 … legacy_s 4105] as an
   append-only trie caught mid-encoding. *)

let legacy name = Filename.concat "fixtures/legacy" name
let legacy_s i = Printf.sprintf "h%d.example/p%d" (i mod 5) (i mod 3)
let legacy_n = 4500

(* [append-pending.wt] holds [legacy_s 0 … legacy_s 4105]: its root's
   segment filled at the 4,096th string and is still pending. *)
let legacy_pending_n = 4106

(* [f path] on a writable copy of [fixtures/legacy/<variant>.wt] at a
   fresh temporary [path], removed afterwards. *)
let with_legacy variant f =
  let path = Filename.temp_file ("wt_legacy_" ^ variant) ".wt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let data = In_channel.with_open_bin (legacy (variant ^ ".wt")) In_channel.input_all in
      Out_channel.with_open_bin path (fun oc -> output_string oc data);
      f path)

(* Strings at the edges of a version-9 arena's byte codes: of one byte
   (|B| = 1), of all 256 (and random bytes), and of one dominant byte
   and three others, whose internal labels' code gives it a 1-bit
   codeword, and so a 4-bit end field. *)
let code_edges =
  let rng = Xoshiro.create 61 in
  [
    ("one byte", Array.init 240 (fun i -> String.make (i * 7 mod 45) 'x'));
    ( "every byte",
      Array.append
        [| String.init 256 Char.chr |]
        (Array.init 300 (fun _ ->
             String.init (1 + Xoshiro.int rng 12) (fun _ -> Char.chr (Xoshiro.int rng 256)))) );
    ( "one dominant byte",
      Array.init 400 (fun _ ->
          String.make (Xoshiro.int rng 30) 'a'
          ^ String.make 1 "bcd".[Xoshiro.int rng 3]
          ^ String.make (Xoshiro.int rng 20) 'a') );
  ]

(* ------------------------------------------------------------------ *)
(* Generator *)

module Gen = struct
  let specials = [ ""; "\x00"; "\xff"; "zz-absent" ]
  let distinct (m : Model.t) = Array.to_list (Lazy.force m.distinct)

  (* [k] of the distinct stored strings, spread over byte order. *)
  let spread k (m : Model.t) =
    let d = Lazy.force m.distinct in
    let n = Array.length d in
    if n <= k then Array.to_list d else List.init k (fun i -> d.(i * (n - 1) / (k - 1)))

  (* Up to 24 stored strings, absent strings next to two of them in
     byte order, and the specials. *)
  let strings m =
    let some = spread 24 m in
    let near = List.concat_map (fun s -> [ s ^ "\x00"; s ^ "\xff" ]) (spread 2 m) in
    List.sort_uniq compare (some @ near @ specials)

  (* The specials, then cuts of stored strings spread over byte order:
     one byte, half, whole, one byte past. *)
  let prefixes m =
    let cuts =
      match spread 4 m with
      | [ a; b; c; d ] ->
          [
            String.sub a 0 (min 1 (String.length a));
            String.sub b 0 (String.length b / 2);
            c;
            d ^ "\x00";
          ]
      | l -> l
    in
    List.fold_left (fun acc p -> if List.mem p acc then acc else acc @ [ p ]) [] (specials @ cuts)

  let windows (m : Model.t) =
    let n = Model.length m in
    [ (0, n); (0, n / 2); (n / 3, n - (n / 4)); (n / 2, n / 2) ]
    @ [ (-1, n); (0, n + 1); ((n / 2) + 1, n / 2) ]

  (* Every stored string and the generated absent ones. *)
  let probes m = List.sort_uniq compare (distinct m @ strings m)

  (* Every position and occurrence: access at each position -1..len,
     and a select at every count -1..count+1 of every probe string and
     every generated prefix. *)
  let every m =
    let from lo hi = List.init (hi - lo + 1) (( + ) lo) in
    List.map (fun pos -> I.Access { pos }) (from (-1) (Model.length m))
    @ List.concat_map
        (fun s -> List.map (fun count -> I.Select { s; count }) (from (-1) (Model.count m s + 1)))
        (probes m)
    @ List.concat_map
        (fun prefix ->
          List.map
            (fun count -> I.Select_prefix { prefix; count })
            (from (-1) (Model.count_prefix m ~prefix + 1)))
        (prefixes m)
    |> Array.of_list

  (* A rank of every probe string and generated prefix at each of
     [positions]. *)
  let ranks m positions =
    let strings = probes m and prefixes = prefixes m in
    List.concat_map
      (fun pos ->
        List.map (fun s -> I.Rank { s; pos }) strings
        @ List.map (fun prefix -> I.Rank_prefix { prefix; pos }) prefixes)
      positions
    |> Array.of_list

  (* The positions on each side of each of [bounds]. *)
  let sides bounds = List.concat_map (fun b -> [ b - 1; b; b + 1 ]) bounds

  (* [n] ops; positions straddle [0, len], counts straddle the
     occurrence count. *)
  let ops ?(n = 512) rng m =
    let len = Model.length m in
    let strings = Array.of_list (strings m) and prefixes = Array.of_list (prefixes m) in
    let counts = Array.map (Model.count m) strings
    and prefix_counts = Array.map (fun prefix -> Model.count_prefix m ~prefix) prefixes in
    (* negative, 0, x - 1, x, x + 1, or anywhere in [0, x] *)
    let near x =
      match Xoshiro.int rng 7 with
      | 0 -> -1 - Xoshiro.int rng 2
      | 1 -> 0
      | 2 -> x - 1
      | 3 -> x
      | 4 -> x + 1
      | _ -> Xoshiro.int rng (max 1 (x + 1))
    in
    Array.init n (fun _ ->
        let i = Xoshiro.int rng (Array.length strings)
        and j = Xoshiro.int rng (Array.length prefixes) in
        match Xoshiro.int rng 5 with
        | 0 -> I.Access { pos = near (len - 1) }
        | 1 -> I.Rank { s = strings.(i); pos = near len }
        | 2 -> I.Select { s = strings.(i); count = near counts.(i) }
        | 3 -> I.Rank_prefix { prefix = prefixes.(j); pos = near len }
        | _ -> I.Select_prefix { prefix = prefixes.(j); count = near prefix_counts.(j) })
end

(* ------------------------------------------------------------------ *)
(* Checks *)

let show_op = function
  | I.Access { pos } -> Printf.sprintf "access %d" pos
  | I.Rank { s; pos } -> Printf.sprintf "rank %S %d" s pos
  | I.Select { s; count } -> Printf.sprintf "select %S %d" s count
  | I.Rank_prefix { prefix; pos } -> Printf.sprintf "rank_prefix %S %d" prefix pos
  | I.Select_prefix { prefix; count } -> Printf.sprintf "select_prefix %S %d" prefix count

let pp_result ppf = function
  | Ok v -> Format.fprintf ppf "Ok %a" I.pp_value v
  | Error e -> Format.fprintf ppf "Error (%a)" I.pp_error e

(* [got] answers [ops] index for index as [expected] does. *)
let agree ~ctx ops ~expected got =
  if Array.length got <> Array.length ops then
    Alcotest.failf "%s: %d results for %d ops" ctx (Array.length got) (Array.length ops);
  Array.iteri
    (fun i r ->
      if r <> expected.(i) then
        Alcotest.failf "%s: op %d (%s): got %a, expected %a" ctx i (show_op ops.(i))
          pp_result r pp_result expected.(i))
    got

let same ctx expected got =
  if expected <> got then Alcotest.failf "%s: differs from the model" ctx

module Check (Q : Wtrie.QUERY_API) = struct
  (* [ops] through the scalar façade and through [query_batch] at 1, 2
     and 4 domains ([Par_exec] runs a batch with no [~domains] as it
     runs [~domains:1]). *)
  let point ~ctx t m ops =
    let expected = expected m ops in
    let leg name got = agree ~ctx:(ctx ^ ": " ^ name) ops ~expected got in
    leg "scalar" (Array.map (scalar (module Q) t) ops);
    List.iter
      (fun d ->
        leg (Printf.sprintf "query_batch ~domains:%d" d) (Q.query_batch ~domains:d t ops))
      [ 1; 2; 4 ]

  (* [ops] through the scalar façade alone. *)
  let scalar_only ~ctx t m ops =
    agree ~ctx:(ctx ^ ": scalar") ops ~expected:(expected m ops)
      (Array.map (scalar (module Q) t) ops)

  let totals ~ctx t m =
    let c what = Printf.sprintf "%s: %s" ctx what in
    same (c "length") (Model.length m) (Q.length t);
    same (c "distinct_count") (Model.distinct_count m) (Q.distinct_count t);
    List.iter
      (fun s -> same (c ("count " ^ String.escaped s)) (Model.count m s) (Q.count t s))
      (Gen.strings m);
    List.iter
      (fun prefix ->
        same
          (c ("count_prefix " ^ String.escaped prefix))
          (Model.count_prefix m ~prefix) (Q.count_prefix t ~prefix))
      (Gen.prefixes m)

  (* Every range op on each window x prefix; each of [ks] serves as the
     top-k size, the threshold and a quantile rank, next to the
     quantiles at 0 and the window's middle and end (or at
     [quantiles]). *)
  let range ~ctx ~windows ~prefixes ~ks ?quantiles t m =
    List.iter
      (fun (lo, hi) ->
        List.iter
          (fun prefix ->
            let same ?k what expected got =
              if expected <> got then
                Alcotest.failf "%s: %s%s prefix=%s [%d, %d): differs from the model" ctx what
                  (match k with None -> "" | Some k -> Printf.sprintf " %d" k)
                  (match prefix with None -> "-" | Some p -> Printf.sprintf "%S" p)
                  lo hi
            in
            same "select_all" (Model.select_all ?prefix ~lo ~hi m) (Q.select_all ?prefix ~lo ~hi t);
            same "range_count"
              (Model.range_count ?prefix m ~lo ~hi)
              (Q.range_count ?prefix t ~lo ~hi);
            same "range_distinct"
              (Model.range_distinct ?prefix ~lo ~hi m)
              (Q.range_distinct ?prefix ~lo ~hi t);
            same "range_majority"
              (Model.range_majority ?prefix ~lo ~hi m)
              (Q.range_majority ?prefix ~lo ~hi t);
            List.iter
              (fun k ->
                same ~k "range_topk"
                  (Model.range_topk ?prefix ~lo ~hi m ~k)
                  (Q.range_topk ?prefix ~lo ~hi t ~k);
                same ~k "range_at_least"
                  (Model.range_at_least ?prefix ~lo ~hi m ~threshold:k)
                  (Q.range_at_least ?prefix ~lo ~hi t ~threshold:k))
              ks;
            let w = hi - lo in
            List.iter
              (fun k ->
                same ~k "range_quantile"
                  (Model.range_quantile ?prefix ~lo ~hi m ~k)
                  (Q.range_quantile ?prefix ~lo ~hi t ~k))
              (match quantiles with
              | Some ks -> ks
              | None -> List.sort_uniq compare (ks @ [ 0; w / 2; w - 1; w ])))
          prefixes)
      windows;
    (* omitted bounds are the whole sequence *)
    same (ctx ^ ": select_all, default window") (Model.select_all m) (Q.select_all t);
    same (ctx ^ ": range_distinct, default window") (Model.range_distinct m) (Q.range_distinct t)

  (* Every position and occurrence ([Gen.every]), and the quantile at
     every k of the middle half. *)
  let exhaustive ~ctx t m =
    point ~ctx t m (Gen.every m);
    let n = Model.length m in
    let lo = n / 4 and hi = n - (n / 4) in
    range ~ctx ~windows:[ (lo, hi) ] ~prefixes:[ None ] ~ks:[]
      ~quantiles:(List.init (hi - lo + 2) (fun k -> k - 1))
      t m

  (* The whole surface against [m]: the point ops [ops] (by default 512
     generated ones), the totals, and the range ops over the generated
     windows plus [windows]. *)
  let run ?ops ?(windows = []) ~ctx t m =
    point ~ctx t m (match ops with Some ops -> ops | None -> Gen.ops (Xoshiro.create 1) m);
    totals ~ctx t m;
    let prefixes = None :: List.map Option.some (Gen.prefixes m) in
    range ~ctx ~windows:(Gen.windows m @ windows) ~prefixes ~ks:[ -1; 0; 1; 2; 3; 1000 ] t m
end

(* ------------------------------------------------------------------ *)
(* Over the wire *)

let status = function Ok v -> Wire.Ok_value v | Error e -> Wire.Query_error e

(* [f port] while [backend] serves [snap] on an ephemeral port. *)
let serving ?domains backend snap f =
  let config = { (Server.default_config ()) with port = 0; window_us = 0; domains } in
  let srv = Server.create ~config ~backend snap in
  let d = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      Domain.join d)
    (fun () -> f (Server.port srv))

(* Every op and [Length], from one client; then the ops split over
   [clients] client domains at once. *)
let wire ?(clients = 3) ~ctx ~port m ops =
  let expected = Array.map status (expected m ops) in
  let run slice stride () =
    let c = Client.connect ~host:"127.0.0.1" ~port () in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        same (ctx ^ ": Length over the wire") (Model.length m) (Client.length c);
        Array.iteri
          (fun i op ->
            if i mod stride = slice && Client.call c (Wire.Query op) <> expected.(i) then
              Alcotest.failf "%s: op %d (%s): the served reply differs from the model" ctx i
                (show_op op))
          ops)
  in
  run 0 1 ();
  List.iter Domain.join (List.init clients (fun k -> Domain.spawn (run k clients)))

(* ------------------------------------------------------------------ *)
(* Tiered scenarios *)

module Scenario = struct
  module Fault = Wt_durable.Fault
  module C = Check (T)

  type step =
    | Ingest of string
    | Flush
    | Compact
    | Publish
    | Reopen
    | Crash of int * string list
        (** arm a crash after this many bytes, then ingest, flush and
            compact until it fires *)

  let pp = function
    | Ingest s -> Printf.sprintf "ingest %S" s
    | Flush -> "flush"
    | Compact -> "compact"
    | Publish -> "publish"
    | Reopen -> "reopen"
    | Crash (b, ss) ->
        Printf.sprintf "crash after %d bytes of [%s]" b
          (String.concat "; " (List.map (Printf.sprintf "%S") ss))

  (* Duplicates and shared prefixes are where per-tier merging goes
     wrong, so the alphabet is tiny. *)
  let word =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:(char_range 'a' 'c') (int_range 1 5);
          oneofl [ ""; "\x00"; "\xff"; "a\xff" ];
        ])

  let step ~crashes =
    let crash =
      QCheck.Gen.(map2 (fun b ss -> Crash (b, ss)) (int_bound 400) (list_size (int_range 1 8) word))
    in
    QCheck.Gen.(
      frequency
        ([ (16, map (fun s -> Ingest s) word); (2, return Flush); (2, return Compact) ]
        @ [ (2, return Publish); (1, return Reopen) ]
        @ if crashes then [ (1, crash) ] else []))

  (* Up to [steps] steps. *)
  let arb ?(crashes = true) ?(steps = 90) () =
    QCheck.make
      ~print:(fun l -> String.concat "; " (List.map pp l))
      QCheck.Gen.(list_size (int_range 1 steps) (step ~crashes))

  (* The positions where one tier of [v] ends and the next begins. *)
  let tier_bounds v =
    Array.to_list v.T.View.offsets |> List.filter (fun b -> 0 < b && b < T.View.length v)

  (* Explicit compactions rotate through pools of 1, 2 and 4 domains. *)
  let pools = lazy (Array.map (fun size -> Wt_par.Pool.create ~size ()) [| 1; 2; 4 |])

  (* Runs [steps] on a fresh store in [dir] with a tiny seal threshold,
     so background compactions fire mid-scenario, checking the store
     against the ingested strings after every compaction and crash, and
     at the end, before and after a reopen and after compacting
     everything: every position and occurrence, a rank of every string
     on each side of each tier boundary, the generated windows plus one
     straddling each tier boundary, and, through the scalar façade, a
     rank of every string at every position.  A reopen must find the
     closed store's generation, runs and delta, with nothing to repair.
     A crash runs on a store reopened with no seal threshold, so every
     write it tears is on this domain; the recovered store must hold a
     prefix of the ingested strings no shorter than the flushed ones,
     and is checked against exactly that prefix. *)
  let run ~dir steps =
    rm_rf dir;
    let threshold = 6 in
    let t = ref (T.create ~threshold dir) in
    let strings = ref [] (* newest first *) and acked = ref 0 and compactions = ref 0 in
    let check ctx =
      let m = model (Array.of_list (List.rev !strings)) in
      let n = T.length !t and bounds = tier_bounds (T.current_view !t) in
      C.run ~ctx
        ~ops:(Array.append (Gen.every m) (Gen.ranks m (Gen.sides (0 :: n :: bounds))))
        ~windows:(List.map (fun b -> (max 0 (b - 2), min n (b + 3))) bounds)
        !t m;
      (* the scalar façade alone: through the three batch legs too,
         this sweep takes about four times as long *)
      C.scalar_only ~ctx !t m (Gen.ranks m (List.init (n + 3) (fun p -> p - 1)))
    in
    let reopen ~ctx threshold =
      T.wait_compaction !t;
      T.flush !t;
      let before = (T.generation !t, T.run_count !t, T.delta_length !t) in
      T.close !t;
      let t', r = T.open_ ~threshold dir in
      t := t';
      acked := List.length !strings;
      if (r.T.r_generation, r.T.r_runs, r.T.r_replayed) <> before
         || r.T.r_wal_reset || r.T.r_rolled_forward || r.T.r_dropped_bytes <> 0
      then Alcotest.failf "%s: the reopen did not find the closed store" ctx
    in
    List.iteri
      (fun i step ->
        let ctx what = Printf.sprintf "step %d (%s): %s" i (pp step) what in
        match step with
        | Ingest s ->
            T.ingest !t s;
            strings := s :: !strings
        | Flush ->
            T.flush !t;
            acked := List.length !strings
        | Compact ->
            T.compact ~pool:(Lazy.force pools).(!compactions mod 3) !t;
            incr compactions;
            acked := List.length !strings;
            check (ctx "compacted")
        | Publish -> T.publish !t
        | Reopen -> reopen ~ctx:(ctx "reopen") threshold
        | Crash (budget, burst) ->
            reopen ~ctx:(ctx "reopen") max_int;
            Fault.arm_crash_after_bytes budget;
            (try
               List.iter
                 (fun s ->
                   T.ingest !t s;
                   strings := s :: !strings)
                 burst;
               T.flush !t;
               acked := List.length !strings;
               T.compact !t
             with Fault.Injected_crash _ -> ());
            Fault.disarm ();
            T.close !t;
            ignore (T.recover dir : T.recovery);
            t := fst (T.open_ ~threshold dir);
            let n = T.length !t and ingested = List.length !strings in
            if n < !acked || n > ingested then
              Alcotest.failf "%s: recovered %d strings, %d acknowledged, %d ingested"
                (ctx "recover") n !acked ingested;
            strings := List.filteri (fun j _ -> j >= ingested - n) !strings;
            acked := n;
            check (ctx "recovered"))
      steps;
    check "final";
    reopen ~ctx:"final reopen" threshold;
    check "reopened";
    T.compact !t;
    if T.delta_length !t <> 0 then Alcotest.fail "compact left a delta";
    check "fully compacted";
    T.close !t;
    rm_rf dir
end
