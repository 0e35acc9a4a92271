(* Helpers shared by the workloads: the clock, order statistics, and
   facts about the running process. *)

(* CLOCK_MONOTONIC is one clock for every process on the machine, so
   batch stamps taken inside the server process line up with the
   request stamps the load generator takes. *)
let now_ns = Wtrie.Probe.now_ns

let us ns = float_of_int ns /. 1e3
let secs ns = float_of_int ns /. 1e9

(* Growable arrays for samples whose count is known only at the end. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 256 dummy; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) v.dummy in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
  let to_array v = Array.sub v.a 0 v.n
  let iter f v = for i = 0 to v.n - 1 do f v.a.(i) done
end

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Quantile [q] of a sorted array, interpolating between neighbours. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))
  end

let median xs = quantile (sorted xs) 0.5
let mean xs = if xs = [||] then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* The three quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so a spread printed
   here matches one computed from the same values with that module. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

let geomean xs =
  if xs = [||] || Array.exists (fun x -> x <= 0.) xs then 0.
  else exp (Array.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (Array.length xs))

(* Quantile of a Report histogram ([(b, count)]: bucket [b] holds
   samples in [2^b, 2^(b+1)) ns), interpolating linearly inside the
   bucket so a value does not read as the same power of two run after
   run.  Result in ns. *)
let bucket_quantile buckets q =
  let count = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  if count = 0 then 0.
  else begin
    let target = q *. float_of_int (count - 1) in
    let rec walk seen = function
      | [] -> 0.
      | (b, c) :: tl ->
          if target < float_of_int (seen + c) then begin
            let frac = Float.min 1. ((target -. float_of_int seen +. 0.5) /. float_of_int c) in
            let lo = if b = 0 then 0. else ldexp 1. b in
            lo +. (frac *. (ldexp 1. (b + 1) -. lo))
          end
          else walk (seen + c) tl
    in
    walk 0 buckets
  end

(* Bucket-wise difference [after - before]: the histogram of what was
   recorded between two captures of the same cumulative histogram. *)
let bucket_diff after before =
  List.filter_map
    (fun (b, c) ->
      let c0 = Option.value ~default:0 (List.assoc_opt b before) in
      if c - c0 > 0 then Some (b, c - c0) else None)
    after

(* Peak resident set (VmHWM) of the calling process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [f ()] computed in a forked copy of this process and marshalled back:
   the memory it takes never counts in this process's peak resident set.
   Call it while this process runs one domain only. *)
let in_fork (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let code =
        match Marshal.to_channel oc (f ()) [] with
        | () ->
            close_out oc;
            0
        | exception e ->
            prerr_endline ("reference process: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic : 'a) with End_of_file | Failure _ -> None in
      close_in ic;
      match (Unix.waitpid [] pid, v) with
      | (_, Unix.WEXITED 0), Some v -> v
      | _ -> failwith "the reference process failed")

(* Time [f ()] in ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
