(* What a workload process writes on its standard output for the
   command that started it: one line per metric, note or result.

     M <class> <name> <value> <unit> <samples>
     I <free text>
     R <attempted> <failed> <wrong>

   [class] is [e2e] (an end-to-end metric), [layer] (a per-layer
   metric, from the traced pass) or [info] (printed, never gated). *)

type cls = E2e | Layer | Info

let metric ?(n = 0) cls name unit value =
  let cls = match cls with E2e -> "e2e" | Layer -> "layer" | Info -> "info" in
  let value = if Float.is_finite value then value else 0. in
  Printf.printf "M %s %s %.12g %s %d\n%!" cls name value unit n

let info fmt = Printf.ksprintf (fun s -> Printf.printf "I %s\n%!" s) fmt
let result ~attempted ~failed ~wrong = Printf.printf "R %d %d %d\n%!" attempted failed wrong

(* The latencies and rates one measured pass produced, printed but not
   gated: (name, unit, value, samples).  Across runs their medians move
   with the shared host's slower phases by more than 15%, and a
   scheduler stall of a few milliseconds moves a p99 by more than that
   (README.md). *)
type pass = (string * string * float * int) list

(* The median of latency samples (µs) as [<prefix>_p50_us] and their p99
   as [<prefix>_p99_us]. *)
let latencies prefix xs : pass =
  let s = Util.sorted xs in
  let n = Array.length s in
  [ (prefix ^ "_p50_us", "us", Util.quantile s 0.5, n); (prefix ^ "_p99_us", "us", Util.quantile s 0.99, n) ]

let emit_pass (p : pass) = List.iter (fun (name, unit, v, n) -> metric ~n Info name unit v) p

(* Tracing overhead: the traced pass minus the untraced one, metric by
   metric. *)
let overhead ~(untraced : pass) ~(traced : pass) =
  List.iter2
    (fun (name, unit, u, _) (_, _, t, _) -> metric Info ("trace_overhead." ^ name) unit (t -. u))
    untraced traced
