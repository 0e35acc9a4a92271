(* The traced run's span recorder.

   Spans are recorded by the benchmark around each call it makes into
   a layer's public function, never inside the program.  Each span has
   a name, the layer it times, start and end, the span that caused it,
   and a key shared by the spans of one request or batch.  Spans stay
   in memory until the run ends; [chrome_events] renders them as Chrome
   trace_event objects and [self_ns] gives each layer's self time. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  layer : string;
  key : int;  (** request or batch id, -1 when none *)
  t0 : int;
  t1 : int;
}

let dummy = { id = -1; parent = -1; name = ""; layer = ""; key = -1; t0 = 0; t1 = 0 }

(* Spans another process recorded (the server's engine calls), with the
   name its trace row gets. *)
let others : (string * span array) list ref = ref []

let add_process ~pname spans = others := (pname, spans) :: !others
let on = ref false
let recorded = Util.Vec.create dummy
let next_id = ref 0
let stack = ref []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* [add] records an interval the caller measured (a request in flight)
   as a child of span [parent]. *)
let add ~parent ~key ~layer name ~t0 ~t1 =
  if !on then Util.Vec.push recorded { id = fresh (); parent; name; layer; key; t0; t1 }

(* [f] receives the span's id, to name it as the parent of intervals it
   [add]s once they are measured. *)
let with_span ?(key = -1) ~layer name f =
  if not !on then f (-1)
  else begin
    let id = fresh () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Util.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        Util.Vec.push recorded { id; parent; name; layer; key; t0; t1 = Util.now_ns () })
      (fun () -> f id)
  end

(* A span's self time is its duration minus the part of its interval
   that its children cover; children may overlap (requests in flight
   together), so the covered part is the length of their union. *)
let self_ns spans =
  let kids = Hashtbl.create 1024 in
  Array.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1)) spans;
  let by_layer = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      let clipped =
        List.filter_map
          (fun (a, b) ->
            let a = max a s.t0 and b = min b s.t1 in
            if b > a then Some (a, b) else None)
          (Hashtbl.find_all kids s.id)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) (List.sort compare clipped)
      in
      let self = s.t1 - s.t0 - covered in
      Hashtbl.replace by_layer s.layer
        (self + Option.value ~default:0 (Hashtbl.find_opt by_layer s.layer)))
    spans;
  by_layer

(* Chrome trace_event objects (complete events, microsecond times), one
   per line, for process [pid] labelled [pname]. *)
let chrome_events ~pid ~pname spans =
  let open Wtrie.Json in
  let event fields = to_string (Obj (fields @ [ ("pid", Int pid); ("tid", Int 1) ])) in
  event [ ("name", Str "process_name"); ("ph", Str "M"); ("args", Obj [ ("name", Str pname) ]) ]
  :: Array.to_list
       (Array.map
          (fun s ->
            event
              [
                ("name", Str s.name);
                ("cat", Str s.layer);
                ("ph", Str "X");
                ("ts", Float (float_of_int s.t0 /. 1e3));
                ("dur", Float (float_of_int (s.t1 - s.t0) /. 1e3));
                ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("key", Int s.key) ]);
              ])
          spans)
