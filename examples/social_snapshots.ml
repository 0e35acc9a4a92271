(* Evolving-graph snapshots with the fully-dynamic Wavelet Trie.

   The paper's social-network motivation: edges of a graph arrive and
   disappear over time; storing the chronological sequence of edge
   events as strings "src>dst" lets us answer, with prefix queries,
   "how did the adjacency list of a vertex change in a given time
   frame?" — producing snapshots on the fly.  The alphabet (the set of
   edges ever seen) grows and shrinks dynamically, which is exactly what
   the Wavelet Trie supports and fixed-alphabet wavelet trees do not.

   The timeline lives behind the [Wtrie.Dynamic] front door (plain byte
   strings), Section 5's range queries included; sequential access
   works on the same value through [Wt_core.Range].

   Build:  dune exec examples/social_snapshots.exe *)

module Binarize = Wt_strings.Binarize
module Range = Wt_core.Range

let edge src dst = Printf.sprintf "%s>%s" src dst

let () =
  let wt = Wtrie.Dynamic.create () in
  let log = ref [] in
  let add s d =
    Wtrie.Dynamic.append wt (edge s d);
    log := Printf.sprintf "t=%2d  +%s>%s" (Wtrie.Dynamic.length wt - 1) s d :: !log
  in

  (* A small friendship timeline. *)
  add "ada" "bob";
  add "ada" "cyd";
  add "bob" "cyd";
  add "ada" "bob"; (* re-befriended: repeated edge event *)
  add "cyd" "ada";
  add "bob" "ada";
  add "ada" "dan";
  add "dan" "ada";
  add "bob" "dan";
  add "ada" "cyd";
  List.iter print_endline (List.rev !log);

  let n = Wtrie.Dynamic.length wt in
  Printf.printf "\n%d events, %d distinct edges\n" n (Wtrie.Dynamic.distinct_count wt);

  (* Snapshot question: what were ada's outgoing edge events during
     "winter vacation" (positions [2, 8))? *)
  Printf.printf "\nada's edge events in window [2, 8):\n";
  Array.iter
    (fun (s, c) -> Printf.printf "  %s x%d\n" s c)
    (Result.get_ok (Wtrie.Dynamic.range_distinct ~prefix:"ada>" ~lo:2 ~hi:8 wt));

  (* Count per vertex over the whole timeline: one rank_prefix each. *)
  Printf.printf "\nout-degree event counts:\n";
  List.iter
    (fun v ->
      Printf.printf "  %-4s %d\n" v (Wtrie.Dynamic.count_prefix wt ~prefix:(v ^ ">")))
    [ "ada"; "bob"; "cyd"; "dan" ];

  (* GDPR moment: cyd leaves the network.  Delete every event that
     involves cyd — deleting the last occurrence of an edge removes it
     from the alphabet (the trie reshapes itself). *)
  let involves_cyd w =
    w = "cyd" || String.length w > 3
                 && (String.sub w 0 4 = "cyd>"
                    || String.length w > 4
                       && String.sub w (String.length w - 4) 4 = ">cyd")
  in
  let removed = ref 0 in
  let pos = ref 0 in
  while !pos < Wtrie.Dynamic.length wt do
    if involves_cyd (Result.get_ok (Wtrie.Dynamic.access wt ~pos:!pos)) then begin
      Wtrie.Dynamic.delete wt ~pos:!pos;
      incr removed
    end
    else incr pos
  done;
  Printf.printf "\nremoved %d events involving cyd; %d distinct edges remain:\n" !removed
    (Wtrie.Dynamic.distinct_count wt);
  Range.Dynamic.iter_range wt ~lo:0 ~hi:(Wtrie.Dynamic.length wt) (fun s ->
      Printf.printf "  %s\n" (Binarize.to_bytes s));
  Wt_core.Dynamic_wt.check_invariants wt;

  (* Back-dated correction: it turns out ada befriended eve before
     everything else — insert at position 0, a brand-new edge. *)
  Wtrie.Dynamic.insert wt ~pos:0 (edge "ada" "eve");
  Printf.printf "\nafter back-dated insert, first event: %s\n"
    (Result.get_ok (Wtrie.Dynamic.access wt ~pos:0))
