(** Batch query execution engine.

    A query batch is executed level-by-level over the trie instead of
    one root-to-leaf walk per operation.  The downward operations
    (access / rank / rank_prefix) are sorted by position once at the
    root and carried through the trie as a frontier of
    [(node, item range)] groups; every visited node answers all of its
    items with a single rank cursor ({!Wt_core.Node_view.CURSORED})
    before its children are expanded.

    Why one cursor per node suffices: for a fixed bit [b],
    [rank b] is monotone in the position, so if a node receives its
    items in non-decreasing position order, the positions it forwards to
    each child are again non-decreasing — sortedness is preserved all
    the way down, and every bitvector query after the first lands in (or
    just after) the cursor's cached block.

    Work that depends only on the query *string* — not the position —
    is shared across the batch instead of repeated per item:

    - rank / rank_prefix items resolve their Patricia descent (label
      comparisons, branching bits) once per distinct string, via the
      same memoized trails the select family uses.  In the hot loop a
      rank item is just a position plus an index into its precomputed
      branch-bit array: no label [lcp], no suffix bookkeeping.
    - access items share the path prefix per *node* (the frontier group
      carries the reversed label pieces); items landing on the same leaf
      share one materialized bitstring.

    The frontier itself is struct-of-arrays — parallel [id]/[pos]/
    [trail] arrays, double-buffered between levels — so a level is a
    few sequential passes rather than pointer chasing through per-item
    records.  The upward operations (select / select_prefix) share one
    Patricia descent per distinct query string; each occurrence index
    pays only the [bv_select] fold.

    The per-operation results are exactly those of the scalar {!Query}
    algorithms, errors included. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace
module Iseq = Wt_core.Indexed_sequence

(* The bitstring-level engine, shared by the three variants. *)
module Make (N : Wt_core.Node_view.CURSORED) = struct
  module Q = Wt_core.Query.Make (N)

  type bitop =
    | Access of int
    | Rank of Bitstring.t * int
    | Rank_prefix of Bitstring.t * int
    | Select of Bitstring.t * int
    | Select_prefix of Bitstring.t * int

  type bitres =
    | Bits of Bitstring.t (* access *)
    | Count of int (* rank / rank_prefix *)
    | Found of int (* select: position *)
    | Missing of int (* select: how many occurrences exist *)

  (* Single-bit label pieces, shared by every access path. *)
  let bit0 = Bitstring.of_bool_list [ false ]
  let bit1 = Bitstring.of_bool_list [ true ]

  (* A downward item is four parallel-array slots:
     [id]    result index;
     [pos]   position within the current node's subsequence;
     [trail] branch bits of the item's fixed root-to-target path
             (rank / rank_prefix; shared per distinct string);
     [tix]   next trail index, or -1 for access items (which read
             their branch bit from the bitvector instead). *)
  let no_trail : bool array = [||]

  let run trie (ops : bitop array) : bitres array =
    let n = N.length trie in
    let nops = Array.length ops in
    let results = Array.make nops (Count 0) in
    if nops > 0 then
      Trace.with_span ~args:[ ("ops", nops) ] "exec.batch" (fun () ->
    begin
      Probe.hit Exec_batch;
      Probe.record Exec_batch_ops nops;
      (* Memoized descents, one per distinct string: select groups keyed
         by (is_prefix, string), and branch-bit trails for the rank
         family. *)
      let selects = Hashtbl.create 16 in
      let rank_trails = Hashtbl.create 16 in
      let prefix_trails = Hashtbl.create 16 in
      let trail_bits tbl is_prefix s =
        match Hashtbl.find_opt tbl s with
        | Some t -> t
        | None ->
            let tr =
              if is_prefix then Option.map snd (Q.prefix_trail trie s)
              else Option.map snd (Q.trail_of trie s)
            in
            (* trails are deepest-first; the engine consumes them
               root-first *)
            let t = Option.map (fun l -> Array.of_list (List.rev_map snd l)) tr in
            Hashtbl.add tbl s t;
            t
      in
      let down = ref [] in
      let m = ref 0 in
      let push id pos trail tix =
        incr m;
        down := (id, pos, trail, tix) :: !down
      in
      Array.iteri
        (fun i op ->
          match op with
          | Access pos ->
              if pos < 0 || pos >= n then invalid_arg "Exec.run: access out of bounds";
              Probe.hit Wt_access;
              push i pos no_trail (-1)
          | Rank (s, pos) ->
              if pos < 0 || pos > n then invalid_arg "Exec.run: rank out of bounds";
              Probe.hit Wt_rank;
              (match trail_bits rank_trails false s with
              | None -> results.(i) <- Count 0 (* absent string *)
              | Some bits -> push i pos bits 0)
          | Rank_prefix (p, pos) ->
              if pos < 0 || pos > n then
                invalid_arg "Exec.run: rank_prefix out of bounds";
              Probe.hit Wt_rank_prefix;
              (match trail_bits prefix_trails true p with
              | None -> results.(i) <- Count 0 (* prefix matches nothing *)
              | Some bits -> push i pos bits 0)
          | Select (s, k) ->
              if k < 0 then invalid_arg "Exec.run: negative select index";
              Probe.hit Wt_select;
              let key = (false, s) in
              let group =
                match Hashtbl.find_opt selects key with
                | Some g -> g
                | None ->
                    let g = ref [] in
                    Hashtbl.add selects key g;
                    g
              in
              group := (i, k) :: !group
          | Select_prefix (p, k) ->
              if k < 0 then invalid_arg "Exec.run: negative select_prefix index";
              Probe.hit Wt_select_prefix;
              let key = (true, p) in
              let group =
                match Hashtbl.find_opt selects key with
                | Some g -> g
                | None ->
                    let g = ref [] in
                    Hashtbl.add selects key g;
                    g
              in
              group := (i, k) :: !group)
        ops;
      (* Upward family: one memoized trail per distinct string, then a
         select fold per occurrence index. *)
      Hashtbl.iter
        (fun (is_prefix, s) group ->
          let trail =
            if is_prefix then
              match Q.prefix_trail trie s with
              | None -> None
              | Some (np, tr) -> Some (N.count np, tr)
            else Q.trail_of trie s
          in
          match trail with
          | None -> List.iter (fun (i, _) -> results.(i) <- Missing 0) !group
          | Some (cnt, tr) ->
              List.iter
                (fun (i, k) ->
                  if k >= cnt then results.(i) <- Missing cnt
                  else
                    results.(i) <-
                      Found
                        (List.fold_left (fun j (node, b) -> N.bv_select node b j) k tr))
                !group)
        selects;
      (* Downward family: level-by-level frontier over parallel arrays. *)
      (match N.root trie with
      | Some root when !m > 0 ->
          let m = !m in
          (* materialize, then sort by root position (one sort total) *)
          let uid = Array.make m 0
          and upos = Array.make m 0
          and utix = Array.make m 0
          and utrl = Array.make m no_trail in
          let j = ref m in
          List.iter
            (fun (id, pos, trl, tix) ->
              decr j;
              uid.(!j) <- id;
              upos.(!j) <- pos;
              utix.(!j) <- tix;
              utrl.(!j) <- trl)
            !down;
          let perm = Array.init m Fun.id in
          Array.sort (fun a b -> Stdlib.compare (upos.(a) : int) upos.(b)) perm;
          let pick src = Array.map (fun k -> src.(k)) perm in
          (* double-buffered item arrays + per-level scratch for the
             one-branch items (zeros are written in place, ones after) *)
          let cid = ref (pick uid)
          and cpos = ref (pick upos)
          and ctix = ref (pick utix)
          and ctrl = ref (pick utrl) in
          let nid = ref (Array.make m 0)
          and npos = ref (Array.make m 0)
          and ntix = ref (Array.make m 0)
          and ntrl = ref (Array.make m no_trail) in
          let oid = Array.make m 0
          and opos = Array.make m 0
          and otix = Array.make m 0
          and otrl = Array.make m no_trail in
          let groups = ref [ (root, [], 0, m) ] in
          let lvl = ref 0 in
          while !groups <> [] do
            let level = !groups in
            groups := [];
            let fill = ref 0 in
            Trace.with_span
              ~args:[ ("level", !lvl); ("groups", List.length level) ]
              "exec.level"
              (fun () ->
            Probe.time Exec_level (fun () ->
                List.iter
                  (fun (node, pfx, lo, hi) ->
                    let cid = !cid and cpos = !cpos and ctix = !ctix and ctrl = !ctrl in
                    let nid = !nid and npos = !npos and ntix = !ntix and ntrl = !ntrl in
                    let label = N.label node in
                    let llen = Bitstring.length label in
                    if N.is_leaf node then begin
                      Probe.record Wt_nodes_visited (hi - lo);
                      (* all access items here spell the same string *)
                      let full =
                        lazy (Bitstring.concat (List.rev (label :: pfx)))
                      in
                      for k = lo to hi - 1 do
                        if ctix.(k) < 0 then begin
                          Probe.record Wt_bits_consumed llen;
                          results.(cid.(k)) <- Bits (Lazy.force full)
                        end
                        else
                          (* a trail ending at a leaf is fully consumed:
                             the remaining count is the answer *)
                          results.(cid.(k)) <- Count cpos.(k)
                      done
                    end
                    else begin
                      let cursor = N.bv_cursor node in
                      let visited = ref 0 and consumed = ref 0 in
                      let zlo = !fill in
                      let ones = ref 0 in
                      for k = lo to hi - 1 do
                        let tix = ctix.(k) and pos = cpos.(k) in
                        if tix < 0 then begin
                          incr visited;
                          consumed := !consumed + llen + 1;
                          let b, pos' = N.cursor_access_rank cursor pos in
                          if b then begin
                            let o = !ones in
                            oid.(o) <- cid.(k);
                            opos.(o) <- pos';
                            otix.(o) <- -1;
                            otrl.(o) <- no_trail;
                            ones := o + 1
                          end
                          else begin
                            let f = !fill in
                            nid.(f) <- cid.(k);
                            npos.(f) <- pos';
                            ntix.(f) <- -1;
                            ntrl.(f) <- no_trail;
                            fill := f + 1
                          end
                        end
                        else begin
                          let trl = ctrl.(k) in
                          if tix = Array.length trl then
                            (* descent complete at an internal node
                               (rank_prefix whose p ends here) *)
                            results.(cid.(k)) <- Count pos
                          else if pos = 0 then results.(cid.(k)) <- Count 0
                          else begin
                            incr visited;
                            consumed := !consumed + llen + 1;
                            let b = trl.(tix) in
                            let pos' = N.cursor_rank cursor b pos in
                            if b then begin
                              let o = !ones in
                              oid.(o) <- cid.(k);
                              opos.(o) <- pos';
                              otix.(o) <- tix + 1;
                              otrl.(o) <- trl;
                              ones := o + 1
                            end
                            else begin
                              let f = !fill in
                              nid.(f) <- cid.(k);
                              npos.(f) <- pos';
                              ntix.(f) <- tix + 1;
                              ntrl.(f) <- trl;
                              fill := f + 1
                            end
                          end
                        end
                      done;
                      Probe.record Wt_nodes_visited !visited;
                      Probe.record Wt_bits_consumed !consumed;
                      let zhi = !fill in
                      let ones = !ones in
                      if ones > 0 then begin
                        Array.blit oid 0 nid zhi ones;
                        Array.blit opos 0 npos zhi ones;
                        Array.blit otix 0 ntix zhi ones;
                        Array.blit otrl 0 ntrl zhi ones;
                        fill := zhi + ones
                      end;
                      if zhi > zlo then
                        groups :=
                          (N.child node false, bit0 :: label :: pfx, zlo, zhi)
                          :: !groups;
                      if ones > 0 then
                        groups :=
                          (N.child node true, bit1 :: label :: pfx, zhi, zhi + ones)
                          :: !groups
                    end)
                  level));
            incr lvl;
            (* swap the frontier buffers *)
            let t = !cid in
            cid := !nid;
            nid := t;
            let t = !cpos in
            cpos := !npos;
            npos := t;
            let t = !ctix in
            ctix := !ntix;
            ntix := t;
            let t = !ctrl in
            ctrl := !ntrl;
            ntrl := t
          done
      | _ -> ())
    end);
    results
end

(* ------------------------------------------------------------------ *)
(* Byte-string wrapper: validates operations against the shared error
   type, binarizes each distinct string once, runs the engine, and maps
   results back.  Invalid operations become per-op [Error]s and are
   excluded from the engine batch — [query_batch] never raises. *)

module Make_string (N : Wt_core.Node_view.CURSORED) = struct
  module E = Make (N)

  let query_batch (trie : N.trie) (ops : Iseq.op array) :
      (Iseq.value, Iseq.error) result array =
    let n = N.length trie in
    let nops = Array.length ops in
    let out = Array.make nops (Ok (Iseq.Int 0)) in
    (* binarization is shared across duplicate strings in the batch *)
    let strs = Hashtbl.create 16 and prefs = Hashtbl.create 16 in
    let memo tbl f s =
      match Hashtbl.find_opt tbl s with
      | Some b -> b
      | None ->
          let b = f s in
          Hashtbl.add tbl s b;
          b
    in
    let encode = memo strs Wt_core.String_api.encode in
    let encode_prefix = memo prefs Wt_core.String_api.encode_prefix in
    let idxs = ref [] and bitops = ref [] in
    let push i bop =
      idxs := i :: !idxs;
      bitops := bop :: !bitops
    in
    Array.iteri
      (fun i op ->
        match op with
        | Iseq.Access { pos } ->
            if pos < 0 || pos >= n then
              out.(i) <- Error (Iseq.Position_out_of_bounds { pos; len = n })
            else push i (E.Access pos)
        | Iseq.Rank { s; pos } ->
            if pos < 0 || pos > n then
              out.(i) <- Error (Iseq.Position_out_of_bounds { pos; len = n })
            else push i (E.Rank (encode s, pos))
        | Iseq.Select { s; count } ->
            if count < 0 then out.(i) <- Error (Iseq.Negative_count { count })
            else push i (E.Select (encode s, count))
        | Iseq.Rank_prefix { prefix; pos } ->
            if pos < 0 || pos > n then
              out.(i) <- Error (Iseq.Position_out_of_bounds { pos; len = n })
            else push i (E.Rank_prefix (encode_prefix prefix, pos))
        | Iseq.Select_prefix { prefix; count } ->
            if count < 0 then out.(i) <- Error (Iseq.Negative_count { count })
            else push i (E.Select_prefix (encode_prefix prefix, count)))
      ops;
    let idxs = Array.of_list (List.rev !idxs) in
    let bitops = Array.of_list (List.rev !bitops) in
    let res = E.run trie bitops in
    (* access items landing on the same leaf share one bitstring; decode
       each distinct one once *)
    let decoded = Hashtbl.create 16 in
    let decode bs =
      match Hashtbl.find_opt decoded bs with
      | Some s -> s
      | None ->
          let s = Binarize.to_bytes bs in
          Hashtbl.add decoded bs s;
          s
    in
    Array.iteri
      (fun j r ->
        let i = idxs.(j) in
        out.(i) <-
          (match (r, bitops.(j)) with
          | E.Bits bs, _ -> Ok (Iseq.Str (decode bs))
          | E.Count c, _ -> Ok (Iseq.Int c)
          | E.Found p, _ -> Ok (Iseq.Int p)
          | E.Missing occ, (E.Select (_, k) | E.Select_prefix (_, k)) ->
              Error (Iseq.No_occurrence { count = k; occurrences = occ })
          | E.Missing _, _ -> assert false))
      res;
    out
end

module Static = Make_string (Wt_core.Flat_wt.Node)
module Append = Make_string (Wt_core.Append_wt.Node)
module Dynamic = Make_string (Wt_core.Dynamic_wt.Node)
