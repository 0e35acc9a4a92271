(** Byte-string façade over any Wavelet Trie variant.

    The core structures work on prefix-free bitstrings; these functors
    apply {!Wt_strings.Binarize.of_bytes} on the way in (and its inverse
    on the way out) so applications can speak plain OCaml [string]s.
    Prefix arguments are byte-string prefixes: ["site.com/"] matches every
    stored string that starts with those bytes.

    All three variants satisfy the uniform signatures of
    {!Indexed_sequence.STRING_API} (and its mutating extensions); the
    [Wtrie] entry module re-exports them and seals the conformance.

    Observability: each façade operation runs under {!Wt_obs.Probe.time},
    so enabling probes yields per-operation latency histograms here while
    the operation counters come from the instrumented implementations
    below (query traversals, bitvector layers, mutation paths). *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace

let encode = Binarize.of_bytes

(* A byte prefix is the encoding without its terminator bit. *)
let encode_prefix p =
  let e = Binarize.of_bytes p in
  Bitstring.prefix e (Bitstring.length e - 1)

open struct
  (* Shared constructors so the scalar façades and the batch engine
     report identical errors. *)
  type error = Indexed_sequence.error =
    | Position_out_of_bounds of { pos : int; len : int }
    | Negative_count of { count : int }
    | No_occurrence of { count : int; occurrences : int }
    | Trie_closed
    | Storage_error of { path : string; reason : string }

  module Str_tbl = Hashtbl.Make (String)
end

module Make (I : Indexed_sequence.S) = struct
  type t = I.t

  let length = I.length
  let distinct_count = I.distinct_count
  let space_bits = I.space_bits

  let access_exn t pos =
    Probe.time Wt_access (fun () -> Binarize.to_bytes (I.access t pos))

  let access t ~pos =
    let len = I.length t in
    if pos < 0 || pos >= len then Error (Position_out_of_bounds { pos; len })
    else Ok (access_exn t pos)

  let rank_exn t s pos = Probe.time Wt_rank (fun () -> I.rank t (encode s) pos)

  let rank t s ~pos =
    let len = I.length t in
    if pos < 0 || pos > len then Error (Position_out_of_bounds { pos; len })
    else Ok (rank_exn t s pos)

  let count t s = rank_exn t s (I.length t)

  let select_opt t s count =
    if count < 0 then None
    else Probe.time Wt_select (fun () -> I.select t (encode s) count)

  let select t s ~count =
    if count < 0 then Error (Negative_count { count })
    else
      match Probe.time Wt_select (fun () -> I.select t (encode s) count) with
      | Some pos -> Ok pos
      | None ->
          (* error path only: one extra rank to report how many exist *)
          Error (No_occurrence { count; occurrences = rank_exn t s (I.length t) })

  let select_exn t s count =
    match Probe.time Wt_select (fun () -> I.select t (encode s) count) with
    | Some pos -> pos
    | None -> raise Not_found

  let rank_prefix_exn t p pos =
    Probe.time Wt_rank_prefix (fun () -> I.rank_prefix t (encode_prefix p) pos)

  let rank_prefix t ~prefix ~pos =
    let len = I.length t in
    if pos < 0 || pos > len then Error (Position_out_of_bounds { pos; len })
    else Ok (rank_prefix_exn t prefix pos)

  let count_prefix t ~prefix = rank_prefix_exn t prefix (I.length t)

  let select_prefix_opt t p count =
    if count < 0 then None
    else Probe.time Wt_select_prefix (fun () -> I.select_prefix t (encode_prefix p) count)

  let select_prefix t ~prefix ~count =
    if count < 0 then Error (Negative_count { count })
    else
      match
        Probe.time Wt_select_prefix (fun () ->
            I.select_prefix t (encode_prefix prefix) count)
      with
      | Some pos -> Ok pos
      | None ->
          Error (No_occurrence { count; occurrences = count_prefix t ~prefix })

  let select_prefix_exn t p count =
    match
      Probe.time Wt_select_prefix (fun () -> I.select_prefix t (encode_prefix p) count)
    with
    | Some pos -> pos
    | None -> raise Not_found
end

module Make_dynamic (I : Indexed_sequence.DYNAMIC) = struct
  include Make (I)

  let insert t ~pos s =
    Trace.with_span ~args:[ ("pos", pos) ] "wt.insert" (fun () ->
        Probe.time Wt_insert (fun () -> I.insert t pos (encode s)))

  let delete t ~pos =
    Trace.with_span ~args:[ ("pos", pos) ] "wt.delete" (fun () ->
        Probe.time Wt_delete (fun () -> I.delete t pos))

  let append t s =
    Trace.with_span "wt.append" (fun () ->
        Probe.time Wt_append (fun () -> I.append t (encode s)))

  let append_batch t ss = Array.iter (append t) ss
end

module Static = struct
  module M = Make (Flat_wt)
  include M

  (* Result-returning ops on a closed handle report [Trie_closed]
     instead of letting {!Flat_wt.Closed} escape, and a traversal that
     trips over a corrupted arena (possible under the mmap fast path,
     which skips the payload checksum) reports [Storage_error] instead
     of leaking the internal bounds-check exception.  The [_exn]
     variants keep the exceptions. *)
  let protect t f =
    if Flat_wt.is_closed t then Error Trie_closed
    else
      match f () with
      | r -> r
      | exception Flat_wt.Closed -> Error Trie_closed
      | exception (Invalid_argument reason | Failure reason) ->
          Error
            (Storage_error
               { path = Flat_wt.source t; reason = "corrupt arena: " ^ reason })
      | exception Wt_durable.Container.Format_error reason ->
          Error (Storage_error { path = Flat_wt.source t; reason })

  let access t ~pos = protect t (fun () -> M.access t ~pos)
  let rank t s ~pos = protect t (fun () -> M.rank t s ~pos)
  let select t s ~count = protect t (fun () -> M.select t s ~count)
  let rank_prefix t ~prefix ~pos = protect t (fun () -> M.rank_prefix t ~prefix ~pos)

  let select_prefix t ~prefix ~count =
    protect t (fun () -> M.select_prefix t ~prefix ~count)

  (* Deduplicate and sort the raw strings, then binarize only the
     distinct ones: the encoding keeps byte order (a proper prefix sorts
     first), so [String.compare] order is the keys' bit order. *)
  let of_array a =
    let keys, seq = Flat_wt.sorted_keys (module Str_tbl) ~compare:String.compare a in
    Flat_wt.of_keys (Array.map encode keys) seq

  let of_list l = of_array (Array.of_list l)

  (* Storage front door: every failure mode lands in the shared error
     variant — [Format_error] and I/O problems as [Storage_error],
     operations on a closed handle as [Trie_closed]. *)
  let wrap_storage path f =
    match f () with
    | v -> Ok v
    | exception Flat_wt.Closed -> Error Trie_closed
    | exception Wt_durable.Container.Format_error reason ->
        Error (Storage_error { path; reason })
    | exception Sys_error reason -> Error (Storage_error { path; reason })

  let save_file t path = wrap_storage path (fun () -> Flat_wt.save_file t path)
  let save_file_exn = Flat_wt.save_file
  let open_file ?mode path = wrap_storage path (fun () -> Flat_wt.open_file ?mode path)
  let open_file_exn ?mode path = Flat_wt.open_file ?mode path
  let close = Flat_wt.close
  let is_closed = Flat_wt.is_closed
end

module Append = struct
  include Make (Append_wt)

  let create = Append_wt.create
  let append t s = Probe.time Wt_append (fun () -> Append_wt.append t (encode s))

  let append_batch t ss =
    Probe.time Wt_append (fun () -> Append_wt.bulk_append t (Array.map encode ss))

  let of_array a = Append_wt.of_array (Array.map encode a)
  let of_list l = of_array (Array.of_list l)
end

module Dynamic = struct
  include Make_dynamic (Dynamic_wt)

  let create = Dynamic_wt.create
  let snapshot = Dynamic_wt.snapshot
  let of_array a = Dynamic_wt.of_array (Array.map encode a)
  let of_list l = of_array (Array.of_list l)
end
