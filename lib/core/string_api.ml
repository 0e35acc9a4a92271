(** Byte-string construction and mutation for the Wavelet Trie
    variants.

    The core structures work on prefix-free bitstrings; [encode] applies
    {!Wt_strings.Binarize.of_bytes} on the way in so applications can
    speak plain OCaml [string]s.  Prefix arguments are byte-string
    prefixes: ["site.com/"] matches every stored string that starts with
    those bytes ([encode_prefix]).

    Queries are not here: every point op is the batch engine's
    ([lib/exec]), the scalar ones a batch of one
    ({!Indexed_sequence.Point}), and the range suite is {!Range}.  The
    [Wtrie] entry module puts the three together per variant and seals
    the conformance to {!Indexed_sequence.STRING_API} and its mutating
    extensions.

    Observability: each mutation runs under {!Wt_obs.Probe.time}, so
    enabling probes yields per-operation latency histograms here while
    the operation counters come from the instrumented implementations
    below. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace

let encode = Binarize.of_bytes

(* A byte prefix is the encoding without its terminator bit. *)
let encode_prefix p =
  let e = Binarize.of_bytes p in
  Bitstring.prefix e (Bitstring.length e - 1)

module Static = struct
  type t = Flat_wt.t

  let length = Flat_wt.length
  let distinct_count = Flat_wt.distinct_count
  let space_bits = Flat_wt.space_bits

  (* A read on a closed handle reports [Trie_closed] instead of letting
     {!Flat_wt.Closed} escape, and a traversal that trips over a
     corrupted arena (possible under the mmap fast path, which skips the
     payload checksum) reports [Storage_error] instead of leaking the
     internal bounds-check exception. *)
  let protect t f =
    if Flat_wt.is_closed t then Error Indexed_sequence.Trie_closed
    else
      match f () with
      | r -> r
      | exception Flat_wt.Closed -> Error Indexed_sequence.Trie_closed
      | exception (Invalid_argument reason | Failure reason) ->
          Error
            (Indexed_sequence.Storage_error
               { path = Flat_wt.source t; reason = "corrupt arena: " ^ reason })
      | exception Wt_durable.Container.Format_error reason ->
          Error (Indexed_sequence.Storage_error { path = Flat_wt.source t; reason })

  (* Deduplicate and sort the raw strings, then binarize only the
     distinct ones: the encoding keeps byte order (a proper prefix sorts
     first), so [String.compare] order is the keys' bit order.  The
     arena's byte set comes from the same distinct raw strings. *)
  let of_array a =
    let keys, seq =
      Flat_wt.sorted_keys ~hash:Flat_wt.hash_string ~equal:String.equal ~compare:String.compare a
    in
    Flat_wt.of_keys ~keys:Bytes
      ~bytes:(Binarize.byte_set keys)
      (Array.map encode keys) seq

  let of_list l = of_array (Array.of_list l)

  (* Storage front door: every failure mode lands in the shared error
     variant — [Format_error] and I/O problems as [Storage_error],
     operations on a closed handle as [Trie_closed]. *)
  let wrap_storage path f =
    match f () with
    | v -> Ok v
    | exception Flat_wt.Closed -> Error Indexed_sequence.Trie_closed
    | exception Wt_durable.Container.Format_error reason ->
        Error (Indexed_sequence.Storage_error { path; reason })
    | exception Sys_error reason -> Error (Indexed_sequence.Storage_error { path; reason })

  let save_file t path = wrap_storage path (fun () -> Flat_wt.save_file t path)
  let save_file_exn = Flat_wt.save_file
  let open_file ?mode path = wrap_storage path (fun () -> Flat_wt.open_file ?mode path)
  let open_file_exn ?mode path = Flat_wt.open_file ?mode path
  let close = Flat_wt.close
  let is_closed = Flat_wt.is_closed
end

module Append = struct
  type t = Append_wt.t

  let length = Append_wt.length
  let distinct_count = Append_wt.distinct_count
  let space_bits = Append_wt.space_bits
  let create = Append_wt.create
  let append t s = Probe.time Wt_append (fun () -> Append_wt.append t (encode s))

  let append_batch t ss =
    Probe.time Wt_append (fun () -> Append_wt.bulk_append t (Array.map encode ss))

  let of_array a = Append_wt.of_array (Array.map encode a)
  let of_list l = of_array (Array.of_list l)
end

module Dynamic = struct
  type t = Dynamic_wt.t

  let length = Dynamic_wt.length
  let distinct_count = Dynamic_wt.distinct_count
  let space_bits = Dynamic_wt.space_bits
  let create = Dynamic_wt.create
  let snapshot = Dynamic_wt.snapshot
  let of_array a = Dynamic_wt.of_array (Array.map encode a)
  let of_list l = of_array (Array.of_list l)

  let insert t ~pos s =
    Trace.with_span ~args:[ ("pos", pos) ] "wt.insert" (fun () ->
        Probe.time Wt_insert (fun () -> Dynamic_wt.insert t pos (encode s)))

  let delete t ~pos =
    Trace.with_span ~args:[ ("pos", pos) ] "wt.delete" (fun () ->
        Probe.time Wt_delete (fun () -> Dynamic_wt.delete t pos))

  let append t s =
    Trace.with_span "wt.append" (fun () ->
        Probe.time Wt_append (fun () -> Dynamic_wt.append t (encode s)))

  let append_batch t ss = Array.iter (append t) ss
end
