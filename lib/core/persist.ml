(* Index files, format v2, read-only: the checksummed container of
   {!Wt_durable.Container} around the Marshal encoding of each variant.
   Every section (header, payload, footer) carries a CRC32C, so any bit
   flip or truncation raises [Format_error] before a byte reaches
   [Marshal].  Nothing writes this format any more. *)

module Container = Wt_durable.Container

exception Format_error = Container.Format_error

let load : type a. string -> string -> a =
 fun tag path ->
  let payload = Container.read ~expect_tag:tag path in
  (* The payload is checksum-verified, so Marshal failures here mean a
     marshalling-incompatible compiler, not disk corruption — but they
     still must fail loudly, not crash. *)
  match (Marshal.from_string payload 0 : a) with
  | v -> v
  | exception (Failure _ | Invalid_argument _ | End_of_file) ->
      raise (Format_error "index payload does not unmarshal (incompatible build?)")

let load_static path : Wavelet_trie.t = load "static" path
let load_append path : Append_wt.t = load "append" path
let load_dynamic path : Dynamic_wt.t = load "dynamic" path

let is_index_file = Container.is_container
