(* The checksummed on-disk container — index format v2.

   Layout (all integers big-endian):

     header  := magic (18 bytes "wavelet-trie-index")
              | u32 version (= 2)
              | u32 tag length          (bounded: 0..255)
              | tag bytes               (variant name, e.g. "append")
              | u64 payload length
              | u32 CRC32C of everything above
     payload := opaque bytes (Marshal encoding of the structure)
     footer  := u64 payload length (repeated)
              | u32 CRC32C of payload
              | u32 CRC32C of the footer's first 12 bytes

   Every section is independently checksummed, so any bit flip or
   truncation surfaces as {!Format_error} before a single payload byte
   reaches [Marshal] — which would otherwise happily segfault or decode
   garbage.  The repeated payload length in the footer catches the
   "header intact, file cut mid-payload" case even when the cut lands
   on the old EOF of a recycled file.

   Writes are atomic: temp file in the same directory, fsync, rename
   over the target, fsync the directory.  An interrupted save therefore
   always leaves the previous version of the file intact (orphaned temp
   files are invisible to readers; the tiered store cleans its
   directory of them on open, via {!cleanup_tmp}).  All
   bytes go through {!Fault}, so the fault harness can tear any write. *)

exception Format_error of string

let magic = "wavelet-trie-index"
let version = 2
let version_v3 = 3
let max_tag_len = 255
let tmp_prefix = ".wt-tmp-"

(* Sanity cap on a declared payload length ({!Bounded}): far above any
   real index, far below anything that could be asked of the allocator
   by a corrupt header. *)
let max_payload_len = 1 lsl 36

let fail fmt = Printf.ksprintf (fun m -> raise (Format_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Binary helpers *)

let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)
let add_u64 buf v = Buffer.add_int64_be buf (Int64.of_int v)

let get_u32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

let get_u64 s off what =
  let v = String.get_int64_be s off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    fail "corrupt %s (unreasonable 64-bit length)" what;
  Int64.to_int v

(* ------------------------------------------------------------------ *)
(* Atomic writes *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Fault.fsync fd)

let cleanup_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun e ->
          if String.length e >= String.length tmp_prefix
             && String.sub e 0 (String.length tmp_prefix) = tmp_prefix
          then try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries

(* [atomic_write path writer] runs [writer oc] against a temp file and
   renames it over [path] only once its bytes are flushed and fsynced.
   On an injected crash the temp file is deliberately left behind (as a
   real crash would); on any other exception it is removed. *)
let atomic_write path writer =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir tmp_prefix "" in
  let oc = open_out_bin tmp in
  (match
     writer oc;
     flush oc;
     Fault.fsync (Unix.descr_of_out_channel oc)
   with
  | () -> close_out oc
  | exception e ->
      (try close_out oc with Sys_error _ -> ());
      (match e with
      | Fault.Injected_crash _ -> ()
      | _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
      raise e);
  Sys.rename tmp path;
  fsync_dir dir

(* ------------------------------------------------------------------ *)
(* Writing *)

let header_bytes ?(version = version) ~tag ~payload_len () =
  if String.length tag > max_tag_len then invalid_arg "Container.write: tag too long";
  let buf = Buffer.create 64 in
  Buffer.add_string buf magic;
  add_u32 buf version;
  add_u32 buf (String.length tag);
  Buffer.add_string buf tag;
  add_u64 buf payload_len;
  let crc = Crc32c.string (Buffer.contents buf) in
  add_u32 buf crc;
  Buffer.contents buf

let footer_bytes ~payload_len ~payload_crc =
  let buf = Buffer.create 16 in
  add_u64 buf payload_len;
  add_u32 buf payload_crc;
  add_u32 buf (Crc32c.string (Buffer.contents buf));
  Buffer.contents buf

let write_versioned ~version ~tag ~payload path =
  let payload_len = String.length payload in
  let header = header_bytes ~version ~tag ~payload_len () in
  let footer = footer_bytes ~payload_len ~payload_crc:(Crc32c.string payload) in
  atomic_write path (fun oc ->
      Fault.output_string oc header;
      Fault.output_string oc payload;
      Fault.output_string oc footer)

let write ~tag ~payload path = write_versioned ~version ~tag ~payload path

let write_v3 ~tag ~payload path = write_versioned ~version:version_v3 ~tag ~payload path

(* ------------------------------------------------------------------ *)
(* Reading *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> fail "cannot open index: %s" m
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* Parse and CRC-check the header at the start of [s] — possibly just a
   prefix of the file of total size [file_len].  Returns
   (version, tag, payload_off, payload_len). *)
let parse_header s ~file_len =
  let len = String.length s in
  let need off n what = if off + n > len then fail "truncated index %s" what in
  need 0 (String.length magic + 8) "header";
  if String.sub s 0 (String.length magic) <> magic then
    fail "not a wavelet-trie index file";
  let off = String.length magic in
  let v = get_u32 s off in
  let tlen = get_u32 s (off + 4) in
  if not (Bounded.ok ~declared:tlen ~cap:max_tag_len ~remaining:(file_len - off - 8)) then
    fail "corrupt header (tag length %d out of bounds)" tlen;
  need (off + 8) (tlen + 12) "header";
  let tag = String.sub s (off + 8) tlen in
  let header_len = off + 8 + tlen + 8 in
  let payload_len = get_u64 s (off + 8 + tlen) "header" in
  if Crc32c.string ~len:header_len s <> get_u32 s header_len then
    fail "index header checksum mismatch";
  (v, tag, header_len + 4, payload_len)

let check_version ~expect v =
  if v <> expect then
    fail "index format version %d, expected %d (re-index to upgrade)" v expect

let read_tagged_versioned ~expect_version path =
  let s = read_file path in
  let len = String.length s in
  let v, tag, payload_off, payload_len = parse_header s ~file_len:len in
  check_version ~expect:expect_version v;
  (* bounds before bytes: a flipped length field must fail here, not in
     the allocator *)
  if not (Bounded.ok ~declared:payload_len ~cap:max_payload_len ~remaining:(len - payload_off))
  then fail "truncated index payload";
  let footer_off = payload_off + payload_len in
  if footer_off + 16 > len then fail "truncated index footer";
  if len <> footer_off + 16 then
    fail "index has %d trailing bytes after the footer" (len - footer_off - 16);
  if Crc32c.string ~pos:footer_off ~len:12 s <> get_u32 s (footer_off + 12) then
    fail "index footer checksum mismatch";
  if get_u64 s footer_off "footer" <> payload_len then
    fail "payload length disagrees between header and footer";
  let payload_crc = get_u32 s (footer_off + 8) in
  if Crc32c.string ~pos:payload_off ~len:payload_len s <> payload_crc then
    fail "index payload checksum mismatch";
  (tag, String.sub s payload_off payload_len)

let read_tagged path = read_tagged_versioned ~expect_version:version path

let read ~expect_tag path =
  let tag, payload = read_tagged path in
  if tag <> expect_tag then
    fail "index holds a %S trie, expected %S" tag expect_tag;
  payload

(* ------------------------------------------------------------------ *)
(* Format v3: the payload is a flat arena queried in place, so the
   container offers a second read path — [map_v3] checks the header and
   footer CRCs (O(1)) and [mmap]s the payload read-only instead of
   copying and checksumming all of it.  [read_v3] is the fully-verified
   copying open (every CRC, including the payload's). *)

let read_v3 ~expect_tag path =
  let tag, payload = read_tagged_versioned ~expect_version:version_v3 path in
  if tag <> expect_tag then
    fail "index holds a %S trie, expected %S" tag expect_tag;
  payload

type ba = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type mapping = { data : ba; close : unit -> unit }

let map_v3 ~expect_tag path =
  let parse ic =
    let file_len = in_channel_length ic in
    let head =
      match really_input_string ic (min file_len 4096) with
      | s -> s
      | exception End_of_file -> fail "truncated index header"
    in
    let v, tag, payload_off, payload_len = parse_header head ~file_len in
    check_version ~expect:version_v3 v;
    if tag <> expect_tag then fail "index holds a %S trie, expected %S" tag expect_tag;
    if
      not
        (Bounded.ok ~declared:payload_len ~cap:max_payload_len
           ~remaining:(file_len - payload_off))
    then fail "truncated index payload";
    let footer_off = payload_off + payload_len in
    if file_len <> footer_off + 16 then
      fail "index has %d trailing bytes after the footer" (file_len - footer_off - 16);
    seek_in ic footer_off;
    let footer =
      match really_input_string ic 16 with
      | s -> s
      | exception End_of_file -> fail "truncated index footer"
    in
    if Crc32c.string ~len:12 footer <> get_u32 footer 12 then
      fail "index footer checksum mismatch";
    if get_u64 footer 0 "footer" <> payload_len then
      fail "payload length disagrees between header and footer";
    (payload_off, payload_len)
  in
  let payload_off, payload_len =
    match open_in_bin path with
    | exception Sys_error m -> fail "cannot open index: %s" m
    | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> parse ic)
  in
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) -> fail "cannot map index: %s" (Unix.error_message e)
  | fd -> (
      let close_fd () = try Unix.close fd with Unix.Unix_error _ -> () in
      match Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |] with
      | exception Unix.Unix_error (e, _, _) ->
          close_fd ();
          fail "cannot map index: %s" (Unix.error_message e)
      | exception Sys_error m ->
          close_fd ();
          fail "cannot map index: %s" m
      | g ->
          let ba = Bigarray.array1_of_genarray g in
          if Bigarray.Array1.dim ba < payload_off + payload_len then begin
            close_fd ();
            fail "index shrank while mapping"
          end;
          (* The sub view roots the whole mapping; the munmap happens at
             GC once every view dies.  [close] only releases the fd —
             in-flight reads through existing views stay safe. *)
          let data = Bigarray.Array1.sub ba payload_off payload_len in
          let closed = ref false in
          let close () =
            if not !closed then begin
              closed := true;
              close_fd ()
            end
          in
          { data; close })

let version_of_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match really_input_string ic (String.length magic + 4) with
          | s when String.sub s 0 (String.length magic) = magic ->
              Some (get_u32 s (String.length magic))
          | _ -> None
          | exception End_of_file -> None)

let is_container path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match really_input_string ic (String.length magic) with
          | m -> m = magic
          | exception End_of_file -> false)
