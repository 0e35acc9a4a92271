(* Write-ahead log framing for the tiered store.

   A WAL file is a checksummed header followed by a stream of
   CRC-framed records:

     header := magic (16 bytes "wavelet-trie-wal")
             | u32 version (= 1)
             | u32 tag length | tag bytes       (owner, e.g. "tiered")
             | u64 generation                   (manifest it applies to)
             | u32 CRC32C of everything above
     record := u32 body length | u32 CRC32C of body | body
     body   := u8 op
             | op = 0 (Append): string bytes
             | op = 1 (Insert): u64 position | string bytes
             | op = 2 (Delete): u64 position

   The tiered store writes append records only; insert and delete
   records are read when it migrates a snapshot+WAL directory of
   earlier versions (see [Wt_tiered.Tiered.recover]).

   The scanner ({!scan}) never raises on corruption: it recovers every
   complete, checksum-valid record before the first bad frame and
   reports how many trailing bytes a torn write left behind, so the
   store can truncate the tail and carry on.  A record whose length
   field is implausible (flipped into a huge value) is treated as the
   start of the torn tail, never allocated. *)

type op = Append of string | Insert of int * string | Delete of int

let magic = "wavelet-trie-wal"
let version = 1
let max_record_len = 1 lsl 26 (* 64 MiB: no sane single op is bigger *)

let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)
let add_u64 buf v = Buffer.add_int64_be buf (Int64.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

(* Negative/overflowing u64 -> None; the caller treats it as corrupt. *)
let get_u64_opt s off =
  let v = String.get_int64_be s off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then None
  else Some (Int64.to_int v)

(* ------------------------------------------------------------------ *)
(* Header *)

let header_bytes ~tag ~generation =
  if String.length tag > Container.max_tag_len then invalid_arg "Wal: tag too long";
  let buf = Buffer.create 64 in
  Buffer.add_string buf magic;
  add_u32 buf version;
  add_u32 buf (String.length tag);
  Buffer.add_string buf tag;
  add_u64 buf generation;
  add_u32 buf (Crc32c.string (Buffer.contents buf));
  Buffer.contents buf

let header_size ~tag = String.length magic + 4 + 4 + String.length tag + 8 + 4

let create ~tag ~generation path =
  Container.atomic_write path (fun oc ->
      Fault.output_string oc (header_bytes ~tag ~generation))

(* ------------------------------------------------------------------ *)
(* Records *)

let encode_op op =
  let buf = Buffer.create 64 in
  (match op with
  | Append s ->
      Buffer.add_char buf '\000';
      Buffer.add_string buf s
  | Insert (pos, s) ->
      Buffer.add_char buf '\001';
      add_u64 buf pos;
      Buffer.add_string buf s
  | Delete pos ->
      Buffer.add_char buf '\002';
      add_u64 buf pos);
  Buffer.contents buf

let decode_op body =
  let n = String.length body in
  if n = 0 then None
  else
    match body.[0] with
    | '\000' -> Some (Append (String.sub body 1 (n - 1)))
    | '\001' when n >= 9 ->
        Option.map (fun pos -> Insert (pos, String.sub body 9 (n - 9))) (get_u64_opt body 1)
    | '\002' when n = 9 -> Option.map (fun pos -> Delete pos) (get_u64_opt body 1)
    | _ -> None

let frame_bytes op =
  let body = encode_op op in
  let buf = Buffer.create (String.length body + 8) in
  add_u32 buf (String.length body);
  add_u32 buf (Crc32c.string body);
  Buffer.add_string buf body;
  Buffer.contents buf

(* The frame is 8 bytes, the body an op byte, a u64 position for
   Insert and Delete, and the string. *)
let record_size = function
  | Append s -> 8 + 1 + String.length s
  | Insert (_, s) -> 8 + 9 + String.length s
  | Delete _ -> 8 + 9

(* Atomic header+records replacement: the whole new log (fresh header
   plus every given record) lands via temp + fsync + rename, so a crash
   mid-write leaves the previous log byte-for-byte intact.  The tiered
   store's compaction commit rotates its WAL with this — the records
   are the ingests that arrived after the compacted prefix was sealed,
   and they must survive the rotation atomically. *)
let create_with ~tag ~generation ops path =
  Container.atomic_write path (fun oc ->
      Fault.output_string oc (header_bytes ~tag ~generation);
      List.iter (fun op -> Fault.output_string oc (frame_bytes op)) ops)

(* Buffered, not flushed: the owner flushes the channel when it
   acknowledges (the tiered store's [flush] is the ack) and when it
   closes or rotates the log.  A torn write flushes the records before
   it together with its own partial bytes ({!Fault.output}). *)
let append_op oc op =
  let frame = frame_bytes op in
  Fault.output_string oc frame;
  String.length frame

(* ------------------------------------------------------------------ *)
(* Scanning *)

type scan = {
  s_tag : string;
  s_generation : int;
  s_header_ok : bool;
  s_ops : op list;
  s_records : int;
  s_good_bytes : int;
  s_dropped_bytes : int;
}

let scan path =
  let s =
    match open_in_bin path with
    | exception Sys_error _ -> ""
    | ic ->
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  let len = String.length s in
  let bad_header () =
    {
      s_tag = "";
      s_generation = -1;
      s_header_ok = false;
      s_ops = [];
      s_records = 0;
      s_good_bytes = 0;
      s_dropped_bytes = len;
    }
  in
  let mlen = String.length magic in
  if len < mlen + 8 || String.sub s 0 mlen <> magic then bad_header ()
  else
    let v = get_u32 s mlen in
    let tlen = get_u32 s (mlen + 4) in
    if
      v <> version
      || (not (Bounded.ok ~declared:tlen ~cap:Container.max_tag_len ~remaining:(len - mlen - 8)))
      || mlen + 8 + tlen + 12 > len
    then bad_header ()
    else
      let tag = String.sub s (mlen + 8) tlen in
      let hdr_end = mlen + 8 + tlen + 8 in
      match get_u64_opt s (mlen + 8 + tlen) with
      | None -> bad_header ()
      | Some generation ->
          if Crc32c.string ~len:hdr_end s <> get_u32 s hdr_end then bad_header ()
          else begin
            let start = hdr_end + 4 in
            let ops = ref [] in
            let records = ref 0 in
            let pos = ref start in
            let torn = ref false in
            while (not !torn) && !pos < len do
              if !pos + 8 > len then torn := true
              else begin
                let blen = get_u32 s !pos in
                let crc = get_u32 s (!pos + 4) in
                (* a flipped length field is the start of the torn tail,
                   never an allocation ({!Bounded}) *)
                if blen = 0 || not (Bounded.ok ~declared:blen ~cap:max_record_len ~remaining:(len - !pos - 8))
                then torn := true
                else if Crc32c.string ~pos:(!pos + 8) ~len:blen s <> crc then
                  torn := true
                else
                  match decode_op (String.sub s (!pos + 8) blen) with
                  | None -> torn := true
                  | Some op ->
                      ops := op :: !ops;
                      incr records;
                      pos := !pos + 8 + blen
              end
            done;
            {
              s_tag = tag;
              s_generation = generation;
              s_header_ok = true;
              s_ops = List.rev !ops;
              s_records = !records;
              s_good_bytes = !pos;
              s_dropped_bytes = len - !pos;
            }
          end

(* Truncate a WAL to its verified prefix (drop the torn tail). *)
let truncate_to path good_bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd good_bytes;
      Fault.fsync fd)

let open_append path =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
