(** Write-ahead log framing: a checksummed header (owner tag + the
    generation the log applies to) followed by CRC-framed
    append/insert/delete records.  The tiered store writes append
    records only; the other two are replayed when it migrates a
    snapshot+WAL directory of earlier versions.

    The scanner never raises on corruption — it recovers every
    complete, checksum-valid record before the first bad frame and
    reports the torn tail, so the store can truncate and continue.
    Strings are the byte strings of the front-door API (they are
    re-binarized on replay). *)

type op = Append of string | Insert of int * string | Delete of int

val create : tag:string -> generation:int -> string -> unit
(** Atomically (re)initialize a WAL file to a bare header. *)

val create_with : tag:string -> generation:int -> op list -> string -> unit
(** Atomically replace a WAL with a fresh header followed by the given
    records (temp + fsync + rename): either the old log survives intact
    or the new one is complete.  Used by log rotations that must carry
    records forward — e.g. the tiered store's compaction commit, which
    moves the post-seal ingests into the next generation's log. *)

val header_size : tag:string -> int

val append_op : out_channel -> op -> int
(** Frame and append one record to the channel's buffer, return the
    bytes written.  It does not flush: the record reaches the file when
    the caller flushes or closes the channel (or its buffer fills), and
    is durable only after a flush and an fsync. *)

val record_size : op -> int
(** On-disk size of the record [append_op] would write, computed
    without framing it. *)

type scan = {
  s_tag : string;
  s_generation : int;  (** -1 when the header itself is torn *)
  s_header_ok : bool;
  s_ops : op list;  (** every record of the verified prefix, in order *)
  s_records : int;
  s_good_bytes : int;  (** offset the file should be truncated to *)
  s_dropped_bytes : int;  (** torn-tail bytes past the verified prefix *)
}

val scan : string -> scan
(** Scan a WAL; corruption is reported, never raised.  A missing file
    scans as an empty, torn-header log. *)

val truncate_to : string -> int -> unit
(** Physically drop a torn tail ([Unix.ftruncate] + fsync). *)

val open_append : string -> out_channel
