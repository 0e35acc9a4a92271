(** The checksummed on-disk container — index format v2.

    A container is [header | payload | footer]; the header carries the
    magic, format version, variant tag and payload length, the footer
    repeats the payload length, and all three sections have CRC32C
    checksums.  Any bit flip or truncation raises {!Format_error}
    before a single payload byte is interpreted.

    Writes are atomic (same-directory temp file + fsync + rename +
    directory fsync): an interrupted save always leaves the previous
    file intact.  Every written byte flows through {!Fault}. *)

exception Format_error of string

val magic : string
(** First bytes of every container (shared with format v1). *)

val version : int
(** The Marshal-payload container format version, 2. *)

val version_v3 : int
(** The flat-arena container format version, 3: same framing, but the
    payload is a [Wt_core.Flat_wt] arena queried in place, so it can be
    opened by {!map_v3} with no deserialization. *)

val max_tag_len : int

val write : tag:string -> payload:string -> string -> unit
(** [write ~tag ~payload path] atomically replaces [path] with a
    checksummed container.  Raises [Invalid_argument] if the tag
    exceeds {!max_tag_len}. *)

val read : expect_tag:string -> string -> string
(** Verify every checksum and return the payload; {!Format_error} on
    any corruption, truncation, version or tag mismatch. *)

val read_tagged : string -> string * string
(** Like {!read} but returns [(tag, payload)] without checking the
    variant tag. *)

val write_v3 : tag:string -> payload:string -> string -> unit
(** Like {!write} but stamps format version 3 (flat-arena payload). *)

val read_v3 : expect_tag:string -> string -> string
(** Fully-verified v3 read: every checksum including the payload's, the
    payload returned as a private copy.  {!Format_error} on corruption,
    truncation, version or tag mismatch. *)

type ba = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type mapping = {
  data : ba;  (** the payload bytes, a read-only window of the mapping *)
  close : unit -> unit;
      (** release the file descriptor (idempotent).  The mapping itself
          is reclaimed by the GC once every view of [data] dies, so
          in-flight reads through existing views remain memory-safe. *)
}

(** [map_v3 ~expect_tag path] is the ~O(1) open: header and footer
    CRCs are verified (the payload CRC is not — use {!read_v3} for a
    full check), then the file is [mmap]ed read-only and the payload
    window returned without copying.  One mapping is shareable across
    any number of serving processes. *)
val map_v3 : expect_tag:string -> string -> mapping

val version_of_file : string -> int option
(** The declared format version of a file bearing this library's magic
    (no checksum verification), or [None]. *)

val is_container : string -> bool
(** Whether the file starts with this library's magic bytes. *)

val atomic_write : string -> (out_channel -> unit) -> unit
(** Low-level atomic file replacement used by {!write} and the WAL:
    temp file + fsync + rename + directory fsync.  On an injected
    crash the temp file is left behind, as after a real crash. *)

val cleanup_tmp : string -> unit
(** Remove orphaned temp files (crash leftovers) from a directory. *)
