(** Save/load Wavelet Tries to disk — format v2.

    The on-disk format is the checksummed container of
    {!Wt_durable.Container}: a header (magic, format version, variant
    tag, payload length), the OCaml [Marshal] encoding of the
    structure, and a footer repeating the payload length — each section
    guarded by a CRC32C.  Corruption, truncation, version and variant
    mismatches all raise {!Format_error}; nothing unverified ever
    reaches [Marshal].  Saves are atomic (temp file + fsync + rename),
    so an interrupted save leaves the previous index intact.

    Like all [Marshal]-based formats it is not portable across
    incompatible compiler versions; the checksummed header makes such
    mismatches fail loudly instead of silently misbehaving.  Intended
    for index caches (see the [wtrie] CLI), not archival storage. *)

exception Format_error of string
(** Raised by the [load_*] functions on any corruption: bad magic,
    version or variant tag, checksum mismatch, truncation. *)

val version : int
(** The on-disk format version, 2. *)

val save_static : Wavelet_trie.t -> string -> unit
val load_static : string -> Wavelet_trie.t
val save_append : Append_wt.t -> string -> unit
val load_append : string -> Append_wt.t
val save_dynamic : Dynamic_wt.t -> string -> unit
val load_dynamic : string -> Dynamic_wt.t

val is_index_file : string -> bool
(** Whether the file starts with this library's magic bytes. *)

val tag_of_file : string -> string option
(** The variant tag ("static" / "append" / "dynamic") of a fully
    checksum-verified index file, or [None]. *)
