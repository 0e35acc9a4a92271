(** Read format-v2 index files.  Format v2 is read-only: no code path
    writes it any more; format v3 ({!Flat_wt.save_file}) replaced it.

    A v2 file is the checksummed container of {!Wt_durable.Container}: a
    header (magic, format version, variant tag, payload length), the
    OCaml [Marshal] encoding of a pointer trie, and a footer repeating
    the payload length — each section guarded by a CRC32C.
    Corruption, truncation, version and variant mismatches all raise
    {!Format_error}; nothing unverified ever reaches [Marshal].

    Like all [Marshal]-based formats it is not portable across
    incompatible compiler versions.  Static and append-only payloads
    are read through frozen copies of the record types they were
    written from, decoded to the strings they store, and rebuilt as
    live tries, so no live type of theirs is pinned by the format; a
    dynamic payload is still the live {!Dynamic_wt.t}.
    [Wtrie.Storage] flattens what these loaders return into an arena. *)

exception Format_error of string
(** Raised by the [load_*] functions on any corruption: bad magic,
    version or variant tag, checksum mismatch, truncation, and counts in
    a payload that disagree. *)

val load_static : string -> Wavelet_trie.t
val load_append : string -> Append_wt.t
val load_dynamic : string -> Dynamic_wt.t

val append_snapshot : string -> int * Append_wt.t
(** [append_snapshot payload] decodes the payload of a snapshot+WAL
    store's ["durable-append"] snapshot, the [Marshal] of
    [(generation, trie)], as {!load_append} does a file: the generation
    and the trie rebuilt from its strings.  Raises {!Format_error}. *)

val is_index_file : string -> bool
(** Whether the file starts with this library's magic bytes. *)
