(** Read format-v2 index files.  Format v2 is read-only: no code path
    writes it any more; format v3 ({!Flat_wt.save_file}) replaced it.

    A v2 file is the checksummed container of {!Wt_durable.Container}: a
    header (magic, format version, variant tag, payload length), the
    OCaml [Marshal] encoding of a pointer trie, and a footer repeating
    the payload length — each section guarded by a CRC32C.
    Corruption, truncation, version and variant mismatches all raise
    {!Format_error}; nothing unverified ever reaches [Marshal].

    Like all [Marshal]-based formats it is not portable across
    incompatible compiler versions, and it pins the in-memory layouts of
    {!Wavelet_trie.t}, {!Append_wt.t} and {!Dynamic_wt.t}: the
    checksummed header makes such mismatches fail loudly instead of
    silently misbehaving.  [Wtrie.Storage] flattens what these loaders
    return into a static arena. *)

exception Format_error of string
(** Raised by the [load_*] functions on any corruption: bad magic,
    version or variant tag, checksum mismatch, truncation. *)

val load_static : string -> Wavelet_trie.t
val load_append : string -> Append_wt.t
val load_dynamic : string -> Dynamic_wt.t

val is_index_file : string -> bool
(** Whether the file starts with this library's magic bytes. *)
