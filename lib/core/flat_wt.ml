(* Pointer-free flat static Wavelet Trie — the arena.

   The whole trie lives in one contiguous byte blob: a 56-byte header, a
   succinct node directory (per node, whether it is internal and where
   its content starts), then every node's content — its header-free RRR
   bitvector blob ({!Wt_bitvector.Rrr}) followed by its label — as
   one bit stream.  Node counts are not stored: a child's count is its
   parent's β zeros or ones, and the root's is the sequence length.
   Queries run directly against the blob through {!Wt_bits.Membuf} — the
   on-disk container payload *is* the in-memory query structure, so
   [open] is a checksummed header read plus an [mmap] (zero-copy, one
   read-only mapping shareable across serving processes).  A descent
   compares the query with each label in place ([Node.label_lcp]), a
   packed one too; only a read that needs a label's bits decodes it.

   Arena layout, version 9 (integers little-endian, bit streams
   LSB-first; N nodes in BFS order, I = (N - 1) / 2 of them internal;
   every section is byte-aligned and its size derived from the header):

     header (96 + |B| bytes):
       off  0  magic "WTF3" (4 bytes)
       off  4  u32 arena version (= 9; versions 2 to 8 are read too)
       off  8  u64 n               sequence length (the root's count)
       off 16  u64 node_count      N
       off 24  u64 labels_bits     total stored label length in bits
       off 32  u64 directory_bits  node directory length in bits
       off 40  u64 content_bits    content stream length in bits
       off 48  u64 arena_len       total blob size in bytes
       off 56  u64 flags           bit 0: a byte-string arena; no other
                                   bit is set
       off 64  byte set B          32 bytes, bit b land 7 of byte b lsr 3
                                   set iff byte b occurs in the strings:
                                   not empty in a byte-string arena,
                                   empty in a bitstring one
       off 96  code lengths        one byte per byte of B, in increasing
                                   order: its codeword length in the
                                   leaf code (low 4 bits) and in the
                                   internal code (high 4 bits), 0 when
                                   it has none; at most 12 each, and
                                   each code's Kraft sum at most 1

     node directory: directory_bits bits, byte-padded
       ({!Wt_succinct.Flat_directory}, a partitioned Elias–Fano
       sequence): per block of 32 nodes one record — internal nodes
       before the block, its 32 topology bits, its first content offset,
       its body's position, low-bit width and high-part length — then
       per block a body with its other 31 offsets as a unary high part
       of at most 62 bits and fixed-width low parts.  The children of
       internal node i are the consecutive nodes [c, c + 1] with
       c = 2 * rank1 (internal, i) + 1, and node i owns content
       [off i, off (i + 1)), off N being content_bits.  One node visit
       is two record reads and two body reads ([node_entry]).

     content: content_bits bits, byte-padded.  Node i owns
       [off i, off (i + 1)): an internal node's β blob (length = its
       count), then its label; a leaf's label alone.  A label's stored
       length is its extent minus the blob's (and, in a byte-string
       arena, an internal label's end field's).  A β blob of more than 62
       bits starts with a code tag and is class-range RRR or plain,
       whichever is smaller ({!Wt_bitvector.Rrr}); a shorter one is
       one RRR block.  On serve_small's URL log (262,144 strings, about
       2,000 distinct) that takes β from 9.74 to 9.55 bits per string.

   In a byte-string arena (flag bit 0: its strings are
   {!Wt_strings.Binarize.of_bytes} encodings) every label drops the
   bits at bit depths = 0 (mod 9), a 1 before each byte and the
   terminator 0, and a reader restores them from the node's bit depth
   (a node's depth is its parent's plus the parent's logical label
   length plus one): inside an internal label each is a 1, and a leaf's
   label ends with the terminator.  Of its data bits, each byte whose
   eight lie wholly in the label is stored as its codeword in the
   canonical prefix code of the label's kind, leaf or internal, whose
   lengths the header holds: Huffman codes of the whole bytes of the
   arena's own leaf and internal labels; a first byte cut by the depth,
   and an internal label's last byte cut by its branch, keep their raw
   data bits ({!Wt_strings.Binarize}).  A leaf's codewords give its
   length.  An internal label's give it up to its end state, the phase
   mod 9 of its branch position, so an end field of
   x = bit_width (7 / lmin + 1) bits follows its stored bits, lmin
   being the internal code's shortest codeword: the end state's index
   among those its stored bits admit at its depth.  A leaf whose
   stored bits end no encoded string from its depth, an internal label
   whose end field names no end state, or a label holding bits that
   start no codeword, is corrupt.  Every label of a bitstring arena is
   stored whole; strings that hold no byte at all (each one empty) have
   no B, and their arena is written as a bitstring one.  On
   serve_wide's URL log (262,144 strings, 55,741 distinct, 32 distinct
   bytes) leaf labels take 6.43 bits per string (7.35 at version 8) and
   internal ones 3.27 (3.76 at version 8; 0.43 of them end fields, lmin
   being 3).

   Version 8 has a 96-byte header (no code lengths) and codes each
   byte of B in both kinds of label as its rank in B, most significant
   bit first, in w = max 1 (bit_width (|B| - 1)) bits: the canonical
   code whose lengths all equal w, so lmin = w.  Version 7 has the same
   layout with internal labels stored whole.  Version 6 has a 64-byte
   header (no B), internal labels whole and each leaf byte stored as
   its eight data bits, which is version 7's code with all 256 bytes
   in B.  Version 5 has a 56-byte header (no flags
   field) and every label whole.  Version 4 also stored every β blob RRR-coded:
   no tag, and 6 bits per class.  Versions 2 and 3 have version 4's
   header, with offsets_bits at off 32, and a two-part directory:
   ceil (N / 32) topology records of 8 bytes (u32 internal nodes before
   the record's first node, u32 bit j set iff node 32r + j is internal),
   then the N + 1 offsets in offsets_bits bits
   ({!Wt_succinct.Flat_offsets}: per block of 32, the first offset and
   fixed-width differences at the block's own width).  On a URL log of
   262,144 strings, 55,741 distinct (111,481 nodes), that directory
   takes 14.41 bits per node (2.00 of topology, 12.41 of offsets) and
   version 4's 10.86.  Version 3 codes each β blob's last RRR block over
   its real length, as versions 4 to 6 do; version 2 coded it over 62
   bits like the others.  All open through the one blob decoder
   ({!Wt_bitvector.Rrr}), told the arena's version, and the one label
   decoder; the builders write version 9 only (tests can ask
   [arena_of_keys] for versions 7 and 8).  The codes depend only on the
   arena's strings, so [merge] writes the bytes [of_array] does:
   [arena_of_keys] counts the label bytes in a first pass over its BFS
   queue, and [merge] in its one pass over the sources, which writes
   the labels whole and packs them once the counts are in.  [merge]
   copies β blobs of versions 5 to 9 verbatim and decodes every packed
   label it reads.

   Safety: every arena read is bounds-checked by [Membuf], so a corrupt
   blob raises [Invalid_argument] (or {!Wt_durable.Container.Format_error}
   at open) — never a segfault — even when the backing is an unverified
   mmap.  A node's extent is checked against the content stream and its
   β blob against the extent before use, and [child] requires child
   indices to increase, so traversals over corrupt tables terminate.
   After {!close} the file descriptor is released and the handle flips
   to a closed state: every subsequent operation raises {!Closed}
   deterministically, while the mapping itself stays alive (GC-rooted
   through the handle) so in-flight reads in other domains remain
   memory-safe. *)

module Bitstring = Wt_strings.Bitstring
module Binarize = Wt_strings.Binarize
module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword
module Membuf = Wt_bits.Membuf
module Rrr = Wt_bitvector.Rrr
module Offsets = Wt_succinct.Flat_offsets
module Directory = Wt_succinct.Flat_directory
module Container = Wt_durable.Container
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace

exception Closed

let arena_magic = "WTF3"
let arena_version = Rrr.newest_version
let header_len = 96

(* Before version 7 the header has no byte set, before version 6 no
   flags field; from version 9 it ends with a byte of code lengths for
   each of the [set_size] bytes of B. *)
let header_bytes ~version ~set_size =
  if version >= 9 then header_len + set_size
  else if version >= 7 then header_len
  else if version = 6 then 64
  else 56

(* The one flag: labels are stored without their marker bits. *)
let bytes_flag = 1

(* What an arena's strings are: [Bytes], the {!Binarize.of_bytes}
   encodings of byte strings, whose labels lose their marker bits; or
   [Bits], raw bitstrings, every label stored whole. *)
type keys = Bits | Bytes

let tag = "static"
(* Same variant tag as the v2 static container; the two are told apart
   by the container's format-version field. *)

(* The node directory: version 4's, or the topology records (right
   after the header) and node offsets of versions 2 and 3. *)
type directory = V4 of Directory.t | V3 of Offsets.t

type t = {
  mb : Membuf.t;
  n : int;
  node_count : int;
  labels_bits : int;
  content_bits : int;
  dir : directory;
  content_bit : int; (* bit offset of the content stream *)
  version : int; (* the blob decoder needs it: see [Rrr.of_membuf] *)
  header : int; (* bytes *)
  set : string; (* B, from version 7; empty in a bitstring arena *)
  code : Binarize.code option;
      (* a byte-string arena's leaf code: its leaf labels are stored
         without marker bits, their whole bytes coded *)
  icode : Binarize.code option; (* the same for internal labels, from version 8 *)
  end_bits : int; (* their end field's width; 0 without [icode] *)
  source : string; (* file path when opened from storage, for errors *)
  mutable closed : bool;
  release : unit -> unit; (* backing fd, when mmap-opened *)
}

let fail fmt = Printf.ksprintf (fun m -> raise (Container.Format_error m)) fmt
let topo_len ~version node_count = if version >= 4 then 0 else 8 * ((node_count + 31) / 32)

(* Byte offsets of the directory's bit stream (the node offsets, before
   version 4) and of the content stream, and the arena size, all derived
   from the header fields. *)
let sections ~version ~header ~node_count ~directory_bits ~content_bits =
  let dir = header + topo_len ~version node_count in
  let content = dir + ((directory_bits + 7) / 8) in
  (dir, content, content + ((content_bits + 7) / 8))

(* ------------------------------------------------------------------ *)
(* Building.  The trie of Definition 3.1 depends only on the distinct
   strings and the sequence, so an arena is written level by level —
   nodes in BFS order, a node's two children consecutive, zero child
   first, as the topology requires — with no pointer trie in between.
   Two builders feed one writer: [arena_of_keys] from the sorted
   distinct keys and the sequence as key ranks, and [merge] from
   existing tries whose sequences are consecutive slices. *)

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* The arena writer.  A node is started with its topology bit and its
   bit depth; an internal node then gets its β, accumulated 62 bits at
   a time into [blocks] and RRR-encoded straight into the content
   stream, and every node its label.  [finish] lays out the header and
   the node directory in front of the content. *)
type writer = {
  version : int; (* 9, or 7 and 8 for tests *)
  set : string; (* B; empty when labels are whole *)
  code : Binarize.code option; (* the leaf code; [None]: leaf labels whole *)
  icode : Binarize.code option; (* the internal code; [None]: internal labels whole *)
  mutable starts : int array; (* content offset of each node started *)
  mutable nodes : int;
  topo : Bitbuf.t;
  mutable content : Bitbuf.t;
  room : int; (* [n] + 64: more than almost any node's content *)
  mutable label_total : int; (* stored label bits *)
  blocks : int array; (* β of the current node, bits [62i, 62i + 62) in entry i *)
  mutable word : int; (* β bits not yet in [blocks] *)
  mutable fill : int;
  mutable nb : int;
  (* the current node's label: its code ([None]: stored whole), whether
     it is an internal node's, its bit depth and its first stored bit,
     the depth of its next bit, and whether its terminator is written *)
  mutable lcode : Binarize.code option;
  mutable internal : bool;
  mutable depth : int;
  mutable lstart : int;
  mutable lpos : int;
  mutable ended : bool;
  keep : bool; (* whether [kept] is kept, for [repack] *)
  mutable kept : int array;
      (* node i's label's first bit times 9 plus its bit depth's phase
         mod 9, all a label's code needs of its depth *)
}

(* [n] bounds every β; [nodes] is the node count, or a first guess,
   and [bits] the content's, 4n by default.  Leaf labels are packed in
   [code], internal ones in [icode], when given. *)
let writer ?(version = arena_version) ?(keep = false) ?bits ~set ~code ~icode ~n ~nodes () =
  if version < 7 || version > arena_version then invalid_arg "Flat_wt: writes versions 7 to 9";
  {
    version;
    set;
    code;
    icode;
    starts = Array.make (nodes + 1) 0;
    nodes = 0;
    topo = Bitbuf.create ~capacity_bits:nodes ();
    content = Bitbuf.create ~capacity_bits:(Option.value bits ~default:(4 * n)) ();
    room = n + 64;
    label_total = 0;
    blocks = Array.make ((n / Rrr.block_bits) + 1) 0;
    word = 0;
    fill = 0;
    nb = 0;
    lcode = None;
    internal = false;
    depth = 0;
    lstart = 0;
    lpos = 0;
    ended = false;
    keep;
    kept = (if keep then Array.make (nodes + 1) 0 else [||]);
  }

let corrupt_leaf () = invalid_arg "Flat_wt: a leaf label ends no encoded byte string"

(* The current node's label starts where its first bits go, after its
   β blob. *)
let begin_label w = if w.lstart < 0 then w.lstart <- Bitbuf.length w.content

(* A packed leaf label ends with its terminator, or is empty where the
   parent branched on it; a packed internal label is followed by its end
   field, found from the bits just stored. *)
let end_label w =
  if w.keep && w.nodes > 0 then begin
    begin_label w;
    let i = w.nodes - 1 in
    if i >= Array.length w.kept then w.kept <- Array.append w.kept w.kept;
    w.kept.(i) <- (9 * w.lstart) + (w.depth mod 9)
  end;
  match w.lcode with
  | Some code when w.internal ->
      begin_label w;
      let stored = Bitbuf.length w.content - w.lstart in
      let field =
        Binarize.end_field code w.content w.lstart ~depth:w.depth ~stored (w.lpos - w.depth)
      in
      let x = Binarize.end_width code in
      Bitbuf.add_bits w.content x field;
      w.label_total <- w.label_total + x
  | Some _ -> if not (w.ended || (w.lpos = w.depth && w.depth mod 9 = 1)) then corrupt_leaf ()
  | None -> ()

(* Ahead of each node the content stream grows fourfold when fewer than
   [room] bits are left (a β blob takes about its count, at most [n];
   [Bitbuf]'s doubling covers a longer label).  Fourfold steps copy it
   fewer times than doubling.  They also set how much a build allocates
   in the major heap, and so how far the collector gets before the
   build returns: with doubling, serve_wide's content shrinking from
   1,035 to 976 KB dropped the build's last 2 MB buffer, left 7.40M
   major-heap words behind it instead of 6.22M, and took the peak
   resident set of a build and 40 batches of queries from 75.7 to
   91.7 MB; growing fourfold, 77.3 MB. *)
let start_node w ~internal ~depth =
  end_label w;
  (let c = w.content in
   if Bitbuf.capacity_bits c - Bitbuf.length c < w.room then begin
     let grown = Bitbuf.create ~capacity_bits:((4 * Bitbuf.capacity_bits c) + w.room) () in
     Bitbuf.append grown c;
     w.content <- grown
   end);
  w.lcode <- (if internal then w.icode else w.code);
  w.internal <- internal;
  w.depth <- depth;
  w.lstart <- -1;
  w.lpos <- depth;
  w.ended <- false;
  if w.nodes + 1 >= Array.length w.starts then begin
    let starts = Array.make (2 * Array.length w.starts) 0 in
    Array.blit w.starts 0 starts 0 w.nodes;
    w.starts <- starts
  end;
  w.starts.(w.nodes) <- Bitbuf.length w.content;
  w.nodes <- w.nodes + 1;
  Bitbuf.add w.topo internal

let block_mask = Broadword.mask Rrr.block_bits

(* [add_bits w len v]: the next [len <= 62] bits of the current β, the
   low bits of [v], zero above [len]. *)
let add_bits w len v =
  let room = Rrr.block_bits - w.fill in
  w.word <- w.word lor ((v lsl w.fill) land block_mask);
  if len < room then w.fill <- w.fill + len
  else begin
    w.blocks.(w.nb) <- w.word;
    w.nb <- w.nb + 1;
    w.word <- v lsr room;
    w.fill <- len - room
  end

let add_run w b len =
  let rest = ref len in
  while !rest > 0 do
    let take = Int.min Rrr.block_bits !rest in
    add_bits w take (if b then Broadword.mask take else 0);
    rest := !rest - take
  done

(* Encode the [len]-bit β held in [blocks] (and, for the accumulator,
   [word]) into the content stream. *)
let end_beta w ~len =
  if w.fill > 0 then w.blocks.(w.nb) <- w.word;
  Rrr.append_blocks w.content w.blocks ~len;
  w.word <- 0;
  w.fill <- 0;
  w.nb <- 0

(* The next [len <= 56] bits of the current node's label, the low bits
   of [v].  A packed label drops its bits at depths = 0 (mod 9), each a
   1 but for a leaf label's last bit, the terminator 0, and codes its
   whole bytes, so it comes in pieces of [label_take] bits. *)
let add_label w len v =
  match w.lcode with
  | Some code ->
      if len > 0 then begin
        if w.ended then corrupt_leaf ();
        if w.lpos <> w.depth && w.lpos mod 9 <> 0 then
          invalid_arg "Flat_wt: a label piece starts inside a byte";
        let markers = Binarize.markers ~depth:w.lpos len in
        begin_label w;
        let stored = Bitbuf.length w.content in
        let dropped = Binarize.pack_bits code w.content ~depth:w.lpos len v in
        w.label_total <- w.label_total + Bitbuf.length w.content - stored;
        w.lpos <- w.lpos + len;
        if dropped <> Broadword.mask markers then begin
          if w.internal then invalid_arg "Flat_wt: an internal label holds a terminator";
          if dropped <> Broadword.mask (markers - 1) || (w.lpos - 1) mod 9 <> 0 then
            corrupt_leaf ();
          w.ended <- true
        end
      end
  | None ->
      begin_label w;
      Bitbuf.add_bits w.content len v;
      w.label_total <- w.label_total + len

(* How many of the [rest] label bits left to feed [add_label] next: a
   piece of a packed label ends at a depth = 0 (mod 9) or at the label's
   end, so that no byte is split between two pieces. *)
let label_take w rest = if w.lcode <> None then Int.min rest (54 - (w.lpos mod 9)) else Int.min rest 56

(* Bits [off, off + len) of [key] (a key, or a label) as the current
   node's label. *)
let add_key_bits w key off len =
  let p = ref 0 in
  while !p < len do
    let take = label_take w (len - !p) in
    add_label w take (Bitstring.get_bits key (off + !p) take);
    p := !p + take
  done

(* Copy [len] bits at bit [pos] of [mb] into the content stream. *)
let copy_bits w mb pos len =
  let p = ref 0 in
  while !p < len do
    let take = Int.min 56 (len - !p) in
    Bitbuf.add_bits w.content take (Membuf.get_bits mb (pos + !p) take);
    p := !p + take
  done

let finish w ~n =
  end_label w;
  let node_count = w.nodes in
  if node_count >= 1 lsl 32 then invalid_arg "Flat_wt: node count exceeds 2^32";
  let content_bits = Bitbuf.length w.content in
  w.starts.(node_count) <- content_bits;
  let offs =
    if Array.length w.starts = node_count + 1 then w.starts
    else Array.sub w.starts 0 (node_count + 1)
  in
  let dir = Bitbuf.create () in
  Directory.append dir ~internal:w.topo ~universe:content_bits offs;
  let directory_bits = Bitbuf.length dir in
  let header = header_bytes ~version:w.version ~set_size:(Binarize.set_size w.set) in
  let _, _, arena_len =
    sections ~version:w.version ~header ~node_count ~directory_bits ~content_bits
  in
  let out = Buffer.create arena_len in
  Buffer.add_string out arena_magic;
  add_u32 out w.version;
  List.iter (add_u64 out)
    [
      n;
      node_count;
      w.label_total;
      directory_bits;
      content_bits;
      arena_len;
      (if w.code = None then 0 else bytes_flag);
    ];
  Buffer.add_string out w.set;
  if w.version >= 9 then begin
    let length = function Some c -> Binarize.code_length c | None -> fun _ -> 0 in
    for b = 0 to 255 do
      if Binarize.mem w.set b then
        Buffer.add_uint8 out (length w.code b lor (length w.icode b lsl 4))
    done
  end;
  Bitbuf.add_to_buffer out dir;
  Bitbuf.add_to_buffer out w.content;
  assert (Buffer.length out = arena_len);
  Buffer.contents out

(* First index in [lo, hi] whose key has bit [m] set, given that the
   keys are sorted, share their first [m] bits, and key [hi] has it. *)
let split_point keys lo hi m =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Bitstring.get keys.(mid) m then hi := mid else lo := mid + 1
  done;
  !lo

(* [arena_of_keys keys seq]: [keys] sorted, distinct and prefix-free,
   [seq.(i)] the rank in [keys] of the sequence's i-th string, every key
   occurring at least once.  A node is a key range [lo, hi) whose keys
   share their first [off] bits, plus the subsequence of the ranks in
   it.  A one-key range is a leaf labelled with the rest of its key.
   Otherwise the range's keys share exactly m = LCP (key lo, key hi-1)
   bits and split at bit m — keys [lo, j) continue with 0, keys [j, hi)
   with 1 — so the label is bits [off, m), β marks the ranks >= j, and a
   stable partition hands each child its subsequence.  A first pass
   lays out the BFS queue (each node's key range and consumed bits, so
   a node's m and j are its children's) and counts the labels' whole
   bytes by kind, for the codes; the second writes the nodes.  Each
   level's subsequences lie side by side in one rank array, so two
   arrays of n ranks serve every level.  [~keys] says what the keys
   encode; with [Bytes], [bytes] is the byte set of the strings they
   encode ({!Binarize.byte_set} of the raw strings: finding it from the
   keys would decode every one).  [~version] 7 or 8 writes that
   version, B's fixed-width code for leaf labels and, at 8, for internal
   ones: for tests only, which need arenas of those versions as merge
   sources; every builder of the library writes version 9. *)

(* A byte-string arena's B and its leaf and internal codes, by the
   version written and the whole bytes counted in its labels. *)
let label_codes ~version set ~leaf ~internal =
  if set = Binarize.empty_set then (set, None, None)
  else if version >= 9 then
    let code counts = Some (Binarize.code_of_lengths (Binarize.huffman_lengths counts)) in
    (set, code leaf, code internal)
  else
    let c = Binarize.fixed_code set in
    (set, Some c, if version = 8 then Some c else None)

let arena_of_keys ~keys:kind ?bytes ?(version = arena_version) (keys : Bitstring.t array)
    (seq : int array) : string =
  Probe.time Flat_build (fun () ->
      let d = Array.length keys and n = Array.length seq in
      (* cum.(k): occurrences of the keys ranked below k *)
      let cum = Array.make (d + 1) 0 in
      Array.iter (fun r -> cum.(r + 1) <- cum.(r + 1) + 1) seq;
      for k = 1 to d do
        if cum.(k) = 0 then invalid_arg "Flat_wt: a key does not occur in the sequence";
        cum.(k) <- cum.(k) + cum.(k - 1)
      done;
      let node_count = if d = 0 then 0 else (2 * d) - 1 in
      if node_count >= 1 lsl 32 then invalid_arg "Flat_wt: node count exceeds 2^32";
      let set =
        match (kind, bytes) with
        | Bits, _ -> Binarize.empty_set
        | Bytes, Some set -> set
        | Bytes, None -> invalid_arg "Flat_wt: byte-string keys without their byte set"
      in
      let counting = version >= 9 && set <> Binarize.empty_set in
      (* the BFS queue: node i's key range and consumed bits; the root,
         node 0, is [0, d) at offset 0 *)
      let q_lo = Array.make node_count 0 and q_hi = Array.make node_count d in
      let q_off = Array.make node_count 0 in
      let leaf = Array.make 256 0 and internal = Array.make 256 0 in
      let tail = ref 1 in
      for i = 0 to node_count - 1 do
        let lo = q_lo.(i) and hi = q_hi.(i) and off = q_off.(i) in
        let key = keys.(lo) in
        let stop =
          if hi - lo = 1 then Bitstring.length key
          else begin
            let m = Bitstring.lcp key keys.(hi - 1) in
            let j = split_point keys (lo + 1) (hi - 1) m in
            q_lo.(!tail) <- lo;
            q_hi.(!tail) <- j;
            q_off.(!tail) <- m + 1;
            q_lo.(!tail + 1) <- j;
            q_hi.(!tail + 1) <- hi;
            q_off.(!tail + 1) <- m + 1;
            tail := !tail + 2;
            m
          end
        in
        if counting then
          Binarize.count_bytes (if hi - lo = 1 then leaf else internal) key ~from:off ~upto:stop
      done;
      let set, code, icode = label_codes ~version set ~leaf ~internal in
      let w = writer ~version ~set ~code ~icode ~n ~nodes:node_count () in
      let blocks = w.blocks in
      (* level L reads its subsequences from [src] and writes level L+1's
         into [dst] *)
      let spare = Array.make n 0 in
      let src = ref seq and dst = ref (Array.make n 0) in
      let rpos = ref 0 and wpos = ref 0 and level_end = ref 1 in
      tail := 1;
      for i = 0 to node_count - 1 do
        if i = !level_end then begin
          let read = !src in
          src := !dst;
          dst := if read == seq then spare else read;
          rpos := 0;
          wpos := 0;
          level_end := !tail
        end;
        let lo = q_lo.(i) and hi = q_hi.(i) and off = q_off.(i) in
        let key = keys.(lo) in
        let count = cum.(hi) - cum.(lo) in
        start_node w ~internal:(hi - lo > 1) ~depth:off;
        let stop =
          if hi - lo = 1 then Bitstring.length key
          else begin
            (* the split the first pass found: the children's *)
            let m = q_off.(!tail) - 1 and j = q_hi.(!tail) in
            tail := !tail + 2;
            let src = !src and dst = !dst in
            let w0 = ref !wpos and w1 = ref (!wpos + cum.(j) - cum.(lo)) in
            let word = ref 0 and fill = ref 0 and nb = ref 0 in
            (* branch-free: a rank's side is random, so a branch on it
               mispredicts about every other rank *)
            for k = !rpos to !rpos + count - 1 do
              let r = Array.unsafe_get src k in
              let b = (j - 1 - r) lsr 62 in
              word := !word lor (b lsl !fill);
              Array.unsafe_set dst (!w0 + ((!w1 - !w0) land -b)) r;
              w1 := !w1 + b;
              w0 := !w0 + 1 - b;
              incr fill;
              if !fill = Rrr.block_bits then begin
                blocks.(!nb) <- !word;
                incr nb;
                word := 0;
                fill := 0
              end
            done;
            if !fill > 0 then blocks.(!nb) <- !word;
            Rrr.append_blocks w.content blocks ~len:count;
            wpos := !wpos + count;
            m
          end
        in
        rpos := !rpos + count;
        add_key_bits w key off (stop - off)
      done;
      finish w ~n)

(* ------------------------------------------------------------------ *)
(* Opening: validate the header, then serve queries in place.  Nothing
   past the header is read.  [release] is invoked (once) by {!close} to
   free the backing fd. *)

let of_membuf ?(source = "<memory>") ?(release = fun () -> ()) mb =
  let len = Membuf.length mb in
  if len < 8 then fail "flat arena: truncated header (%d bytes)" len;
  let magic_ok =
    Membuf.get mb 0 = Char.code 'W'
    && Membuf.get mb 1 = Char.code 'T'
    && Membuf.get mb 2 = Char.code 'F'
    && Membuf.get mb 3 = Char.code '3'
  in
  if not magic_ok then fail "flat arena: bad magic";
  let version = Membuf.get_u32 mb 4 in
  if version < 2 || version > arena_version then
    fail "flat arena: version %d, expected 2 to %d (rebuild the index from its source)" version
      arena_version;
  if len < header_bytes ~version ~set_size:0 then fail "flat arena: truncated header (%d bytes)" len;
  match
    let u64 off = Membuf.get_u64 mb off in
    (u64 8, u64 16, u64 24, u64 32, u64 40, u64 48, if version >= 6 then u64 56 else 0)
  with
  | exception Invalid_argument _ -> fail "flat arena: corrupt header field"
  | n, node_count, labels_bits, directory_bits, content_bits, arena_len, flags ->
      if arena_len <> len then
        fail "flat arena: declared size %d, actual %d" arena_len len;
      if flags land lnot bytes_flag <> 0 then fail "flat arena: unknown header flags %#x" flags;
      (* B: every byte-string arena has one from version 7, no
         bitstring arena does *)
      let set =
        if version < 7 then if version = 6 && flags <> 0 then Binarize.full_set else Binarize.empty_set
        else String.init 32 (fun i -> Char.chr (Membuf.get mb (64 + i)))
      in
      let set_size = Binarize.set_size set in
      if version >= 7 && flags <> 0 && set_size = 0 then
        fail "flat arena: a byte-string arena with no byte set";
      if flags = 0 && set_size > 0 then fail "flat arena: a byte set in a bitstring arena";
      let header = header_bytes ~version ~set_size in
      if len < header then fail "flat arena: truncated header (%d bytes)" len;
      (* the codes: version 9's from the header, B's fixed-width code
         before *)
      let code, icode =
        if flags = 0 then (None, None)
        else if version >= 9 then begin
          let leaf = Bytes.make 256 '\000' and internal = Bytes.make 256 '\000' in
          let r = ref 0 in
          for b = 0 to 255 do
            if Binarize.mem set b then begin
              let v = Membuf.get mb (header_len + !r) in
              Bytes.set leaf b (Char.chr (v land 15));
              Bytes.set internal b (Char.chr (v lsr 4));
              incr r
            end
          done;
          let code what lengths =
            match Binarize.code_of_lengths (Bytes.to_string lengths) with
            | c -> Some c
            | exception Invalid_argument m -> fail "flat arena: the %s code: %s" what m
          in
          (code "leaf" leaf, code "internal" internal)
        end
        else
          let c = Binarize.fixed_code set in
          (Some c, if version = 8 then Some c else None)
      in
      (* bound the sections by the blob before deriving offsets, so the
         arithmetic below cannot overflow *)
      if node_count > 8 * len || directory_bits > 8 * len || content_bits > 8 * len then
        fail "flat arena: section exceeds the blob";
      let fixed =
        if version >= 4 then Directory.records_bits ~nodes:node_count ~universe:content_bits
        else Offsets.headers_bits ~count:(node_count + 1) ~universe:content_bits
      in
      if directory_bits < fixed then fail "flat arena: node directory too short";
      if labels_bits > content_bits then fail "flat arena: labels exceed the content stream";
      if (n = 0) <> (node_count = 0) then
        fail "flat arena: length and node count disagree on emptiness";
      if node_count > 0 && node_count land 1 = 0 then
        fail "flat arena: even node count %d (not a binary trie)" node_count;
      (* a root β of more than one block stores at least one bit per 62
         of its n bits (6 before version 5, when every class took 6
         bits); a one-block root has at most 62 *)
      let per_block = if version >= 5 then 1 else 6 in
      if node_count > 1 && n > Rrr.block_bits * Int.max 1 (content_bits / per_block) then
        fail "flat arena: length %d exceeds what the content stream can hold" n;
      let dir, content, end_ =
        sections ~version ~header ~node_count ~directory_bits ~content_bits
      in
      if end_ <> len then fail "flat arena: sections end at %d, blob is %d bytes" end_ len;
      {
        mb;
        n;
        node_count;
        labels_bits;
        content_bits;
        dir =
          (if version >= 4 then
             V4
               (Directory.of_membuf mb ~bit:(8 * dir) ~bits:directory_bits ~nodes:node_count
                  ~universe:content_bits)
           else
             V3 (Offsets.of_membuf mb ~bit:(8 * dir) ~count:(node_count + 1) ~universe:content_bits));
        content_bit = 8 * content;
        version;
        header;
        set;
        code;
        icode;
        end_bits = (match icode with Some c -> Binarize.end_width c | None -> 0);
        source;
        closed = false;
        release;
      }

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.release ()
  end

let is_closed t = t.closed
let source t = t.source
let version (t : t) = t.version

(* ------------------------------------------------------------------ *)

(* The topology record of node [idx] before version 4: its rank among
   the internal nodes, -1 for a leaf. *)
let v3_irank (t : t) idx =
  let rec_bit = 8 * (t.header + (8 * (idx lsr 5))) in
  let bits = Membuf.get_bits t.mb (rec_bit + 32) 32 in
  let j = idx land 31 in
  if bits land (1 lsl j) = 0 then -1
  else Membuf.get_bits t.mb rec_bit 32 + Broadword.popcount (bits land ((1 lsl j) - 1))

(* Node [idx]'s rank among the internal nodes, -1 for a leaf. *)
let irank t idx = match t.dir with V4 d -> Directory.irank d idx | V3 _ -> v3_irank t idx

(* Node [idx]'s rank among the internal nodes and its extent in the
   content stream, checked against the stream: one fused directory
   read. *)
let node_entry t idx =
  let ((_, lo, hi) as e) =
    match t.dir with
    | V4 d -> Directory.visit d idx
    | V3 offs ->
        let lo, hi = Offsets.get2 offs idx in
        (v3_irank t idx, lo, hi)
  in
  if lo < 0 || lo > hi || hi > t.content_bits then invalid_arg "Flat_wt: corrupt node extent";
  e

module Node = struct
  type trie = t

  type node = {
    t : t;
    idx : int;
    count : int;
    depth : int; (* bit depth: the label bits above this node's label *)
    irank : int; (* rank among internal nodes; -1 for a leaf *)
    lo : int; (* content extent *)
    hi : int;
    mutable bv_memo : Rrr.t option;
    mutable len_memo : int; (* the label's length, -1 until read *)
  }
  (* [bv_memo] caches the β view, and [len_memo] the label length a
     descent reads twice (for the label, then for the child's depth):
     node values live within one traversal (they are created by
     [root]/[child] and never shared across domains), so the caches are
     domain-local by construction. *)

  let make t idx count depth =
    let irank, lo, hi = node_entry t idx in
    { t; idx; count; depth; irank; lo; hi; bv_memo = None; len_memo = -1 }

  let root (trie : trie) =
    if trie.closed then raise Closed;
    if trie.node_count = 0 then None else Some (make trie 0 trie.n 0)

  let length (trie : trie) =
    if trie.closed then raise Closed;
    trie.n

  let count node = node.count
  let is_leaf node = node.irank < 0

  let bv_of node =
    match node.bv_memo with
    | Some bv -> bv
    | None ->
        if node.irank < 0 then invalid_arg "Flat_wt.Node: leaf has no bitvector";
        let bv =
          Rrr.of_membuf node.t.mb (node.t.content_bit + node.lo) ~len:node.count
            ~version:node.t.version
        in
        if node.lo + Rrr.space_bits bv > node.hi then
          invalid_arg "Flat_wt.Node: β overruns its node extent";
        node.bv_memo <- Some bv;
        bv

  (* A packed label's code: [None] for a label stored whole. *)
  let label_code node = if node.irank < 0 then node.t.code else node.t.icode

  (* The label's first bit in the content stream. *)
  let label_start node =
    if node.irank < 0 then node.lo else node.lo + Rrr.space_bits (bv_of node)

  (* The bits the label takes, a packed internal label's end field
     included. *)
  let stored_label_length node = node.hi - label_start node

  (* The label's stored bits, a packed internal label's end field
     aside. *)
  let stored_bits node start = node.hi - start - if node.irank < 0 then 0 else node.t.end_bits

  (* The length of the label whose [stored] bits start at [start]; a
     packed internal label's end field ends its extent. *)
  let unpacked_length node start stored =
    match label_code node with
    | None -> stored
    | Some code ->
        let t = node.t in
        let bit = t.content_bit + start in
        if node.irank < 0 then begin
          let len = Binarize.leaf_length code t.mb bit ~depth:node.depth ~stored in
          if len < 0 then invalid_arg "Flat_wt.Node: corrupt leaf label";
          len
        end
        else
          let x = t.end_bits in
          let field = if stored < 0 then -1 else Membuf.get_bits t.mb (t.content_bit + node.hi - x) x in
          let len = Binarize.internal_length code t.mb bit ~depth:node.depth ~stored field in
          if len < 0 then invalid_arg "Flat_wt.Node: corrupt internal label";
          len

  let label_length node =
    if node.len_memo < 0 then begin
      let start = label_start node in
      node.len_memo <- unpacked_length node start (stored_bits node start)
    end;
    node.len_memo

  let label node =
    let start = label_start node in
    let stored = stored_bits node start in
    let len = label_length node in
    let bitpos = node.t.content_bit + start in
    (* at least eight bytes, so every comparison against the label takes
       the one-load path of [Bitbuf.get_bits] *)
    let out = Bitbuf.create ~capacity_bits:(Int.max 64 len) () in
    (match label_code node with
    | Some code ->
        Binarize.unpack code node.t.mb bitpos ~depth:node.depth ~stored len
          ~leaf:(node.irank < 0) out
    | None ->
        let i = ref 0 in
        while !i < len do
          let take = Int.min 56 (len - !i) in
          Bitbuf.add_bits out take (Membuf.get_bits node.t.mb (bitpos + !i) take);
          i := !i + take
        done);
    Bitstring.unsafe_of_bitbuf out

  (* Compared in place: a descent reads no label into a buffer. *)
  let label_lcp node s off =
    let len = label_length node in
    let start = label_start node in
    let bitpos = node.t.content_bit + start in
    match label_code node with
    | Some code ->
        Binarize.lcp code node.t.mb bitpos ~depth:node.depth ~stored:(stored_bits node start) len
          ~leaf:(node.irank < 0) s off
    | None ->
        let n = Int.min len (Bitstring.length s - off) in
        let i = ref 0 and l = ref n in
        while !i < !l do
          let take = Int.min 56 (n - !i) in
          let x =
            Membuf.get_bits node.t.mb (bitpos + !i) take lxor Bitstring.get_bits s (off + !i) take
          in
          if x <> 0 then l := !i + Broadword.lowest_bit x;
          i := !i + take
        done;
        !l

  let child node b =
    if node.irank < 0 then invalid_arg "Flat_wt.Node.child: leaf";
    let c0 = (2 * node.irank) + 1 in
    (* child indices must increase: traversals over a corrupt table
       terminate instead of looping *)
    if c0 <= node.idx || c0 + 1 >= node.t.node_count then
      invalid_arg "Flat_wt.Node.child: corrupt child index";
    let bv = bv_of node in
    let depth = node.depth + label_length node + 1 in
    if b then make node.t (c0 + 1) (Rrr.ones bv) depth
    else make node.t c0 (Rrr.zeros bv) depth

  let bv_rank node b pos = Rrr.rank (bv_of node) b pos
  let bv_select node b k = Rrr.select (bv_of node) b k
  let bv_access node pos = Rrr.access (bv_of node) pos
  let bv_access_rank node pos = Rrr.access_rank (bv_of node) pos

  let iter_bits node pos =
    let it = Rrr.Iter.create (bv_of node) pos in
    fun () -> Rrr.Iter.next it

  let bv_space_bits node = Rrr.space_bits (bv_of node)

  type cursor = Rrr.Cursor.t

  let bv_cursor node = Rrr.Cursor.create (bv_of node)
  let cursor_rank = Rrr.Cursor.rank
  let cursor_access_rank = Rrr.Cursor.access_rank
end

module Q = Query.Make (Node)

let length t =
  if t.closed then raise Closed;
  t.n

let access = Q.access
let rank = Q.rank
let select = Q.select
let rank_prefix = Q.rank_prefix
let select_prefix = Q.select_prefix
let distinct_count = Q.distinct_count
let to_array = Q.to_array
let dump = Q.dump
let pp = Q.pp_tree

let space_bits t =
  if t.closed then raise Closed;
  8 * Membuf.length t.mb

(* LT is measured on the logical labels; [label_bits] is what the arena
   stores. *)
let stats t = { (Q.stats ~space_bits t) with label_bits = t.labels_bits }

(* ------------------------------------------------------------------ *)
(* Construction and storage *)

let of_keys ~keys:kind ?bytes keys seq =
  of_membuf (Membuf.of_string (arena_of_keys ~keys:kind ?bytes keys seq))

(* A string's hash, eight bytes at a time. *)
let hash_string s =
  let n = String.length s in
  let h = ref n and i = ref 0 in
  while !i + 8 <= n do
    h := (!h * 0x100000001b3) lxor Int64.to_int (String.get_int64_le s !i);
    i := !i + 8
  done;
  while !i < n do
    h := (!h * 0x100000001b3) lxor Char.code (String.unsafe_get s !i);
    incr i
  done;
  !h

(* The distinct strings of [strings] sorted by [compare], and the
   sequence as ranks among them.  Equal strings are found by open
   addressing: each slot holds a first occurrence's index and its hash,
   so [equal] runs only on equal hashes, and a string's id is its first
   occurrence's. *)
let sorted_keys ~hash ~equal ~compare strings =
  let n = Array.length strings in
  let seq = Array.make n 0 in
  let slots = ref (Array.make 1024 (-1)) and hashes = ref (Array.make 1024 0) in
  let firsts = ref (Array.make 256 0) and d = ref 0 in
  (* a slot from a hash: bits 20 and up of it times an odd constant *)
  let slot h mask = ((h * 0x2545F4914F6CDD1D) lsr 20) land mask in
  let insert slots hashes first h =
    let mask = Array.length slots - 1 in
    let j = ref (slot h mask) in
    while slots.(!j) >= 0 do
      j := (!j + 1) land mask
    done;
    slots.(!j) <- first;
    hashes.(!j) <- h
  in
  for i = 0 to n - 1 do
    let s = strings.(i) in
    let h = hash s in
    let slots_ = !slots and hashes_ = !hashes in
    let mask = Array.length slots_ - 1 in
    let j = ref (slot h mask) and id = ref (-1) in
    while !id < 0 do
      let f = slots_.(!j) in
      if f < 0 then begin
        id := !d;
        if !d = Array.length !firsts then
          firsts := Array.append !firsts (Array.make !d 0);
        !firsts.(!d) <- i;
        incr d;
        slots_.(!j) <- i;
        hashes_.(!j) <- h
      end
      else if hashes_.(!j) = h && equal strings.(f) s then id := seq.(f)
      else j := (!j + 1) land mask
    done;
    seq.(i) <- !id;
    (* at most half full *)
    if 2 * !d > mask then begin
      let grown = Array.make (2 * (mask + 1)) (-1) and grown_h = Array.make (2 * (mask + 1)) 0 in
      Array.iteri (fun j f -> if f >= 0 then insert grown grown_h f hashes_.(j)) slots_;
      slots := grown;
      hashes := grown_h
    end
  done;
  let d = !d and firsts = !firsts in
  let order = Array.init d Fun.id in
  Array.stable_sort (fun a b -> compare strings.(firsts.(a)) strings.(firsts.(b))) order;
  let rank = Array.make d 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  Array.iteri (fun i id -> seq.(i) <- rank.(id)) seq;
  (Array.map (fun id -> strings.(firsts.(id))) order, seq)

let of_array strings =
  let keys, seq =
    sorted_keys ~hash:Bitstring.hash ~equal:Bitstring.equal ~compare:Bitstring.compare strings
  in
  for j = 1 to Array.length keys - 1 do
    if Bitstring.is_prefix ~prefix:keys.(j - 1) keys.(j) then
      invalid_arg "Flat_wt.of_array: string set is not prefix-free"
  done;
  of_keys ~keys:Bits keys seq

let of_list l = of_array (Array.of_list l)

(* ------------------------------------------------------------------ *)
(* Structural merge.  Sources whose sequences are consecutive slices
   of one sequence are merged into the arena of the whole, with no
   string decoded and no position handed down.  The strings below any
   prefix form, in each source, one subtrie entered part-way along one
   node's label, so a merged node is a range of source cursors (source,
   node, label bits consumed, count), at most one per source, in source
   order.  Its label runs while every cursor's remaining label agrees
   and has bits left: it ends where two disagree or one branches, and
   the node is a leaf only when every cursor is a leaf ending there.
   Its β is, in source order, the β of each cursor that branches there
   and a constant run of each other cursor's next label bit — in
   sequence order, since the sources are.  Cursors live in plain int
   arrays, one set per BFS level, and each merged node keeps its bit
   depth: a source node's is the merged node's less the cursor's
   consumed bits.  Labels are read as their logical bits and written
   the way the merged arena's keys say. *)

type source = Arena of t | Trie : (module Node_view.S with type trie = 'a) * 'a -> source

(* A non-empty source read through int node handles, the root's being
   0.  The arena needs a node's count to find the label behind its β
   blob, and its bit depth to unpack a packed label, so every function
   on a node takes its count, and every label function its depth too.
   Label reads are at most 56 bits wide.  [beta] adds the node's β to a
   merged β and [whole_beta] writes it as the whole β of a node that no
   other source shares; both return its ones. *)
type reader = {
  len : int;
  leaf : int -> bool;
  child : int -> bool -> int;
  label_len : int -> int -> int -> int; (* node, count, depth *)
  label_bits : int -> int -> int -> int -> int -> int; (* node, count, depth, offset, width *)
  add_label : writer -> int -> int -> int -> int -> int -> unit;
      (* node, count, depth, offset, length *)
  beta : writer -> int -> int -> int;
  whole_beta : writer -> int -> int -> int;
}

let arena_reader t =
  if t.closed then raise Closed;
  let irank = irank t in
  let blob_view blob count = Rrr.of_membuf t.mb blob ~len:count ~version:t.version in
  (* each merged node reads one node per source: keep the last one's
     β blob and its view, its label and label length, and a packed
     label unpacked *)
  let at = ref (-1) and blob = ref 0 and blob_bits = ref 0 and ones = ref 0 in
  let view = ref (Rrr.of_blob (Bitbuf.create ()) ~len:0) in
  let label = ref 0 and stored = ref 0 and field = ref 0 and code = ref None in
  let leaf = ref false and len = ref 0 and len_at = ref (-1) in
  let unpacked = Bitbuf.create () and unpacked_at = ref (-1) in
  let locate idx count =
    if idx <> !at then begin
      let r, lo, hi = node_entry t idx in
      blob := t.content_bit + lo;
      if r < 0 then begin
        blob_bits := 0;
        ones := 0
      end
      else begin
        let bv = blob_view !blob count in
        view := bv;
        blob_bits := Rrr.space_bits bv;
        ones := Rrr.ones bv
      end;
      if lo + !blob_bits > hi then invalid_arg "Flat_wt.merge: β overruns its node extent";
      leaf := r < 0;
      label := !blob + !blob_bits;
      code := if r < 0 then t.code else t.icode;
      (* a packed internal label's end field follows its stored bits *)
      let x = if r < 0 then 0 else t.end_bits in
      stored := hi - lo - !blob_bits - x;
      field := if x > 0 && !stored >= 0 then Membuf.get_bits t.mb (!label + !stored) x else -1;
      at := idx
    end
  in
  let label_len idx count depth =
    locate idx count;
    if !len_at <> idx then begin
      (len :=
         match !code with
         | None -> !stored
         | Some code ->
             let l =
               if !leaf then Binarize.leaf_length code t.mb !label ~depth ~stored:!stored
               else Binarize.internal_length code t.mb !label ~depth ~stored:!stored !field
             in
             if l < 0 then invalid_arg "Flat_wt.merge: corrupt label";
             l);
      len_at := idx
    end;
    !len
  in
  let label_bits idx count depth off width =
    locate idx count;
    match !code with
    | None -> Membuf.get_bits t.mb (!label + off) width
    | Some code ->
        if !unpacked_at <> idx then begin
          let len = label_len idx count depth in
          Bitbuf.clear unpacked;
          Binarize.unpack code t.mb !label ~depth ~stored:!stored len ~leaf:!leaf unpacked;
          unpacked_at := idx
        end;
        Bitbuf.get_bits unpacked off width
  in
  let beta w idx count =
    locate idx count;
    let rest = ref count in
    Rrr.iter_blocks !view (fun block ->
        add_bits w (Int.min Rrr.block_bits !rest) block;
        rest := !rest - Rrr.block_bits);
    !ones
  in
  if t.node_count = 0 then None
  else
    Some
      {
        len = t.n;
        leaf = (fun idx -> irank idx < 0);
        child =
          (fun idx b ->
            let c0 = (2 * irank idx) + 1 in
            if c0 <= idx || c0 + 1 >= t.node_count then
              invalid_arg "Flat_wt.merge: corrupt child index";
            if b then c0 + 1 else c0);
        label_len;
        label_bits;
        add_label =
          (fun w idx count depth off len ->
            match (!code, w.lcode) with
            | None, None ->
                begin_label w;
                copy_bits w t.mb (!label + off) len;
                w.label_total <- w.label_total + len
            | _ ->
                let p = ref 0 in
                while !p < len do
                  let take = label_take w (len - !p) in
                  add_label w take (label_bits idx count depth (off + !p) take);
                  p := !p + take
                done);
        beta;
        (* the same bits at the same length: the same blob, when it is
           coded the way the writer codes it *)
        whole_beta =
          (fun w idx count ->
            if t.version >= 5 then begin
              locate idx count;
              copy_bits w t.mb !blob !blob_bits;
              !ones
            end
            else begin
              let ones = beta w idx count in
              end_beta w ~len:count;
              ones
            end);
      }

(* Any trie through its node view: handles index the nodes reached so
   far, and β is read one bit at a time. *)
let trie_reader (type a) (module N : Node_view.S with type trie = a) (trie : a) =
  match N.root trie with
  | None -> None
  | Some root ->
      let nodes = ref (Array.make 64 root) and reached = ref 1 in
      let get h = !nodes.(h) in
      let add node =
        if !reached = Array.length !nodes then begin
          let grown = Array.make (2 * !reached) root in
          Array.blit !nodes 0 grown 0 !reached;
          nodes := grown
        end;
        !nodes.(!reached) <- node;
        incr reached;
        !reached - 1
      in
      let beta w h count =
        let node = get h in
        let next = N.iter_bits node 0 in
        let rest = ref count in
        while !rest > 0 do
          let take = Int.min Rrr.block_bits !rest in
          let word = ref 0 in
          for j = 0 to take - 1 do
            if next () then word := !word lor (1 lsl j)
          done;
          add_bits w take !word;
          rest := !rest - take
        done;
        N.count (N.child node true)
      in
        Some
          {
            len = N.count root;
            leaf = (fun h -> N.is_leaf (get h));
            child = (fun h b -> add (N.child (get h) b));
            label_len = (fun h _ _ -> Bitstring.length (N.label (get h)));
            label_bits =
              (fun h _ _ off width -> Bitstring.get_bits (N.label (get h)) off width);
            add_label = (fun w h _ _ off len -> add_key_bits w (N.label (get h)) off len);
            beta;
            whole_beta =
              (fun w h count ->
                let ones = beta w h count in
                end_beta w ~len:count;
                ones);
          }

(* One BFS level of merged nodes: node j, at bit depth [depth.(j)], owns
   cursors [first.(j), first.(j + 1)), the last one up to [cursors];
   [part.(j)] holds the data bits read of the byte in progress at its
   depth, when a pass tallies bytes. *)
type level = {
  mutable src : int array;
  mutable node : int array;
  mutable off : int array;
  mutable cnt : int array;
  mutable cursors : int;
  mutable first : int array;
  mutable depth : int array;
  mutable part : int array;
  mutable merged : int;
}

let level () =
  let a () = Array.make 64 0 in
  {
    src = a ();
    node = a ();
    off = a ();
    cnt = a ();
    cursors = 0;
    first = a ();
    depth = a ();
    part = a ();
    merged = 0;
  }

let grown a = Array.append a (Array.make (Array.length a) 0)

let open_node l depth part =
  if l.merged = Array.length l.first then begin
    l.first <- grown l.first;
    l.depth <- grown l.depth;
    l.part <- grown l.part
  end;
  l.first.(l.merged) <- l.cursors;
  l.depth.(l.merged) <- depth;
  l.part.(l.merged) <- part;
  l.merged <- l.merged + 1

let push_cursor l s v o c =
  if l.cursors = Array.length l.src then begin
    l.src <- grown l.src;
    l.node <- grown l.node;
    l.off <- grown l.off;
    l.cnt <- grown l.cnt
  end;
  let i = l.cursors in
  l.src.(i) <- s;
  l.node.(i) <- v;
  l.off.(i) <- o;
  l.cnt.(i) <- c;
  l.cursors <- i + 1

(* An internal node's β has both bit values, or its tree is corrupt. *)
let checked_ones ones count =
  if ones <= 0 || ones >= count then invalid_arg "Flat_wt.merge: constant β at an internal node";
  ones

(* B and the whole bytes of a byte-string arena's labels, by kind, as
   a merge writes them: every byte in [seen], and each whole one in the
   counts of its label's kind. *)
type tally = { seen : Bytes.t; leaf : int array; internal : int array }

(* The label bits [o, o + len) of source node [v] as the label of a
   merged node at bit depth [depth], tallied from the byte in progress
   [part]; the byte in progress after them. *)
let tally_label t (r : reader) v c d o ~depth ~internal len part =
  let counts = if internal then t.internal else t.leaf in
  let part = ref part and p = ref 0 in
  while !p < len do
    let take = Int.min 56 (len - !p) in
    part :=
      Binarize.label_bytes t.seen counts ~start:depth ~depth:(depth + !p) take
        (r.label_bits v c d (o + !p) take)
        !part;
    p := !p + take
  done;
  !part

(* The byte in progress in the child on [b] of a node whose label ends
   at bit depth [d] with [part] in progress. *)
let branch tally d b part =
  match tally with
  | None -> 0
  | Some t -> Binarize.label_bytes t.seen t.leaf ~start:max_int ~depth:d 1 b part

(* The merged nodes, level by level, written through [w], their labels
   tallied into [tally] when there is one. *)
let merge_pass w tally (readers : reader array) =
  let k = Array.length readers in
  (* per cursor of the node at hand: its label bits left, and the bit it
     continues with (-1 when it branches here, with [ones] its β's) *)
  let rem = Array.make k 0 and bit = Array.make k 0 and ones = Array.make k 0 in
  let cur = ref (level ()) and next = ref (level ()) in
  if k > 0 then open_node !cur 0 0;
  Array.iteri (fun s r -> push_cursor !cur s 0 0 r.len) readers;
  while !cur.merged > 0 do
    let l = !cur and nx = !next in
    nx.cursors <- 0;
    nx.merged <- 0;
    for j = 0 to l.merged - 1 do
      let a = l.first.(j) and b = if j + 1 < l.merged then l.first.(j + 1) else l.cursors in
      let s0 = l.src.(a) and v0 = l.node.(a) and o0 = l.off.(a) and c0 = l.cnt.(a) in
      let r0 = readers.(s0) and depth = l.depth.(j) in
      let d0 = depth - o0 in
      if b - a = 1 then begin
        (* one source below this prefix: its node, past the label bits
           already consumed *)
        let internal = not (r0.leaf v0) in
        start_node w ~internal ~depth;
        let ones = if internal then checked_ones (r0.whole_beta w v0 c0) c0 else 0 in
        let len = r0.label_len v0 c0 d0 - o0 in
        r0.add_label w v0 c0 d0 o0 len;
        let part =
          match tally with
          | None -> 0
          | Some t -> tally_label t r0 v0 c0 d0 o0 ~depth ~internal len l.part.(j)
        in
        if internal then begin
          open_node nx (depth + len + 1) (branch tally (depth + len) 0 part);
          push_cursor nx s0 (r0.child v0 false) 0 (c0 - ones);
          open_node nx (depth + len + 1) (branch tally (depth + len) 1 part);
          push_cursor nx s0 (r0.child v0 true) 0 ones
        end
      end
      else begin
        let m = ref (r0.label_len v0 c0 d0 - o0) in
        rem.(0) <- !m;
        for i = a + 1 to b - 1 do
          let r = readers.(l.src.(i)) and v = l.node.(i) and o = l.off.(i) and c = l.cnt.(i) in
          rem.(i - a) <- r.label_len v c (depth - o) - o;
          (* the label ends where this cursor disagrees with the first *)
          let p = ref 0 and lim = ref (Int.min !m rem.(i - a)) in
          while !p < !lim do
            let take = Int.min 56 (!lim - !p) in
            let x =
              r0.label_bits v0 c0 d0 (o0 + !p) take
              lxor r.label_bits v c (depth - o) (o + !p) take
            in
            if x = 0 then p := !p + take
            else begin
              p := !p + Broadword.lowest_bit x;
              lim := !p
            end
          done;
          m := !lim
        done;
        let m = !m in
        let internal = ref false in
        for i = a to b - 1 do
          if rem.(i - a) > m || not (readers.(l.src.(i)).leaf l.node.(i)) then internal := true
        done;
        start_node w ~internal:!internal ~depth;
        if !internal then begin
          let count = ref 0 in
          for i = a to b - 1 do
            let r = readers.(l.src.(i)) and v = l.node.(i) and o = l.off.(i) and c = l.cnt.(i) in
            count := !count + c;
            if rem.(i - a) > m then begin
              bit.(i - a) <- r.label_bits v c (depth - o) (o + m) 1;
              add_run w (bit.(i - a) = 1) c
            end
            else begin
              if r.leaf v then invalid_arg "Flat_wt.merge: the strings are not prefix-free";
              bit.(i - a) <- -1;
              ones.(i - a) <- checked_ones (r.beta w v c) c
            end
          done;
          end_beta w ~len:!count
        end;
        r0.add_label w v0 c0 d0 o0 m;
        let part =
          match tally with
          | None -> 0
          | Some t -> tally_label t r0 v0 c0 d0 o0 ~depth ~internal:!internal m l.part.(j)
        in
        if !internal then
          for side = 0 to 1 do
            open_node nx (depth + m + 1) (branch tally (depth + m) side part);
            for i = a to b - 1 do
              let s = l.src.(i) and v = l.node.(i) and c = l.cnt.(i) in
              if bit.(i - a) = side then push_cursor nx s v (l.off.(i) + m + 1) c
              else if bit.(i - a) < 0 then
                push_cursor nx s
                  (readers.(s).child v (side = 1))
                  0
                  (if side = 1 then ones.(i - a) else c - ones.(i - a))
            done
          done
      end
    done;
    cur := nx;
    next := l
  done

(* The arena of [raw]'s nodes, written with whole labels, with its
   labels packed in [code] and [icode]: in one pass over the nodes as
   written, each β blob copied and each label fed again from its bit
   depth's phase.  The packed content is sized from the whole one,
   which it rarely outgrows: the two are alive together until [raw]
   is dropped. *)
let repack (raw : writer) ~set ~code ~icode ~n =
  end_label raw;
  let w =
    writer ~set ~code ~icode ~n ~nodes:raw.nodes ~bits:(Bitbuf.length raw.content + raw.room) ()
  in
  for i = 0 to raw.nodes - 1 do
    let lo = raw.starts.(i) and label = raw.kept.(i) / 9 in
    let hi = if i + 1 < raw.nodes then raw.starts.(i + 1) else Bitbuf.length raw.content in
    start_node w ~internal:(Bitbuf.get raw.topo i) ~depth:(raw.kept.(i) mod 9);
    Bitbuf.blit raw.content lo w.content (label - lo);
    let p = ref label in
    while !p < hi do
      let take = label_take w (hi - !p) in
      add_label w take (Bitbuf.get_bits raw.content !p take);
      p := !p + take
    done
  done;
  finish w ~n

(* One pass over the sources: the merged nodes are written with whole
   labels and, for byte strings, B and the labels' whole bytes are
   tallied; then the labels are packed in the codes made from those
   counts, so the arena is the one [of_array] writes.  (A pass that
   only tallied would read every source node twice; this one holds the
   whole-label content and a start per node until the repack ends.) *)
let merge_readers ~keys (readers : reader array) =
  let n = Array.fold_left (fun acc r -> acc + r.len) 0 readers in
  let raw =
    writer ~keep:(keys = Bytes) ~set:Binarize.empty_set ~code:None ~icode:None ~n ~nodes:64 ()
  in
  let tally =
    match keys with
    | Bits -> None
    | Bytes ->
        Some { seen = Bytes.make 256 '\000'; leaf = Array.make 256 0; internal = Array.make 256 0 }
  in
  merge_pass raw tally readers;
  match tally with
  | None -> finish raw ~n
  | Some t -> (
      match
        label_codes ~version:arena_version (Binarize.set_of_flags t.seen) ~leaf:t.leaf
          ~internal:t.internal
      with
      | _, None, _ -> finish raw ~n (* no byte at all: a bitstring arena *)
      | set, code, icode -> repack raw ~set ~code ~icode ~n)

let merge ~keys sources =
  Probe.time Flat_build (fun () ->
      let readers =
        Array.of_list
          (List.filter_map
             (function Arena t -> arena_reader t | Trie (m, trie) -> trie_reader m trie)
             (Array.to_list sources))
      in
      of_membuf (Membuf.of_string (merge_readers ~keys readers)))

(* Any trie through its node view: the one-source merge. *)
let of_trie (type a) ~keys (module N : Node_view.S with type trie = a) (trie : a) =
  merge ~keys [| Trie ((module N), trie) |]

let save_file t path =
  if t.closed then raise Closed;
  Probe.time Flat_save (fun () ->
      Container.write_v3 ~tag ~payload:(Membuf.to_string t.mb) path)

let open_file ?(mode = `Mmap) path =
  Trace.with_span "flat.open" (fun () ->
      match mode with
      | `Copy ->
          Probe.time Flat_open_copy (fun () ->
              of_membuf ~source:path
                (Membuf.of_string (Container.read_v3 ~expect_tag:tag path)))
      | `Mmap ->
          Probe.time Flat_open_mmap (fun () ->
              let m = Container.map_v3 ~expect_tag:tag path in
              match
                of_membuf ~source:path ~release:m.Container.close
                  (Membuf.of_bigarray m.Container.data)
              with
              | t -> t
              | exception e ->
                  m.Container.close ();
                  raise e))

(* Space split the way the serve gauges and [Stats] report it: stored
   labels, β blobs, and the directory — header, topology, node offsets
   and the content stream's final padding.  Read from the header fields,
   so it stays answerable after [close]. *)
let label_bits t = t.labels_bits
let bv_bits t = t.content_bits - t.labels_bits
let directory_bits t = (8 * Membuf.length t.mb) - t.content_bits

(* What a walk over every label finds: the internal labels' stored bits
   (end fields included) and logical bits, the logical bits of every
   label (the labels with the marker bits and whole bytes of a
   byte-string arena restored), and, per kind of packed label, leaf and
   internal, the whole bytes it codes and their codewords' bits. *)
type label_walk = {
  internal_stored : int;
  internal_logical : int;
  logical : int;
  coded : int array; (* leaf, internal *)
  coded_bits : int array;
}

let walk_labels t =
  if t.closed then raise Closed;
  let stored = ref 0 and logical = ref 0 and all = ref 0 in
  let coded = Array.make 2 0 and coded_bits = Array.make 2 0 in
  let rec go node =
    let len = Node.label_length node in
    all := !all + len;
    let kind = if Node.is_leaf node then 0 else 1 in
    if Node.label_code node <> None then begin
      (* a packed label's codeword bits: its stored bits less the raw
         bits of a first and a last byte cut by its ends *)
      let depth = node.Node.depth in
      let whole = Binarize.whole_bytes ~depth len in
      let raw = len - Binarize.markers ~depth len - (8 * whole) in
      let start = Node.label_start node in
      coded.(kind) <- coded.(kind) + whole;
      coded_bits.(kind) <- coded_bits.(kind) + Node.stored_bits node start - raw
    end;
    if kind = 1 then begin
      stored := !stored + Node.stored_label_length node;
      logical := !logical + len;
      go (Node.child node false);
      go (Node.child node true)
    end
  in
  Option.iter go (Node.root t);
  { internal_stored = !stored; internal_logical = !logical; logical = !all; coded; coded_bits }

let logical_label_bits t = (walk_labels t).logical

(* Per β code, the blobs stored in it, the β bits they hold and the
   bits they take.  One-block blobs, and every blob before version 5,
   are RRR. *)
type code_stats = { code : string; blobs : int; raw_bits : int; bits : int }

let beta_codes t =
  if t.closed then raise Closed;
  let blobs = Array.make 2 0 and raw = Array.make 2 0 and bits = Array.make 2 0 in
  let rec go node =
    if not (Node.is_leaf node) then begin
      let bv = Node.bv_of node in
      let i = match Rrr.code bv with Rrr -> 0 | Plain -> 1 in
      blobs.(i) <- blobs.(i) + 1;
      raw.(i) <- raw.(i) + Node.count node;
      bits.(i) <- bits.(i) + Rrr.space_bits bv;
      go (Node.child node false);
      go (Node.child node true)
    end
  in
  Option.iter go (Node.root t);
  List.mapi
    (fun i code -> { code; blobs = blobs.(i); raw_bits = raw.(i); bits = bits.(i) })
    [ "rrr"; "plain" ]

(* A byte code of a byte-string arena's labels: the bytes it codes,
   its shortest and longest codeword, and the whole label bytes coded in
   it and their bits. *)
type byte_code = { bytes : int; shortest : int; longest : int; uses : int; use_bits : int }

let mean_bits c = if c.uses = 0 then 0. else float_of_int c.use_bits /. float_of_int c.uses

(* What [wtrie verify] reports of an arena's layout: the β codes, label
   bits stored and logical, of all labels and of the internal ones, |B|
   (0 when labels are whole; a version-6 byte-string arena has all 256
   bytes) and the leaf labels' byte code (from version 8, the internal
   labels' too). *)
type layout = {
  codes : code_stats list;
  stored_label_bits : int;
  logical_label_bits : int;
  internal_stored_bits : int;
  internal_logical_bits : int;
  byte_set_size : int;
  leaf_code : byte_code option;
  internal_code : byte_code option;
}

let layout (t : t) =
  let l = walk_labels t in
  let byte_code kind = function
    | None -> None
    | Some c ->
        Some
          {
            bytes = Binarize.code_bytes c;
            shortest = (if Binarize.code_bytes c = 0 then 0 else Binarize.shortest c);
            longest = (if Binarize.code_bytes c = 0 then 0 else Binarize.longest c);
            uses = l.coded.(kind);
            use_bits = l.coded_bits.(kind);
          }
  in
  {
    codes = beta_codes t;
    stored_label_bits = label_bits t;
    logical_label_bits = l.logical;
    internal_stored_bits = l.internal_stored;
    internal_logical_bits = l.internal_logical;
    byte_set_size = Binarize.set_size t.set;
    leaf_code = byte_code 0 t.code;
    internal_code = byte_code 1 t.icode;
  }

(* Structural deep check (the [wtrie verify] walk): the directory's
   topology and rank samples (and, from version 4, its records and
   bodies), node offsets monotone from 0 to the content stream's end,
   each β blob inside its node's extent and passing its own check
   ([Rrr.check]: from version 5, its tag, class base and width,
   and plain rank samples), every internal β holding both bit values,
   non-empty children, every node reachable, each packed leaf label's
   stored bits ending an encoded string at the leaf's depth, each
   packed internal label's stored bits and end field naming a label at
   its depth, every bit of theirs that a codeword starts naming a byte,
   the stored label total, and, from version 7, B being exactly the
   bytes the labels spell (version 9's code lengths, only for bytes of
   B, are checked at the open).
   Raises [Failure] on the first violation, also for a read outside
   the arena. *)
let check_arena (t : t) =
  let check cond fmt =
    Printf.ksprintf (fun m -> if not cond then failwith ("flat arena: " ^ m)) fmt
  in
  let nc = t.node_count in
  let internal, offset =
    match t.dir with
    | V4 d ->
        (try Directory.check d with Failure m -> check false "%s" m);
        (Directory.internal_count d, Directory.get d)
    | V3 offs ->
        let internal = ref 0 in
        for r = 0 to ((nc + 31) / 32) - 1 do
          let rec_ = t.header + (8 * r) in
          check (Membuf.get_u32 t.mb rec_ = !internal) "topology record %d: bad rank sample" r;
          let bits = Membuf.get_u32 t.mb (rec_ + 4) in
          check
            (bits lsr min 32 (nc - (32 * r)) = 0)
            "topology record %d: bits past the last node" r;
          internal := !internal + Broadword.popcount bits
        done;
        (!internal, Offsets.get offs)
  in
  check (internal = nc / 2) "%d internal nodes, expected %d" internal (nc / 2);
  let prev = ref 0 in
  for i = 0 to nc do
    let v = offset i in
    check (v >= !prev) "node offset %d decreases" i;
    prev := v
  done;
  check (offset 0 = 0 && !prev = t.content_bits)
    "node offsets span [%d, %d], expected [0, %d]" (offset 0) !prev t.content_bits;
  match Node.root t with
  | None -> check (t.n = 0) "empty node table but length %d" t.n
  | Some root ->
      let visited = ref 0 and labels = ref 0 in
      (* the bytes the labels spell, each flagged where it first shows *)
      let set = if t.version >= 7 && t.code <> None then Some t.set else None in
      let seen = Bytes.make 256 '\000' and counts = Array.make 256 0 in
      let spell node part =
        match set with
        | None -> 0
        | Some set ->
            let idx = node.Node.idx in
            let label =
              match Node.label node with
              | l -> l
              | exception Invalid_argument m ->
                  failwith (Printf.sprintf "flat arena: node %d: %s" idx m)
            in
            let part = ref part and fresh = ref (part land 256) and p = ref 0 in
            let len = Bitstring.length label in
            while !p < len do
              let take = Int.min 56 (len - !p) in
              part :=
                Binarize.label_bytes seen counts ~start:max_int ~depth:(node.depth + !p) take
                  (Bitstring.get_bits label !p take) !part;
              fresh := !fresh lor (!part land 256);
              p := !p + take
            done;
            if !fresh <> 0 then
              for b = 0 to 255 do
                check (Bytes.get seen b = '\000' || Binarize.mem set b)
                  "node %d: byte %d is not in the byte set" idx b
              done;
            !part land 255
      in
      let rec go node part =
        incr visited;
        let stored = Node.stored_label_length node in
        labels := !labels + stored;
        (match Node.label_length node with
        | _ -> ()
        | exception Invalid_argument _ ->
            if Node.is_leaf node then
              check false "node %d: a leaf label of %d stored bits at depth %d ends no encoded string"
                node.Node.idx stored node.depth
            else
              check false
                "node %d: an internal label of %d stored bits at depth %d has no such end state"
                node.Node.idx stored node.depth);
        check (Node.count node > 0) "node %d: count 0" node.Node.idx;
        let part = spell node part in
        if not (Node.is_leaf node) then begin
          let bv = Node.bv_of node in
          (try Rrr.check bv ~version:t.version
           with Failure m -> check false "node %d: β %s" node.Node.idx m);
          check
            (Rrr.ones bv > 0 && Rrr.zeros bv > 0)
            "node %d: β holds one bit value only" node.Node.idx;
          let d = node.depth + Node.label_length node in
          let branch b = Binarize.label_bytes seen counts ~start:max_int ~depth:d 1 b part in
          go (Node.child node false) (branch 0);
          go (Node.child node true) (branch 1)
        end
      in
      go root 0;
      check (!visited = nc) "%d nodes reachable of %d" !visited nc;
      check (!labels = t.labels_bits) "labels total %d bits, header says %d" !labels
        t.labels_bits;
      Option.iter
        (fun set ->
          let spelt = Binarize.set_of_flags seen in
          for b = 0 to 255 do
            check (Binarize.mem spelt b || not (Binarize.mem set b))
              "byte %d is in the byte set but in no string" b
          done)
        set

let check_invariants t =
  if t.closed then raise Closed;
  try check_arena t with Invalid_argument m -> failwith ("flat arena: " ^ m)
