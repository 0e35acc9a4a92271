(* Pointer-free flat static Wavelet Trie — the format-v3 arena.

   The whole trie lives in one contiguous byte blob: a 56-byte header, a
   succinct node directory (topology bits with a rank sample per 32
   nodes, and one monotone sequence of node offsets), then every
   node's content — its header-free RRR bitvector blob
   ({!Wt_bitvector.Rrr.Flat}) followed by its label — as one bit
   stream.  Node counts are not stored: a child's count is its parent's
   β zeros or ones, and the root's is the sequence length.  Queries run
   directly against the blob through {!Wt_bits.Membuf} — the on-disk
   container payload *is* the in-memory query structure, so [open] is a
   checksummed header read plus an [mmap] (zero-copy, one read-only
   mapping shareable across serving processes).

   Arena layout (integers little-endian, bit streams LSB-first; N nodes
   in BFS order, I = (N - 1) / 2 of them internal; every section is
   byte-aligned and its size derived from the header):

     header (56 bytes):
       off  0  magic "WTF3" (4 bytes)
       off  4  u32 arena version (= 2)
       off  8  u64 n               sequence length (the root's count)
       off 16  u64 node_count      N
       off 24  u64 labels_bits     total label length in bits
       off 32  u64 offsets_bits    node offset stream length in bits
       off 40  u64 content_bits    content stream length in bits
       off 48  u64 arena_len       total blob size in bytes

     topology: ceil (N / 32) records of 8 bytes:
       u32 internal nodes before the record's first node
       u32 bit j set iff node 32r + j is internal
     The children of internal node i are the consecutive nodes
     [c, c + 1] with c = 2 * rank1 (internal, i) + 1.

     node offsets: N + 1 bit offsets into the content stream
       ({!Wt_succinct.Flat_offsets}: per block of 32, the first offset
       and fixed-width differences at the block's own width),
       offsets_bits bits, byte-padded.

     content: content_bits bits, byte-padded.  Node i owns
       [off i, off (i + 1)): an internal node's β blob (length = its
       count), then its label; a leaf's label alone.  A label's length
       is its extent minus the blob's.

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
module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword
module Membuf = Wt_bits.Membuf
module Rrr = Wt_bitvector.Rrr
module Offsets = Wt_succinct.Flat_offsets
module Container = Wt_durable.Container
module Probe = Wt_obs.Probe
module Trace = Wt_obs.Trace

exception Closed

let arena_magic = "WTF3"
let arena_version = 2
let header_len = 56

let tag = "static"
(* Same variant tag as the v2 static container; the two are told apart
   by the container's format-version field. *)

type t = {
  mb : Membuf.t;
  n : int;
  node_count : int;
  labels_bits : int;
  content_bits : int;
  offs : Offsets.t; (* node extents in the content stream *)
  content_bit : int; (* bit offset of the content stream *)
  source : string; (* file path when opened from storage, for errors *)
  mutable closed : bool;
  release : unit -> unit; (* backing fd, when mmap-opened *)
}

let fail fmt = Printf.ksprintf (fun m -> raise (Container.Format_error m)) fmt
let topo_len node_count = 8 * ((node_count + 31) / 32)

(* Byte offsets of the node offsets and of the content stream, and the
   arena size, all derived from the header fields. *)
let sections ~node_count ~offsets_bits ~content_bits =
  let offs = header_len + topo_len node_count in
  let content = offs + ((offsets_bits + 7) / 8) in
  (offs, content, content + ((content_bits + 7) / 8))

(* ------------------------------------------------------------------ *)
(* Building.  The trie of Definition 3.1 depends only on the distinct
   strings and the sequence, so the arena is written level by level from
   the sorted distinct keys and the sequence as key ranks, with no
   pointer trie in between.  A node is a key range [lo, hi) whose keys
   share their first [off] bits, plus the subsequence of the ranks in
   it.  A one-key range is a leaf labelled with the rest of its key.
   Otherwise the range's keys share exactly m = LCP (key lo, key hi-1)
   bits and split at bit m — keys [lo, j) continue with 0, keys [j, hi)
   with 1 — so the label is bits [off, m), β marks the ranks >= j, and a
   stable partition hands each child its subsequence.  Nodes are
   numbered in BFS order with a node's two children consecutive, zero
   child first, as the topology requires; each level's subsequences lie
   side by side in one rank array, so two arrays of n ranks serve every
   level. *)

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

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
   occurring at least once. *)
let arena_of_keys (keys : Bitstring.t array) (seq : int array) : string =
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
      (* the BFS queue: node i's key range and consumed bits; the root,
         node 0, is [0, d) at offset 0 *)
      let q_lo = Array.make node_count 0 and q_hi = Array.make node_count d in
      let q_off = Array.make node_count 0 in
      let tail = ref 1 in
      let offs = Array.make (node_count + 1) 0 in
      let topo = Bitbuf.create ~capacity_bits:node_count () in
      let content = Bitbuf.create ~capacity_bits:(4 * n) () in
      let labels_bits = ref 0 in
      let blocks = Array.make ((n / Rrr.block_bits) + 1) 0 in
      (* level L reads its subsequences from [src] and writes level L+1's
         into [dst] *)
      let spare = Array.make n 0 in
      let src = ref seq and dst = ref (Array.make n 0) in
      let rpos = ref 0 and wpos = ref 0 and level_end = ref 1 in
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
        offs.(i) <- Bitbuf.length content;
        let stop =
          if hi - lo = 1 then begin
            Bitbuf.add topo false;
            Bitstring.length key
          end
          else begin
            Bitbuf.add topo true;
            let m = Bitstring.lcp key keys.(hi - 1) in
            let j = split_point keys (lo + 1) (hi - 1) m in
            let src = !src and dst = !dst in
            let w0 = ref !wpos and w1 = ref (!wpos + cum.(j) - cum.(lo)) in
            let word = ref 0 and fill = ref 0 and nb = ref 0 in
            for k = !rpos to !rpos + count - 1 do
              let r = Array.unsafe_get src k in
              if r >= j then begin
                word := !word lor (1 lsl !fill);
                Array.unsafe_set dst !w1 r;
                incr w1
              end
              else begin
                Array.unsafe_set dst !w0 r;
                incr w0
              end;
              incr fill;
              if !fill = Rrr.block_bits then begin
                blocks.(!nb) <- !word;
                incr nb;
                word := 0;
                fill := 0
              end
            done;
            if !fill > 0 then blocks.(!nb) <- !word;
            Rrr.Flat.append_blocks content blocks ~len:count;
            wpos := !wpos + count;
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
        rpos := !rpos + count;
        labels_bits := !labels_bits + (stop - off);
        Bitstring.append_to_bitbuf (Bitstring.sub key off (stop - off)) content
      done;
      let content_bits = Bitbuf.length content in
      offs.(node_count) <- content_bits;
      let offsets = Bitbuf.create () in
      Offsets.append offsets ~universe:content_bits offs;
      let offsets_bits = Bitbuf.length offsets in
      let _, _, arena_len = sections ~node_count ~offsets_bits ~content_bits in
      let out = Buffer.create arena_len in
      Buffer.add_string out arena_magic;
      add_u32 out arena_version;
      List.iter (add_u64 out)
        [ n; node_count; !labels_bits; offsets_bits; content_bits; arena_len ];
      let internal = ref 0 in
      for r = 0 to ((node_count + 31) / 32) - 1 do
        let bits = Bitbuf.get_bits topo (32 * r) (min 32 (node_count - (32 * r))) in
        add_u32 out !internal;
        add_u32 out bits;
        internal := !internal + Broadword.popcount bits
      done;
      Bitbuf.add_to_buffer out offsets;
      Bitbuf.add_to_buffer out content;
      assert (Buffer.length out = arena_len);
      Buffer.contents out)

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
  let v = Membuf.get_u32 mb 4 in
  if v <> arena_version then
    fail "flat arena: version %d, expected %d (rebuild the index from its source)" v
      arena_version;
  if len < header_len then fail "flat arena: truncated header (%d bytes)" len;
  match
    let u64 off = Membuf.get_u64 mb off in
    (u64 8, u64 16, u64 24, u64 32, u64 40, u64 48)
  with
  | exception Invalid_argument _ -> fail "flat arena: corrupt header field"
  | n, node_count, labels_bits, offsets_bits, content_bits, arena_len ->
      if arena_len <> len then
        fail "flat arena: declared size %d, actual %d" arena_len len;
      (* bound the sections by the blob before deriving offsets, so the
         arithmetic below cannot overflow *)
      if node_count > 8 * len || offsets_bits > 8 * len || content_bits > 8 * len then
        fail "flat arena: section exceeds the blob";
      if offsets_bits < Offsets.headers_bits ~count:(node_count + 1) ~universe:content_bits
      then fail "flat arena: node offset stream too short";
      if labels_bits > content_bits then fail "flat arena: labels exceed the content stream";
      if (n = 0) <> (node_count = 0) then
        fail "flat arena: length and node count disagree on emptiness";
      if node_count > 0 && node_count land 1 = 0 then
        fail "flat arena: even node count %d (not a binary trie)" node_count;
      (* the root's β has n bits, hence 6 class bits per 62 of them *)
      if node_count > 1 && n > Rrr.block_bits * (content_bits / 6) then
        fail "flat arena: length %d exceeds what the content stream can hold" n;
      let offs, content, end_ = sections ~node_count ~offsets_bits ~content_bits in
      if end_ <> len then fail "flat arena: sections end at %d, blob is %d bytes" end_ len;
      {
        mb;
        n;
        node_count;
        labels_bits;
        content_bits;
        offs =
          Offsets.of_membuf mb ~bit:(8 * offs) ~count:(node_count + 1) ~universe:content_bits;
        content_bit = 8 * content;
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

(* ------------------------------------------------------------------ *)

module Node = struct
  type trie = t

  type node = {
    t : t;
    idx : int;
    count : int;
    irank : int; (* rank among internal nodes; -1 for a leaf *)
    mutable lo : int; (* content extent, read on first use; -1 before *)
    mutable hi : int;
    mutable bv_memo : Rrr.Flat.t option;
  }
  (* The mutable fields cache what the node has read: node values live
     within one traversal (they are created by [root]/[child] and never
     shared across domains), so the caches are domain-local by
     construction. *)

  let make t idx count =
    let rec_bit = 8 * (header_len + (8 * (idx lsr 5))) in
    let bits = Membuf.get_bits t.mb (rec_bit + 32) 32 in
    let j = idx land 31 in
    let irank =
      if bits land (1 lsl j) = 0 then -1
      else Membuf.get_bits t.mb rec_bit 32 + Broadword.popcount (bits land ((1 lsl j) - 1))
    in
    { t; idx; count; irank; lo = -1; hi = -1; bv_memo = None }

  let root (trie : trie) =
    if trie.closed then raise Closed;
    if trie.node_count = 0 then None else Some (make trie 0 trie.n)

  let length (trie : trie) =
    if trie.closed then raise Closed;
    trie.n

  let count node = node.count
  let is_leaf node = node.irank < 0

  let extent node =
    if node.lo < 0 then begin
      let lo, hi = Offsets.get2 node.t.offs node.idx in
      if lo > hi || hi > node.t.content_bits then
        invalid_arg "Flat_wt.Node: corrupt node extent";
      node.lo <- lo;
      node.hi <- hi
    end

  let bv_of node =
    match node.bv_memo with
    | Some bv -> bv
    | None ->
        if node.irank < 0 then invalid_arg "Flat_wt.Node: leaf has no bitvector";
        extent node;
        let bv = Rrr.Flat.of_membuf node.t.mb (node.t.content_bit + node.lo) ~len:node.count in
        if node.lo + Rrr.Flat.space_bits bv > node.hi then
          invalid_arg "Flat_wt.Node: β overruns its node extent";
        node.bv_memo <- Some bv;
        bv

  let label node =
    extent node;
    let start =
      if node.irank < 0 then node.lo else node.lo + Rrr.Flat.space_bits (bv_of node)
    in
    let len = node.hi - start in
    let bitpos = node.t.content_bit + start in
    let out = Bitbuf.create ~capacity_bits:len () in
    let i = ref 0 in
    while !i < len do
      let take = min 56 (len - !i) in
      Bitbuf.add_bits out take (Membuf.get_bits node.t.mb (bitpos + !i) take);
      i := !i + take
    done;
    Bitstring.unsafe_of_bitbuf out

  let child node b =
    if node.irank < 0 then invalid_arg "Flat_wt.Node.child: leaf";
    let c0 = (2 * node.irank) + 1 in
    (* child indices must increase: traversals over a corrupt table
       terminate instead of looping *)
    if c0 <= node.idx || c0 + 1 >= node.t.node_count then
      invalid_arg "Flat_wt.Node.child: corrupt child index";
    let bv = bv_of node in
    if b then make node.t (c0 + 1) (Rrr.Flat.ones bv) else make node.t c0 (Rrr.Flat.zeros bv)

  let bv_rank node b pos = Rrr.Flat.rank (bv_of node) b pos
  let bv_select node b k = Rrr.Flat.select (bv_of node) b k
  let bv_access node pos = Rrr.Flat.access (bv_of node) pos
  let bv_access_rank node pos = Rrr.Flat.access_rank (bv_of node) pos

  let iter_bits node pos =
    let it = Rrr.Flat.Iter.create (bv_of node) pos in
    fun () -> Rrr.Flat.Iter.next it

  let bv_space_bits node = Rrr.Flat.space_bits (bv_of node)

  type cursor = Rrr.Flat.Cursor.t

  let bv_cursor node = Rrr.Flat.Cursor.create (bv_of node)
  let cursor_rank = Rrr.Flat.Cursor.rank
  let cursor_access_rank = Rrr.Flat.Cursor.access_rank
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

let stats t = Q.stats ~space_bits t

(* ------------------------------------------------------------------ *)
(* Construction and storage *)

let of_keys keys seq = of_membuf (Membuf.of_string (arena_of_keys keys seq))

(* The distinct strings of [strings] sorted by [compare], and the
   sequence as ranks among them.  [H] decides equality. *)
let sorted_keys (type k) (module H : Hashtbl.S with type key = k) ~compare strings =
  let ids = H.create 1024 in
  let firsts = ref [] in
  let seq =
    Array.map
      (fun s ->
        match H.find_opt ids s with
        | Some id -> id
        | None ->
            let id = H.length ids in
            H.add ids s id;
            firsts := s :: !firsts;
            id)
      strings
  in
  let distinct = Array.of_list (List.rev !firsts) in
  let order = Array.init (Array.length distinct) Fun.id in
  Array.stable_sort (fun a b -> compare distinct.(a) distinct.(b)) order;
  let rank = Array.make (Array.length distinct) 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  Array.iteri (fun i id -> seq.(i) <- rank.(id)) seq;
  (Array.map (fun id -> distinct.(id)) order, seq)

module Bits_tbl = Hashtbl.Make (Bitstring)

let of_array strings =
  let keys, seq = sorted_keys (module Bits_tbl) ~compare:Bitstring.compare strings in
  for j = 1 to Array.length keys - 1 do
    if Bitstring.is_prefix ~prefix:keys.(j - 1) keys.(j) then
      invalid_arg "Flat_wt.of_array: string set is not prefix-free"
  done;
  of_keys keys seq

let of_list l = of_array (Array.of_list l)

(* Any trie through its node view, with no string decoded.  The leaves,
   read zero child first, are the sorted keys.  The sequence is handed
   down the trie: a node holds the root positions of its occurrences, in
   order, as one range of a position array; its β splits the range
   stably between its children, zeros first, and a leaf writes its key's
   rank at its positions.  A node's range lives in one of two arrays by
   depth parity and its children's in the other, so the walk allocates
   three arrays of n and nothing per node. *)
let of_trie (type a) (module N : Node_view.S with type trie = a) (trie : a) =
  match N.root trie with
  | None -> of_keys [||] [||]
  | Some root ->
      let n = N.count root in
      let seq = Array.make n 0 in
      let even = Array.init n Fun.id and odd = Array.make n 0 in
      let keys = ref [] and d = ref 0 in
      let path = Bitbuf.create () in
      let rec go node depth lo =
        let here = Bitbuf.length path in
        Bitstring.append_to_bitbuf (N.label node) path;
        let src, dst = if depth land 1 = 0 then (even, odd) else (odd, even) in
        let hi = lo + N.count node in
        if N.is_leaf node then begin
          keys := Bitstring.of_bitbuf path :: !keys;
          for k = lo to hi - 1 do
            seq.(src.(k)) <- !d
          done;
          incr d
        end
        else begin
          let zero = N.child node false in
          let mid = lo + N.count zero in
          let next = N.iter_bits node 0 and w0 = ref lo and w1 = ref mid in
          for k = lo to hi - 1 do
            let w = if next () then w1 else w0 in
            dst.(!w) <- src.(k);
            incr w
          done;
          let stop = Bitbuf.length path in
          Bitbuf.add path false;
          go zero (depth + 1) lo;
          Bitbuf.truncate path stop;
          Bitbuf.add path true;
          go (N.child node true) (depth + 1) mid
        end;
        Bitbuf.truncate path here
      in
      go root 0 0;
      of_keys (Array.of_list (List.rev !keys)) seq

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

(* Space split the way the serve gauges and [Stats] report it: labels,
   β blobs, and the directory — header, topology, node offsets and the
   content stream's final padding.  Read from the header fields, so it
   stays answerable after [close]. *)
let label_bits t = t.labels_bits
let bv_bits t = t.content_bits - t.labels_bits
let directory_bits t = (8 * Membuf.length t.mb) - t.content_bits

(* Structural deep check (the [wtrie verify] walk): topology records
   and their rank samples, node offsets monotone from 0 to the content
   stream's end, each β blob inside its node's extent, non-empty
   children, every node reachable, and the label total.  Raises
   [Failure] on the first violation. *)
let check_invariants t =
  if t.closed then raise Closed;
  let check cond fmt =
    Printf.ksprintf (fun m -> if not cond then failwith ("flat arena: " ^ m)) fmt
  in
  let nc = t.node_count in
  let internal = ref 0 in
  for r = 0 to ((nc + 31) / 32) - 1 do
    let rec_ = header_len + (8 * r) in
    check (Membuf.get_u32 t.mb rec_ = !internal) "topology record %d: bad rank sample" r;
    let bits = Membuf.get_u32 t.mb (rec_ + 4) in
    check (bits lsr min 32 (nc - (32 * r)) = 0) "topology record %d: bits past the last node" r;
    internal := !internal + Broadword.popcount bits
  done;
  check (!internal = nc / 2) "%d internal nodes, expected %d" !internal (nc / 2);
  let prev = ref 0 in
  for i = 0 to nc do
    let v = Offsets.get t.offs i in
    check (v >= !prev) "node offset %d decreases" i;
    prev := v
  done;
  check (Offsets.get t.offs 0 = 0 && !prev = t.content_bits)
    "node offsets span [%d, %d], expected [0, %d]" (Offsets.get t.offs 0) !prev t.content_bits;
  match Node.root t with
  | None -> check (t.n = 0) "empty node table but length %d" t.n
  | Some root ->
      let visited = ref 0 and labels = ref 0 in
      let rec go node =
        incr visited;
        labels := !labels + Bitstring.length (Node.label node);
        check (Node.count node > 0) "node %d: count 0" node.Node.idx;
        if not (Node.is_leaf node) then begin
          go (Node.child node false);
          go (Node.child node true)
        end
      in
      go root;
      check (!visited = nc) "%d nodes reachable of %d" !visited nc;
      check (!labels = t.labels_bits) "labels total %d bits, header says %d" !labels
        t.labels_bits
