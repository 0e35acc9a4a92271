module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword
module Probe = Wt_obs.Probe

let block_bits = 62
let class_bits = 6
let sb_blocks = 16
let sb_bits = block_bits * sb_blocks

(* Pascal's triangle up to n = 62, flat: [binom.((n lsl 6) lor k)] is
   C(n, k) for k <= 63, 0 when k > n.  C(62,31) = 4.7e17 < max_int. *)
let binom =
  let t = Array.make ((block_bits + 1) lsl 6) 0 in
  for n = 0 to block_bits do
    t.(n lsl 6) <- 1;
    for k = 1 to n do
      t.((n lsl 6) lor k) <- t.(((n - 1) lsl 6) lor (k - 1)) + t.(((n - 1) lsl 6) lor k)
    done
  done;
  t

(* Every caller keeps [n] in [0, 62] and [k] in [0, 63]. *)
let[@inline] choose n k = Array.unsafe_get binom ((n lsl 6) lor k)

(* A width no blob can hold: see [widths]. *)
let bad_width = 1 lsl 40

(* [widths.((m lsl 7) lor c)]: the offset width of a class-[c] block
   coded over [m] positions, ceil(log2 C(m, c)), 0 for the singleton
   classes.  A class above [m] occurs only in a corrupt blob (up to 125:
   a 6-bit base plus a 6-bit field); it gets [bad_width], so reading
   its offset or adding it to a stream length fails a bounds check
   instead of decoding. *)
let widths =
  Array.init ((block_bits + 1) lsl 7) (fun i ->
      let m = i lsr 7 and c = i land 127 in
      if c > m then bad_width
      else
        let count = choose m c in
        if count <= 1 then 0 else Broadword.bit_width (count - 1))

(* [m] in [0, 62], [c] in [0, 127]. *)
let[@inline] width m c = Array.unsafe_get widths ((m lsl 7) lor c)
let[@inline] offset_width c = width block_bits c

(* Probes whose switch is read here, so a disabled probe costs a load,
   not a call.  Unranking records the positions it steps through as
   [Rrr_unrank]. *)
let[@inline] hit m = if Atomic.get Probe.on then Probe.hit m
let[@inline] count_unrank steps = if Atomic.get Probe.on then Probe.record Rrr_unrank steps

(* Rank of [bits] (an [m]-bit pattern with popcount [c]) in the
   combinatorial enumeration: scanning positions from 0, a set bit at
   position i with r ones still to place skips C(m-1-i, r) patterns
   (those with a 0 there and r ones in the remaining m-1-i bits).  Only
   the set bits are visited, the lowest found as the popcount below
   it. *)
let encode_offset m bits c =
  let off = ref 0 in
  let r = ref c in
  let bits = ref bits in
  while !r > 0 do
    let low = !bits land - !bits in
    off := !off + choose (m - 1 - Broadword.popcount (low - 1)) !r;
    decr r;
    bits := !bits lxor low
  done;
  !off

(* The inverse over [m] positions.  At a position with as many ones
   left to place as positions left, the skip is C(n, r) = 0 with n < r
   and the position takes a one, so even an out-of-range offset stops
   before position m. *)
let decode_offset m off c =
  let bits = ref 0 in
  let off = ref off in
  let r = ref c in
  let i = ref 0 in
  while !r > 0 do
    let skip = choose (m - 1 - !i) !r in
    if !off >= skip then begin
      off := !off - skip;
      bits := !bits lor (1 lsl !i);
      decr r
    end;
    incr i
  done;
  count_unrank !i;
  !bits

(* The same unranking stopped at position [r] of [m] (cheaper than
   decoding the whole block): the ones before [r], times two, plus the
   bit at [r] (0 when [r = m]). *)
let unrank_to m off c r =
  let off = ref off in
  let rem = ref c in
  let i = ref 0 in
  while !i < r && !rem > 0 do
    let skip = choose (m - 1 - !i) !rem in
    if !off >= skip then begin
      off := !off - skip;
      decr rem
    end;
    incr i
  done;
  count_unrank !i;
  let bit = !rem > 0 && r < m && !off >= choose (m - 1 - r) !rem in
  ((c - !rem) lsl 1) lor Bool.to_int bit

let nblocks_of_len len = (len + block_bits - 1) / block_bits

let decode_full_block c off = decode_offset block_bits off c

(* ------------------------------------------------------------------ *)
(* The blob: one bitvector, bit-packed and queried in place through
   {!Wt_bits.Membuf}.  This is the inline bitvector encoding of the
   format-v3 arena ([Wt_core.Flat_wt]), so no deserialization: the
   on-disk bits are the query structure.  Other owners keep a blob in a
   private buffer ({!of_blob}).

   The blob has no length field and no alignment.  Its length [len] is
   known to its owner (an arena node's count), and [nblocks]/[nsb]
   follow from it, as does the tail r = len - 62 (nblocks - 1), the
   length of the last block.  One LSB-first bit stream.  A one-block
   blob (len <= 62) is its RRR payload:

     class       bit_width r bits
     offset      ceil(log2 C(r, c)) bits

   A longer blob starts with a one-bit code tag and is stored in the
   smaller of two codes, ties going to plain.  Class-range RRR (tag 0):

     base        6 bits: the least class, cmin
     width       3 bits: cw = bit_width (cmax - cmin)
     directory   only when nsb > 1: for sb = 1 .. nsb, two fields of
                 w = bit_width (64 * nblocks) bits: the ones before
                 superblock sb and the offset-stream bit position of
                 superblock sb (sb = nsb holds the totals; sb = 0 is
                 implicitly (0, 0))
     classes     nblocks x cw bits, each class minus cmin
     offsets     variable-width offsets, concatenated: a full block's
                 over 62 positions, the last block's over its r

   Plain (tag 1):

     samples     for j = 1 .. ceil (len / 512), the ones before bit
                 min (512 j, len), in bit_width len bits each (the last
                 one is the total)
     bits        the len raw bits

   An RRR blob of at most 16 blocks has no directory: its total ones
   and offset-stream length are the sums over its classes, taken when
   the view is opened.  A plain rank is one sample plus popcounts, with
   no unranking.

   That is arena versions 5 to 9 (6 to 9 changed only labels).
   Versions 3 and 4 stored every blob as RRR with no tag, no base and 6
   bits per class.  Version 2 also coded the last block over 62
   positions like the others (so a one-block blob's class took 6 bits);
   such a blob is read as one whose tail is 62 long.  The view keeps the
   base, the class width and the length the last block is coded over,
   so one decoder reads all four. *)
module Membuf = Wt_bits.Membuf

type code = Rrr | Plain

let newest_version = 9

(* As many fields as a view had before version 5: the batch engine
   makes one per node it visits. *)
type t = {
  mb : Membuf.t;
  len : int;
  total_ones : int;
  tail : int; (* positions the last block is coded over *)
  dir_bit : int; (* bit offset of the RRR directory, or of the plain samples *)
  dir_w : int; (* their field width; 0 when an RRR blob has no directory *)
  classes_bit : int; (* bit offset of the classes stream *)
  cls : int; (* (cbase lsl 3) lor cw: block i's class is cbase plus its
                cw-bit field; -1 for a plain blob *)
  offsets_bit : int; (* bit offset of the offsets stream, or of the raw bits *)
  bits : int; (* blob length in bits *)
}

let[@inline] plain t = t.cls < 0
let[@inline] cbase t = t.cls lsr 3
let[@inline] cw t = t.cls land 7
let nblocks t = nblocks_of_len t.len

let nsb_of_nblocks nblocks = (nblocks + sb_blocks - 1) / sb_blocks

(* Both directory fields are bounded by 64 bits per block: a block
   holds at most 62 ones and its offset at most 59 bits. *)
let dir_width nblocks =
  if nsb_of_nblocks nblocks > 1 then Broadword.bit_width (64 * nblocks) else 0

(* The class width of a one-block blob whose tail is [r] bits long:
   [bit_width r]. *)
let tail_class_bits = Array.init (block_bits + 1) Broadword.bit_width

(* The code tag, class base and class width in front of a class-range
   RRR blob. *)
let head_bits = 10

(* Plain blobs: one rank sample per [sample_bits] bits. *)
let sample_bits = 512
let nsamples len = (len + sample_bits - 1) / sample_bits
let plain_size len = 1 + (nsamples len * Broadword.bit_width len) + len

(* Class fields per Membuf read at class width [cw]: at most 60 bits. *)
let per_read = [| 0; 60; 30; 20; 15; 12; 10 |]

(* Each block's offset is taken here, unless an {!Encoder} took it
   already ([offs]). *)
let write_offsets bb blocks offs ~last ~tail =
  for blk = 0 to last do
    let c = Broadword.popcount blocks.(blk) and m = if blk = last then tail else block_bits in
    let w = width m c in
    if w > 0 then
      Bitbuf.add_bits bb w
        (match offs with Some o -> o.(blk) | None -> encode_offset m blocks.(blk) c)
  done

(* The one blob writer: the blob of a [len]-bit bitvector given as its
   62-bit blocks ([blocks.(i)] holds bits [62i, 62i + 62), LSB first,
   zero past [len]).  The classes (popcounts) and offset widths price
   both codes; then the chosen one is written. *)
let write code bb blocks offs ~len =
  let nblocks = nblocks_of_len len in
  let last = nblocks - 1 in
  let tail = len - (block_bits * last) in
  if nblocks = 1 then begin
    Bitbuf.add_bits bb tail_class_bits.(tail) (Broadword.popcount blocks.(0));
    write_offsets bb blocks offs ~last ~tail
  end
  else if nblocks > 1 then begin
    let cmin = ref block_bits and cmax = ref 0 and off_bits = ref 0 in
    for blk = 0 to last do
      let c = Broadword.popcount blocks.(blk) in
      cmin := Int.min !cmin c;
      cmax := Int.max !cmax c;
      off_bits := !off_bits + width (if blk = last then tail else block_bits) c
    done;
    let cw = Broadword.bit_width (!cmax - !cmin) in
    let w = dir_width nblocks in
    let rrr = head_bits + (2 * w * nsb_of_nblocks nblocks) + (nblocks * cw) + !off_bits in
    let code =
      match code with Some c -> c | None -> if plain_size len <= rrr then Plain else Rrr
    in
    match code with
    | Plain ->
        Bitbuf.add_bits bb 1 1;
        let sw = Broadword.bit_width len in
        (* [ones]: the ones in blocks before [blk] *)
        let ones = ref 0 and blk = ref 0 in
        for j = 1 to nsamples len do
          let p = Int.min (j * sample_bits) len in
          while (!blk + 1) * block_bits <= p do
            ones := !ones + Broadword.popcount blocks.(!blk);
            incr blk
          done;
          let r = p - (!blk * block_bits) in
          Bitbuf.add_bits bb sw
            (if r = 0 then !ones
             else !ones + Broadword.popcount (blocks.(!blk) land Broadword.mask r))
        done;
        for blk = 0 to last do
          Bitbuf.add_bits bb (if blk = last then tail else block_bits) blocks.(blk)
        done
    | Rrr ->
        Bitbuf.add_bits bb head_bits ((cw lsl 7) lor (!cmin lsl 1));
        if w > 0 then begin
          let ones = ref 0 and off = ref 0 in
          for blk = 0 to last do
            let c = Broadword.popcount blocks.(blk) in
            ones := !ones + c;
            off := !off + width (if blk = last then tail else block_bits) c;
            if (blk + 1) mod sb_blocks = 0 || blk = last then begin
              Bitbuf.add_bits bb w !ones;
              Bitbuf.add_bits bb w !off
            end
          done
        end;
        if cw > 0 then begin
          let blk = ref 0 in
          while !blk < nblocks do
            let k = Int.min per_read.(cw) (nblocks - !blk) in
            let word = ref 0 in
            for i = k - 1 downto 0 do
              word := (!word lsl cw) lor (Broadword.popcount blocks.(!blk + i) - !cmin)
            done;
            Bitbuf.add_bits bb (k * cw) !word;
            blk := !blk + k
          done
        end;
        write_offsets bb blocks offs ~last ~tail
  end

let append_blocks ?code bb blocks ~len =
  let nblocks = nblocks_of_len len in
  if nblocks > 0 && blocks.(nblocks - 1) lsr (len - (block_bits * (nblocks - 1))) <> 0 then
    invalid_arg "Rrr.append_blocks: bits past the length";
  write code bb blocks None ~len

(* Ones and offset-stream bits of full blocks [lo, hi) of a class
   stream at [classes_bit] ([cbase] plus [cw] bits per class), added
   to [ones] and [off]: one Membuf read per [per_read.(cw)] classes. *)
let walk_classes mb classes_bit cbase cw lo hi ones off =
  if cw = 0 then (ones + ((hi - lo) * cbase), off + ((hi - lo) * offset_width cbase))
  else begin
    let ones = ref ones and off = ref off and blk = ref lo in
    let mask = (1 lsl cw) - 1 and per = Array.unsafe_get per_read cw in
    while !blk < hi do
      let k = Int.min per (hi - !blk) in
      let w = ref (Membuf.get_bits mb (classes_bit + (!blk * cw)) (k * cw)) in
      for _ = 1 to k do
        let c = cbase + (!w land mask) in
        ones := !ones + c;
        off := !off + offset_width c;
        w := !w lsr cw
      done;
      blk := !blk + k
    done;
    (!ones, !off)
  end

let class_at mb classes_bit cbase cw blk =
  if cw = 0 then cbase else cbase + Membuf.get_bits mb (classes_bit + (blk * cw)) cw

let rrr_view mb ~start ~dir_bit ~len ~nblocks ~tail ~cbase ~cw =
  let last = nblocks - 1 in
  let nsb = nsb_of_nblocks nblocks in
  let dir_w = dir_width nblocks in
  let classes_bit = dir_bit + (if dir_w > 0 then 2 * dir_w * nsb else 0) in
  let offsets_bit = classes_bit + (nblocks * cw) in
  let total_ones, off_bits =
    if dir_w > 0 then begin
      let last = dir_bit + ((nsb - 1) * 2 * dir_w) in
      (Membuf.get_bits mb last dir_w, Membuf.get_bits mb (last + dir_w) dir_w)
    end
    else if nblocks = 0 then (0, 0)
    else begin
      let ones, off = walk_classes mb classes_bit cbase cw 0 last 0 0 in
      let c = class_at mb classes_bit cbase cw last in
      (ones + c, off + width tail c)
    end
  in
  if total_ones > len then invalid_arg "Rrr: ones exceed length";
  let bits = offsets_bit + off_bits - start in
  if start + bits > 8 * Membuf.length mb then invalid_arg "Rrr: blob truncated";
  {
    mb;
    len;
    total_ones;
    tail;
    dir_bit;
    dir_w;
    classes_bit;
    cls = (cbase lsl 3) lor cw;
    offsets_bit;
    bits;
  }

let plain_view mb ~start ~len ~tail =
  let sw = Broadword.bit_width len and dir_bit = start + 1 in
  let data = dir_bit + (nsamples len * sw) in
  let total_ones = Membuf.get_bits mb (data - sw) sw in
  if total_ones > len then invalid_arg "Rrr: ones exceed length";
  let bits = data + len - start in
  if start + bits > 8 * Membuf.length mb then invalid_arg "Rrr: blob truncated";
  {
    mb;
    len;
    total_ones;
    tail;
    dir_bit;
    dir_w = sw;
    classes_bit = data;
    cls = -1;
    offsets_bit = data;
    bits;
  }

(* [of_membuf mb bit ~len ~version]: a view of the [len]-bit blob
   starting at bit [bit], written by arena version [version].  Reads
   at most three words (the code tag and class range, then the
   directory totals, the last plain sample or the classes of a
   single-superblock blob); every later read is bounds-checked by
   [Membuf], so a corrupt blob raises [Invalid_argument] instead of
   reading out of range. *)
let of_membuf mb bit ~len ~version =
  if len < 0 || bit < 0 then invalid_arg "Rrr: negative length or offset";
  if version < 2 || version > newest_version then invalid_arg "Rrr: unknown arena version";
  let nblocks = nblocks_of_len len in
  let tail = if version = 2 then block_bits else len - (block_bits * (nblocks - 1)) in
  if version >= 5 && nblocks > 1 then begin
    let head = Membuf.get_bits mb bit head_bits in
    if head land 1 = 1 then plain_view mb ~start:bit ~len ~tail
    else begin
      let cbase = (head lsr 1) land 63 and cw = head lsr 7 in
      if cbase > block_bits then invalid_arg "Rrr: class base above 62";
      if cw > class_bits then invalid_arg "Rrr: class width above 6";
      rrr_view mb ~start:bit ~dir_bit:(bit + head_bits) ~len ~nblocks ~tail ~cbase ~cw
    end
  end
  else
    rrr_view mb ~start:bit ~dir_bit:bit ~len ~nblocks ~tail ~cbase:0
      ~cw:(if nblocks = 1 then tail_class_bits.(tail) else class_bits)

(* Eight zero bytes after the blob keep every read on [Membuf]'s
   one-load path. *)
let of_blob bb ~len =
  let buf = Buffer.create (((Bitbuf.length bb + 7) / 8) + 8) in
  Bitbuf.add_to_buffer buf bb;
  Buffer.add_string buf "\000\000\000\000\000\000\000\000";
  of_membuf (Membuf.of_string (Buffer.contents buf)) 0 ~len ~version:newest_version

(* Resumable encoding, for Section 4.1's de-amortization: the paper
   builds a filled segment's RRR "in O(n'/log n) steps ... interleaved
   with other operations".  Each [step] takes the blocks and offsets of
   a few more blocks into the encoder's own arrays; [write] then lays
   the blob out with [append_blocks]' writer, which keeps no state
   between calls, so an arena built between two steps leaves the
   encoder alone. *)
module Encoder = struct
  type t = {
    src : Bitbuf.t;
    blocks : int array; (* the source's 62-bit blocks *)
    offs : int array; (* their offsets, over the positions each is coded over *)
    mutable next : int; (* the first block not yet taken *)
  }

  let create src =
    let n = nblocks_of_len (Bitbuf.length src) in
    { src; blocks = Array.make n 0; offs = Array.make n 0; next = 0 }

  let finished e = e.next = Array.length e.blocks

  (* Only the last block is short, and it is coded over its length. *)
  let step e k =
    let stop = e.next + Int.min k (Array.length e.blocks - e.next) in
    for blk = e.next to stop - 1 do
      let pos = blk * block_bits in
      let m = Int.min block_bits (Bitbuf.length e.src - pos) in
      let bits = Bitbuf.get_bits e.src pos m in
      let c = Broadword.popcount bits in
      e.blocks.(blk) <- bits;
      if width m c > 0 then e.offs.(blk) <- encode_offset m bits c
    done;
    e.next <- stop

  let write e bb =
    if not (finished e) then invalid_arg "Rrr.Encoder.write: blocks left to step";
    write None bb e.blocks (Some e.offs) ~len:(Bitbuf.length e.src)
end

let of_bitbuf buf =
  let e = Encoder.create buf in
  Encoder.step e max_int;
  let bb = Bitbuf.create ~capacity_bits:(Bitbuf.length buf + 64) () in
  Encoder.write e bb;
  of_blob bb ~len:(Bitbuf.length buf)

let length t = t.len
let ones t = t.total_ones
let zeros t = t.len - t.total_ones
let space_bits t = t.bits
let code t = if plain t then Plain else Rrr

let class_of t blk = class_at t.mb t.classes_bit (cbase t) (cw t) blk

(* Positions block [blk] is coded over. *)
let block_m t blk = if (blk + 1) * block_bits >= t.len then t.tail else block_bits

let block_len t blk = Int.min block_bits (t.len - (blk * block_bits))

(* An RRR block [blk], of class [c], with its offset at [off_pos]:
   decoded ([decode_block]), or unranked up to position [r]
   ([unrank_block], as [unrank_to]). *)
let decode_block t blk off_pos c =
  let m = block_m t blk in
  let w = width m c in
  if w = 0 then if c = 0 then 0 else Broadword.mask m
  else decode_offset m (Membuf.get_bits t.mb (t.offsets_bit + off_pos) w) c

let unrank_block t blk off_pos c r =
  let m = block_m t blk in
  let w = width m c in
  if w = 0 then if c = 0 then 0 else (r lsl 1) lor 1
  else unrank_to m (Membuf.get_bits t.mb (t.offsets_bit + off_pos) w) c r

(* A plain blob's rank sample [j >= 1]: the ones before bit
   [min (512 j, len)]. *)
let sample t j = Membuf.get_bits t.mb (t.dir_bit + ((j - 1) * t.dir_w)) t.dir_w

(* The ones among a plain blob's bits [p, p + n). *)
let plain_ones t p n = Membuf.popcount t.mb (t.offsets_bit + p) n

let plain_rank1 t pos =
  let j = pos / sample_bits in
  let p = j * sample_bits in
  (if j = 0 then 0 else sample t j) + plain_ones t p (pos - p)

(* Block [blk], decoded, its offset (if RRR) at [off_pos]. *)
let block t blk off_pos =
  if plain t then Membuf.get_bits t.mb (t.offsets_bit + (blk * block_bits)) (block_len t blk)
  else decode_block t blk off_pos (class_of t blk)

(* The offset-stream position of block [blk + 1], given block
   [blk]'s, which is full. *)
let next_off t blk off_pos = if plain t then 0 else off_pos + offset_width (class_of t blk)

let iter_blocks t f =
  let off = ref 0 in
  for blk = 0 to nblocks t - 1 do
    f (block t blk !off);
    if not (plain t) then off := !off + width (block_m t blk) (class_of t blk)
  done

let dir_ones t sb =
  if sb = 0 then 0 else Membuf.get_bits t.mb (t.dir_bit + ((sb - 1) * 2 * t.dir_w)) t.dir_w

let dir_off t sb =
  if sb = 0 then 0
  else Membuf.get_bits t.mb (t.dir_bit + ((sb - 1) * 2 * t.dir_w) + t.dir_w) t.dir_w

(* Ones before block [target] and its offset-stream position; only
   full blocks precede it.  A superblock's two directory fields are
   one read when they fit 62 bits. *)
let walk_to_block t target =
  if plain t then (plain_rank1 t (target * block_bits), 0)
  else
    let sb = target / sb_blocks and w = t.dir_w in
    let mb = t.mb and at = t.classes_bit and first = sb * sb_blocks in
    if sb = 0 then walk_classes mb at (cbase t) (cw t) 0 target 0 0
    else if w <= 31 then begin
      let d = Membuf.get_bits mb (t.dir_bit + ((sb - 1) * 2 * w)) (2 * w) in
      walk_classes mb at (cbase t) (cw t) first target (d land ((1 lsl w) - 1)) (d lsr w)
    end
    else walk_classes mb at (cbase t) (cw t) first target (dir_ones t sb) (dir_off t sb)

(* The same from block [lo], whose ones before and offset position
   are [ones] and [off]. *)
let walk t lo hi ones off =
  if plain t then (ones + plain_ones t (lo * block_bits) ((hi - lo) * block_bits), 0)
  else walk_classes t.mb t.classes_bit (cbase t) (cw t) lo hi ones off

(* The first block needs no walk: most blobs have only one. *)
let rank1 t pos =
  if pos = 0 then 0
  else if pos = t.len then t.total_ones
  else if plain t then plain_rank1 t pos
  else if pos < block_bits then unrank_block t 0 0 (class_of t 0) pos lsr 1
  else begin
    let blk = pos / block_bits in
    let ones, off = walk_to_block t blk in
    let r = pos mod block_bits in
    if r = 0 then ones else ones + (unrank_block t blk off (class_of t blk) r lsr 1)
  end

let rank t b pos =
  Fid.check_rank_pos ~who:"Rrr" ~len:t.len pos;
  hit Rrr_rank;
  if b then rank1 t pos else pos - rank1 t pos

(* The bit at [pos] plus twice the ones before it. *)
let unrank t pos =
  if plain t then
    (plain_rank1 t pos lsl 1) lor Membuf.get_bits t.mb (t.offsets_bit + pos) 1
  else if pos < block_bits then unrank_block t 0 0 (class_of t 0) pos
  else begin
    let blk = pos / block_bits in
    let ones, off = walk_to_block t blk in
    (ones lsl 1) + unrank_block t blk off (class_of t blk) (pos mod block_bits)
  end

let access t pos =
  Fid.check_access_pos ~who:"Rrr" ~len:t.len pos;
  hit Rrr_access;
  if plain t then Membuf.get_bits t.mb (t.offsets_bit + pos) 1 = 1
  else if pos < block_bits then unrank_block t 0 0 (class_of t 0) pos land 1 = 1
  else begin
    let blk = pos / block_bits in
    let _, off = walk_to_block t blk in
    unrank_block t blk off (class_of t blk) (pos mod block_bits) land 1 = 1
  end

let access_rank t pos =
  Fid.check_access_pos ~who:"Rrr" ~len:t.len pos;
  hit Rrr_access;
  let x = unrank t pos in
  let b = x land 1 = 1 in
  let r1 = x lsr 1 in
  (b, if b then r1 else pos - r1)

(* A plain select: the last sample at most [k], then the raw bits from
   there, 56 at a time.  A corrupt sample can send the scan past its
   512 bits; that raises instead of reading on. *)
let plain_select t b k =
  let count_before j =
    if j = 0 then 0 else if b then sample t j else (j * sample_bits) - sample t j
  in
  let lo = ref 0 and hi = ref (nsamples t.len) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if count_before mid <= k then lo := mid else hi := mid
  done;
  let remaining = ref (k - count_before !lo) in
  let p = ref (!lo * sample_bits) in
  let stop = Int.min t.len (!p + sample_bits) in
  let found = ref (-1) in
  while !found < 0 do
    if !p >= stop then invalid_arg "Rrr: corrupt rank sample";
    let n = Int.min 56 (stop - !p) in
    let word = Membuf.get_bits t.mb (t.offsets_bit + !p) n in
    let c = if b then Broadword.popcount word else n - Broadword.popcount word in
    if !remaining < c then
      found :=
        !p
        + (if b then Broadword.select_in_word word !remaining
           else Broadword.select0_in_word word n !remaining)
    else begin
      remaining := !remaining - c;
      p := !p + n
    end
  done;
  !found

let select t b k =
  let count = if b then t.total_ones else zeros t in
  Fid.check_select_idx ~who:"Rrr" ~count k;
  hit Rrr_select;
  if plain t then plain_select t b k
  else begin
    let nsb = nsb_of_nblocks (nblocks t) in
    let count_before sb =
      if b then dir_ones t sb else Int.min t.len (sb * sb_bits) - dir_ones t sb
    in
    let lo = ref 0 and hi = ref nsb in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if count_before mid <= k then lo := mid else hi := mid
    done;
    let sb = !lo in
    let remaining = ref (k - count_before sb) in
    let blk = ref (sb * sb_blocks) in
    let off = ref (dir_off t sb) in
    let block_count blk =
      let c = class_of t blk in
      if b then c else block_len t blk - c
    in
    let c = ref (block_count !blk) in
    while !remaining >= !c do
      remaining := !remaining - !c;
      off := !off + width (block_m t !blk) (class_of t !blk);
      incr blk;
      c := block_count !blk
    done;
    let bits = decode_block t !blk !off (class_of t !blk) in
    let inblock =
      if b then Broadword.select_in_word bits !remaining
      else Broadword.select0_in_word bits (block_len t !blk) !remaining
    in
    (!blk * block_bits) + inblock
  end

(* The deep check behind [Flat_wt.check_invariants], for a blob
   written at arena version [version]: every block decodes, each class
   fits its block's positions and each offset is in range, the
   directory matches the classes, and from version 5 on the blob is bit
   for bit what [append_blocks] writes from its bits — which pins its
   tag, class base and width and plain rank samples too.  Raises
   [Failure]. *)
let check t ~version =
  let fail fmt = Printf.ksprintf failwith fmt in
  let blocks = Array.make (nblocks t + 1) 0 in
  if plain t then
    for blk = 0 to nblocks t - 1 do
      blocks.(blk) <- block t blk 0
    done
  else begin
    let ones = ref 0 and off = ref 0 in
    let directory sb =
      if t.dir_w > 0 && sb > 0 && (dir_ones t sb <> !ones || dir_off t sb <> !off) then
        fail "superblock sample %d is (%d, %d), the classes give (%d, %d)" sb (dir_ones t sb)
          (dir_off t sb) !ones !off
    in
    for blk = 0 to nblocks t - 1 do
      if blk mod sb_blocks = 0 then directory (blk / sb_blocks);
      let c = class_of t blk and m = block_m t blk in
      if c > m then fail "block %d: class %d over %d positions" blk c m;
      let w = width m c in
      let bits = decode_block t blk !off c in
      if w > 0 && encode_offset m bits c <> Membuf.get_bits t.mb (t.offsets_bit + !off) w then
        fail "block %d: offset out of range" blk;
      blocks.(blk) <- bits;
      ones := !ones + c;
      off := !off + w
    done;
    directory (nsb_of_nblocks (nblocks t));
    if !ones <> t.total_ones then fail "%d ones, the classes give %d" t.total_ones !ones
  end;
  if version >= 5 then begin
    let bb = Bitbuf.create ~capacity_bits:t.bits () in
    append_blocks bb blocks ~len:t.len;
    let start =
      if plain t then t.dir_bit - 1
      else if nblocks t > 1 then t.dir_bit - head_bits
      else t.dir_bit
    in
    let p = ref 0 and n = Bitbuf.length bb in
    if n <> t.bits then fail "%d bits, the encoding of its bits takes %d" t.bits n;
    while !p < n do
      let k = Int.min 56 (n - !p) in
      if Bitbuf.get_bits bb !p k <> Membuf.get_bits t.mb (start + !p) k then
        fail "bits %d to %d differ from the encoding of its bits" !p (!p + k);
      p := !p + k
    done
  end

(* Rank cursor: the last decoded block and the ones and offset-stream
   position before it, in 62-bit blocks for either code.  A short
   forward step walks only the classes in between; anything else
   repositions from the directory, as a from-scratch query does. *)
module Cursor = struct
  type nonrec bv = t [@@warning "-34"]

  type t = {
    bv : bv;
    mutable blk : int; (* decoded block index, or -1 *)
    mutable bits : int; (* decoded contents of block [blk] *)
    mutable ones_before : int; (* ones in blocks [0, blk) *)
    mutable off : int; (* offset-stream position of block [blk] *)
  }

  let create bv = { bv; blk = -1; bits = 0; ones_before = 0; off = 0 }

  let seek t blk =
    if blk = t.blk then hit Bv_cursor_hit
    else begin
      let ones, off =
        if t.blk >= 0 && blk > t.blk && blk - t.blk <= sb_blocks then begin
          hit Bv_cursor_hit;
          walk t.bv t.blk blk t.ones_before t.off
        end
        else begin
          hit Bv_cursor_miss;
          walk_to_block t.bv blk
        end
      in
      t.ones_before <- ones;
      t.off <- off;
      t.blk <- blk;
      t.bits <- block t.bv blk t.off
    end

  let rank1 t pos =
    if pos <= 0 then 0
    else begin
      let blk = pos / block_bits in
      if blk * block_bits >= t.bv.len then t.bv.total_ones
      else begin
        seek t blk;
        t.ones_before
        + Broadword.popcount (t.bits land Broadword.mask (pos mod block_bits))
      end
    end

  let rank t b pos =
    Fid.check_rank_pos ~who:"Rrr.Cursor" ~len:t.bv.len pos;
    hit Rrr_rank;
    let r1 = rank1 t pos in
    if b then r1 else pos - r1

  let access_rank t pos =
    Fid.check_access_pos ~who:"Rrr.Cursor" ~len:t.bv.len pos;
    hit Rrr_access;
    seek t (pos / block_bits);
    let r = pos mod block_bits in
    let b = t.bits land (1 lsl r) <> 0 in
    let r1 = t.ones_before + Broadword.popcount (t.bits land Broadword.mask r) in
    (b, if b then r1 else pos - r1)
end

(* Sequential bit iterator for the Section 5 range algorithms: each
   block is decoded once per 62 bits consumed. *)
module Iter = struct
  type nonrec bv = t [@@warning "-34"]

  type t = {
    bv : bv;
    mutable cursor : int;
    mutable blk : int;
    mutable bits : int;
    mutable off : int;
  }

  let create bv pos =
    if pos < 0 || pos > bv.len then invalid_arg "Rrr.Iter.create";
    if pos >= bv.len then { bv; cursor = pos; blk = -1; bits = 0; off = 0 }
    else begin
      let blk = pos / block_bits in
      let _, off = walk_to_block bv blk in
      { bv; cursor = pos; blk; bits = block bv blk off; off }
    end

  let pos t = t.cursor
  let has_next t = t.cursor < t.bv.len

  let next t =
    if t.cursor >= t.bv.len then invalid_arg "Rrr.Iter.next: exhausted";
    let blk = t.cursor / block_bits in
    if blk <> t.blk then begin
      if t.blk >= 0 && blk = t.blk + 1 then t.off <- next_off t.bv t.blk t.off
      else begin
        let _, off = walk_to_block t.bv blk in
        t.off <- off
      end;
      t.blk <- blk;
      t.bits <- block t.bv blk t.off
    end;
    let b = t.bits land (1 lsl (t.cursor mod block_bits)) <> 0 in
    t.cursor <- t.cursor + 1;
    b
end
