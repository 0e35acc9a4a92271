module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword
module Probe = Wt_obs.Probe

let block_bits = 62
let class_bits = 6
let sb_blocks = 16
let sb_bits = block_bits * sb_blocks

(* Pascal's triangle up to n = 62.  C(62,31) = 4.7e17 < max_int. *)
let binom =
  let t = Array.make_matrix (block_bits + 1) (block_bits + 1) 0 in
  for n = 0 to block_bits do
    t.(n).(0) <- 1;
    for k = 1 to n do
      t.(n).(k) <- t.(n - 1).(k - 1) + (if k <= n - 1 then t.(n - 1).(k) else 0)
    done
  done;
  t

(* Offset field width for each class: ceil(log2 C(62, c)), 0 for the
   singleton classes. *)
let offset_width =
  Array.init (block_bits + 1) (fun c ->
      let count = binom.(block_bits).(c) in
      if count <= 1 then 0 else Broadword.bit_width (count - 1))

(* Rank of [bits] (a 62-bit pattern with popcount [c]) in the combinatorial
   enumeration: scanning positions from 0, a set bit at position i with r
   ones still to place skips C(62-1-i, r) patterns (those with a 0 there
   and r ones in the remaining 61-i bits).  Only the set bits are
   visited. *)
let encode_offset bits c =
  let off = ref 0 in
  let r = ref c in
  let bits = ref bits in
  while !r > 0 do
    let i = Broadword.lowest_bit !bits in
    off := !off + binom.(block_bits - 1 - i).(!r);
    decr r;
    bits := !bits land (!bits - 1)
  done;
  !off

let decode_offset off c =
  let bits = ref 0 in
  let off = ref off in
  let r = ref c in
  let i = ref 0 in
  while !r > 0 do
    let skip = binom.(block_bits - 1 - !i).(!r) in
    if !off >= skip then begin
      off := !off - skip;
      bits := !bits lor (1 lsl !i);
      decr r
    end;
    incr i
  done;
  !bits

type t = {
  len : int;
  total_ones : int;
  classes : Bitbuf.t; (* 6 bits per block *)
  offsets : Bitbuf.t; (* variable-width offsets, concatenated *)
  sb_ones : int array; (* cumulative ones before each superblock *)
  sb_off : int array; (* offset-stream bit position at superblock start *)
}

let length t = t.len
let ones t = t.total_ones
let zeros t = t.len - t.total_ones

let nblocks_of_len len = (len + block_bits - 1) / block_bits

let of_bitbuf buf =
  let len = Bitbuf.length buf in
  let nblocks = nblocks_of_len len in
  let nsb = (nblocks + sb_blocks - 1) / sb_blocks in
  let classes = Bitbuf.create ~capacity_bits:(nblocks * class_bits) () in
  let offsets = Bitbuf.create ~capacity_bits:len () in
  let sb_ones = Array.make (nsb + 1) 0 in
  let sb_off = Array.make (nsb + 1) 0 in
  let total = ref 0 in
  for blk = 0 to nblocks - 1 do
    if blk mod sb_blocks = 0 then begin
      let sb = blk / sb_blocks in
      sb_ones.(sb) <- !total;
      sb_off.(sb) <- Bitbuf.length offsets
    end;
    let pos = blk * block_bits in
    let blen = min block_bits (len - pos) in
    let bits = Bitbuf.get_bits buf pos blen in
    let c = Broadword.popcount bits in
    Bitbuf.add_bits classes class_bits c;
    let w = offset_width.(c) in
    if w > 0 then Bitbuf.add_bits offsets w (encode_offset bits c);
    total := !total + c
  done;
  sb_ones.(nsb) <- !total;
  sb_off.(nsb) <- Bitbuf.length offsets;
  { len; total_ones = !total; classes; offsets; sb_ones; sb_off }

let of_string s = of_bitbuf (Bitbuf.of_string s)

let class_of t blk = Bitbuf.get_bits t.classes (blk * class_bits) class_bits

let decode_block t off_pos c =
  let w = offset_width.(c) in
  if w = 0 then if c = 0 then 0 else Broadword.mask block_bits
  else decode_offset (Bitbuf.get_bits t.offsets off_pos w) c

(* Ones among the first [r] positions of a block with class [c] and
   offset stream position [off_pos], stopping the unranking at position
   [r] (cheaper than decoding the whole block). *)
let rank1_in_block t off_pos c r =
  let w = offset_width.(c) in
  if w = 0 then if c = 0 then 0 else min r c
  else begin
    let off = ref (Bitbuf.get_bits t.offsets off_pos w) in
    let rem = ref c in
    let ones = ref 0 in
    let i = ref 0 in
    while !i < r && !rem > 0 do
      let skip = binom.(block_bits - 1 - !i).(!rem) in
      if !off >= skip then begin
        off := !off - skip;
        incr ones;
        decr rem
      end;
      incr i
    done;
    !ones
  end

(* Bit at position [r] of a block (same early exit). *)
let access_in_block t off_pos c r =
  let w = offset_width.(c) in
  if w = 0 then c <> 0
  else begin
    let off = ref (Bitbuf.get_bits t.offsets off_pos w) in
    let rem = ref c in
    let i = ref 0 in
    let bit = ref false in
    let continue = ref true in
    while !continue do
      let hit =
        !rem > 0
        &&
        let skip = binom.(block_bits - 1 - !i).(!rem) in
        if !off >= skip then begin
          off := !off - skip;
          decr rem;
          true
        end
        else false
      in
      if !i = r then begin
        bit := hit;
        continue := false
      end
      else if !rem = 0 then begin
        bit := false;
        continue := false
      end
      else incr i
    done;
    !bit
  end

(* Walk blocks of superblock [sb] up to block [target]; returns
   (ones before target within walk + sb base, offset position of target). *)
let walk_to_block t target =
  let sb = target / sb_blocks in
  let ones = ref t.sb_ones.(sb) in
  let off = ref t.sb_off.(sb) in
  for blk = sb * sb_blocks to target - 1 do
    let c = class_of t blk in
    ones := !ones + c;
    off := !off + offset_width.(c)
  done;
  (!ones, !off)

let block_len t blk = min block_bits (t.len - (blk * block_bits))

let rank1 t pos =
  if pos = 0 then 0
  else begin
    let blk = pos / block_bits in
    let nblocks = nblocks_of_len t.len in
    if blk >= nblocks then t.total_ones
    else begin
      let ones, off = walk_to_block t blk in
      let r = pos mod block_bits in
      if r = 0 then ones else ones + rank1_in_block t off (class_of t blk) r
    end
  end

let rank t b pos =
  Fid.check_rank_pos ~who:"Rrr" ~len:t.len pos;
  Probe.hit Rrr_rank;
  if b then rank1 t pos else pos - rank1 t pos

let access t pos =
  Fid.check_access_pos ~who:"Rrr" ~len:t.len pos;
  Probe.hit Rrr_access;
  let blk = pos / block_bits in
  let _, off = walk_to_block t blk in
  access_in_block t off (class_of t blk) (pos mod block_bits)

(* (bit at pos, rank of that bit before pos): one walk + one partial
   unranking that also captures the bit at [pos]. *)
let access_rank t pos =
  Fid.check_access_pos ~who:"Rrr" ~len:t.len pos;
  Probe.hit Rrr_access;
  let blk = pos / block_bits in
  let ones, off_pos = walk_to_block t blk in
  let c = class_of t blk in
  let r = pos mod block_bits in
  let w = offset_width.(c) in
  let b, in_block =
    if w = 0 then (c <> 0, if c = 0 then 0 else r)
    else begin
      let off = ref (Bitbuf.get_bits t.offsets off_pos w) in
      let rem = ref c in
      let cnt = ref 0 in
      let i = ref 0 in
      let bit = ref false in
      let continue = ref true in
      while !continue do
        let hit =
          !rem > 0
          &&
          let skip = binom.(block_bits - 1 - !i).(!rem) in
          if !off >= skip then begin
            off := !off - skip;
            decr rem;
            true
          end
          else false
        in
        if !i = r then begin
          bit := hit;
          continue := false
        end
        else begin
          if hit then incr cnt;
          if !rem = 0 then begin
            bit := false;
            continue := false
          end
          else incr i
        end
      done;
      (!bit, !cnt)
    end
  in
  let r1 = ones + in_block in
  (b, if b then r1 else pos - r1)

let select t b k =
  let count = if b then t.total_ones else zeros t in
  Fid.check_select_idx ~who:"Rrr" ~count k;
  Probe.hit Rrr_select;
  let nsb = Array.length t.sb_ones - 1 in
  (* count of b strictly before superblock sb *)
  let count_before sb =
    if b then t.sb_ones.(sb) else min t.len (sb * sb_bits) - t.sb_ones.(sb)
  in
  let lo = ref 0 and hi = ref nsb in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if count_before mid <= k then lo := mid else hi := mid
  done;
  let sb = !lo in
  let remaining = ref (k - count_before sb) in
  let blk = ref (sb * sb_blocks) in
  let off = ref (t.sb_off.(sb)) in
  let block_count blk =
    let c = class_of t blk in
    if b then c else block_len t blk - c
  in
  let c = ref (block_count !blk) in
  while !remaining >= !c do
    remaining := !remaining - !c;
    off := !off + offset_width.(class_of t !blk);
    incr blk;
    c := block_count !blk
  done;
  let cls = class_of t !blk in
  let bits = decode_block t !off cls in
  let inblock =
    if b then Broadword.select_in_word bits !remaining
    else Broadword.select0_in_word bits (block_len t !blk) !remaining
  in
  (!blk * block_bits) + inblock

let to_bitbuf t =
  let out = Bitbuf.create ~capacity_bits:t.len () in
  let nblocks = nblocks_of_len t.len in
  let off = ref 0 in
  for blk = 0 to nblocks - 1 do
    let c = class_of t blk in
    let bits = decode_block t !off c in
    off := !off + offset_width.(c);
    Bitbuf.add_bits out (block_len t blk) bits
  done;
  out

let space_bits t =
  Bitbuf.length t.classes + Bitbuf.length t.offsets
  + (64 * (Array.length t.sb_ones + Array.length t.sb_off + 2))

(* Resumable construction: the paper's Section 4.1 de-amortization needs
   RRR built "in O(n'/log n) steps ... interleaved with other operations".
   A builder encodes a bounded number of blocks per [step] call. *)
module Builder = struct
  type rrr = t

  type t = {
    src : Bitbuf.t;
    len : int;
    nblocks : int;
    nsb : int;
    classes : Bitbuf.t;
    offsets : Bitbuf.t;
    sb_ones : int array;
    sb_off : int array;
    mutable blk : int; (* next block to encode *)
    mutable total : int; (* ones so far *)
  }

  let create src =
    let len = Bitbuf.length src in
    let nblocks = nblocks_of_len len in
    let nsb = (nblocks + sb_blocks - 1) / sb_blocks in
    {
      src;
      len;
      nblocks;
      nsb;
      classes = Bitbuf.create ~capacity_bits:(nblocks * class_bits) ();
      offsets = Bitbuf.create ~capacity_bits:len ();
      sb_ones = Array.make (nsb + 1) 0;
      sb_off = Array.make (nsb + 1) 0;
      blk = 0;
      total = 0;
    }

  let finished b = b.blk >= b.nblocks

  let step b k =
    let target = min b.nblocks (b.blk + k) in
    while b.blk < target do
      let blk = b.blk in
      if blk mod sb_blocks = 0 then begin
        let sb = blk / sb_blocks in
        b.sb_ones.(sb) <- b.total;
        b.sb_off.(sb) <- Bitbuf.length b.offsets
      end;
      let pos = blk * block_bits in
      let blen = min block_bits (b.len - pos) in
      let bits = Bitbuf.get_bits b.src pos blen in
      let c = Broadword.popcount bits in
      Bitbuf.add_bits b.classes class_bits c;
      let w = offset_width.(c) in
      if w > 0 then Bitbuf.add_bits b.offsets w (encode_offset bits c);
      b.total <- b.total + c;
      b.blk <- blk + 1
    done

  let finalize b : rrr =
    if not (finished b) then invalid_arg "Rrr.Builder.finalize: not finished";
    b.sb_ones.(b.nsb) <- b.total;
    b.sb_off.(b.nsb) <- Bitbuf.length b.offsets;
    {
      len = b.len;
      total_ones = b.total;
      classes = b.classes;
      offsets = b.offsets;
      sb_ones = b.sb_ones;
      sb_off = b.sb_off;
    }
end

(* Rank cursor: caches the last decoded block together with the rank and
   offset-stream prefix sums before it.  A query landing in the cached
   block is an in-block popcount; a short forward step re-uses the prefix
   sums and walks only the classes in between; anything else repositions
   from the superblock directory (exactly what a from-scratch query
   does).  Correct for any position order — monotone batches are simply
   the all-hit fast path. *)
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
    if blk = t.blk then Probe.hit Bv_cursor_hit
    else begin
      (if t.blk >= 0 && blk > t.blk && blk - t.blk <= sb_blocks then begin
         Probe.hit Bv_cursor_hit;
         for b = t.blk to blk - 1 do
           let c = class_of t.bv b in
           t.ones_before <- t.ones_before + c;
           t.off <- t.off + offset_width.(c)
         done
       end
       else begin
         Probe.hit Bv_cursor_miss;
         let ones, off = walk_to_block t.bv blk in
         t.ones_before <- ones;
         t.off <- off
       end);
      t.blk <- blk;
      t.bits <- decode_block t.bv t.off (class_of t.bv blk)
    end

  let rank1 t pos =
    if pos <= 0 then 0
    else begin
      let blk = pos / block_bits in
      if blk >= nblocks_of_len t.bv.len then t.bv.total_ones
      else begin
        seek t blk;
        t.ones_before
        + Broadword.popcount (t.bits land Broadword.mask (pos mod block_bits))
      end
    end

  let rank t b pos =
    Fid.check_rank_pos ~who:"Rrr.Cursor" ~len:t.bv.len pos;
    Probe.hit Rrr_rank;
    let r1 = rank1 t pos in
    if b then r1 else pos - r1

  let access_rank t pos =
    Fid.check_access_pos ~who:"Rrr.Cursor" ~len:t.bv.len pos;
    Probe.hit Rrr_access;
    seek t (pos / block_bits);
    let r = pos mod block_bits in
    let b = t.bits land (1 lsl r) <> 0 in
    let r1 = t.ones_before + Broadword.popcount (t.bits land Broadword.mask r) in
    (b, if b then r1 else pos - r1)
end

module Iter = struct
  type nonrec bv = t [@@warning "-34"]

  type t = {
    bv : bv;
    mutable cursor : int; (* global bit position *)
    mutable blk : int; (* decoded block index, or -1 *)
    mutable bits : int; (* decoded block contents *)
    mutable off : int; (* offset-stream position of block [blk] *)
  }

  let create bv pos =
    if pos < 0 || pos > bv.len then invalid_arg "Rrr.Iter.create";
    (* Position the offset cursor at the block containing [pos]. *)
    if pos >= bv.len then { bv; cursor = pos; blk = -1; bits = 0; off = 0 }
    else begin
      let blk = pos / block_bits in
      let _, off = walk_to_block bv blk in
      let c = class_of bv blk in
      let bits = decode_block bv off c in
      { bv; cursor = pos; blk; bits; off }
    end

  let pos t = t.cursor
  let has_next t = t.cursor < t.bv.len

  let next t =
    if t.cursor >= t.bv.len then invalid_arg "Rrr.Iter.next: exhausted";
    let blk = t.cursor / block_bits in
    if blk <> t.blk then begin
      (* Crossed into the next block: advance the offset cursor. *)
      if t.blk >= 0 && blk = t.blk + 1 then
        t.off <- t.off + offset_width.(class_of t.bv t.blk)
      else begin
        let _, off = walk_to_block t.bv blk in
        t.off <- off
      end;
      t.blk <- blk;
      t.bits <- decode_block t.bv t.off (class_of t.bv blk)
    end;
    let b = t.bits land (1 lsl (t.cursor mod block_bits)) <> 0 in
    t.cursor <- t.cursor + 1;
    b
end

let pp fmt t = Format.fprintf fmt "%s" (Bitbuf.to_string (to_bitbuf t))

(* ------------------------------------------------------------------ *)
(* Flat serialized form: the same blocks and directory laid out as one
   bit-packed blob, queried in place through {!Wt_bits.Membuf}.  This
   is the inline bitvector encoding of the format-v3 arena
   ([Wt_core.Flat_wt]): no deserialization, the on-disk bits are the
   query structure.

   The blob has no header and no alignment.  Its length [len] is known
   to its owner (an arena node's count), and [nblocks]/[nsb] follow from
   it.  One LSB-first bit stream:

     directory   only when nsb > 1: for sb = 1 .. nsb, two fields of
                 w = bit_width (64 * nblocks) bits: the ones before
                 superblock sb and the offset-stream bit position of
                 superblock sb (sb = nsb holds the totals; sb = 0 is
                 implicitly (0, 0))
     classes     nblocks x 6 bits
     offsets     variable-width offsets, concatenated

   A blob of at most [sb_bits] bits is exactly its RRR payload; its
   total ones and offset-stream length are the sums over its (at most
   16) classes, taken when the view is opened. *)
module Flat = struct
  module Membuf = Wt_bits.Membuf

  type t = {
    mb : Membuf.t;
    len : int;
    total_ones : int;
    nblocks : int;
    dir_bit : int; (* bit offset of the superblock directory *)
    dir_w : int; (* directory field width; 0 when there is none *)
    classes_bit : int; (* bit offset of the classes stream *)
    offsets_bit : int; (* bit offset of the offsets stream *)
    bits : int; (* blob length in bits *)
  }

  let nsb_of_nblocks nblocks = (nblocks + sb_blocks - 1) / sb_blocks

  (* Both directory fields are bounded by 64 bits per block: a block
     holds at most 62 ones and its offset at most 59 bits. *)
  let dir_width nblocks =
    if nsb_of_nblocks nblocks > 1 then Broadword.bit_width (64 * nblocks) else 0

  (* The blob of a [len]-bit bitvector given as its 62-bit blocks:
     [blocks.(i)] holds bits [62i, 62i + 62), LSB first, zero past
     [len].  Directory (cumulative ones and offset bits at the end of
     each superblock), then the classes ten per append, then the
     offsets. *)
  let append_blocks bb blocks ~len =
    let nblocks = nblocks_of_len len in
    let w = dir_width nblocks in
    if w > 0 then begin
      let ones = ref 0 and off = ref 0 in
      for blk = 0 to nblocks - 1 do
        let c = Broadword.popcount blocks.(blk) in
        ones := !ones + c;
        off := !off + offset_width.(c);
        if (blk + 1) mod sb_blocks = 0 || blk = nblocks - 1 then begin
          Bitbuf.add_bits bb w !ones;
          Bitbuf.add_bits bb w !off
        end
      done
    end;
    let blk = ref 0 in
    while !blk < nblocks do
      let k = min 10 (nblocks - !blk) in
      let word = ref 0 in
      for i = k - 1 downto 0 do
        word := (!word lsl class_bits) lor Broadword.popcount blocks.(!blk + i)
      done;
      Bitbuf.add_bits bb (k * class_bits) !word;
      blk := !blk + k
    done;
    for blk = 0 to nblocks - 1 do
      let bits = blocks.(blk) in
      let c = Broadword.popcount bits in
      let w = offset_width.(c) in
      if w > 0 then Bitbuf.add_bits bb w (encode_offset bits c)
    done

  (* Ones and offset-stream bits of blocks [lo, hi), added to [ones] and
     [off]: ten 6-bit classes per Membuf read. *)
  let walk_classes mb classes_bit lo hi ones off =
    let ones = ref ones and off = ref off and blk = ref lo in
    while !blk < hi do
      let k = min 10 (hi - !blk) in
      let w = ref (Membuf.get_bits mb (classes_bit + (!blk * class_bits)) (k * class_bits)) in
      for _ = 1 to k do
        let c = !w land 63 in
        ones := !ones + c;
        off := !off + offset_width.(c);
        w := !w lsr class_bits
      done;
      blk := !blk + k
    done;
    (!ones, !off)

  let dir_ones t sb =
    if sb = 0 then 0 else Membuf.get_bits t.mb (t.dir_bit + ((sb - 1) * 2 * t.dir_w)) t.dir_w

  let dir_off t sb =
    if sb = 0 then 0
    else Membuf.get_bits t.mb (t.dir_bit + ((sb - 1) * 2 * t.dir_w) + t.dir_w) t.dir_w

  (* [of_membuf mb bit ~len]: a view of the [len]-bit blob starting at
     bit [bit].  Reads at most two words (the directory totals, or the
     classes of a single-superblock blob); every later read is
     bounds-checked by [Membuf], so a corrupt blob raises
     [Invalid_argument] instead of reading out of range. *)
  let of_membuf mb bit ~len =
    if len < 0 || bit < 0 then invalid_arg "Rrr.Flat: negative length or offset";
    let nblocks = nblocks_of_len len in
    let nsb = nsb_of_nblocks nblocks in
    let dir_w = dir_width nblocks in
    let classes_bit = bit + (if dir_w > 0 then 2 * dir_w * nsb else 0) in
    let offsets_bit = classes_bit + (nblocks * class_bits) in
    let total_ones, off_bits =
      if dir_w > 0 then begin
        let last = bit + ((nsb - 1) * 2 * dir_w) in
        (Membuf.get_bits mb last dir_w, Membuf.get_bits mb (last + dir_w) dir_w)
      end
      else walk_classes mb classes_bit 0 nblocks 0 0
    in
    if total_ones > len then invalid_arg "Rrr.Flat: ones exceed length";
    let bits = offsets_bit + off_bits - bit in
    if bit + bits > 8 * Membuf.length mb then invalid_arg "Rrr.Flat: blob truncated";
    { mb; len; total_ones; nblocks; dir_bit = bit; dir_w; classes_bit; offsets_bit; bits }

  let length t = t.len
  let ones t = t.total_ones
  let zeros t = t.len - t.total_ones
  let space_bits t = t.bits

  let class_of t blk = Membuf.get_bits t.mb (t.classes_bit + (blk * class_bits)) class_bits
  let off_bits t pos w = Membuf.get_bits t.mb (t.offsets_bit + pos) w

  let decode_block t off_pos c =
    let w = offset_width.(c) in
    if w = 0 then if c = 0 then 0 else Broadword.mask block_bits
    else decode_offset (off_bits t off_pos w) c

  let rank1_in_block t off_pos c r =
    let w = offset_width.(c) in
    if w = 0 then if c = 0 then 0 else min r c
    else begin
      let off = ref (off_bits t off_pos w) in
      let rem = ref c in
      let ones = ref 0 in
      let i = ref 0 in
      while !i < r && !rem > 0 do
        let skip = binom.(block_bits - 1 - !i).(!rem) in
        if !off >= skip then begin
          off := !off - skip;
          incr ones;
          decr rem
        end;
        incr i
      done;
      !ones
    end

  let access_in_block t off_pos c r =
    let w = offset_width.(c) in
    if w = 0 then c <> 0
    else begin
      let off = ref (off_bits t off_pos w) in
      let rem = ref c in
      let i = ref 0 in
      let bit = ref false in
      let continue = ref true in
      while !continue do
        let hit =
          !rem > 0
          &&
          let skip = binom.(block_bits - 1 - !i).(!rem) in
          if !off >= skip then begin
            off := !off - skip;
            decr rem;
            true
          end
          else false
        in
        if !i = r then begin
          bit := hit;
          continue := false
        end
        else if !rem = 0 then begin
          bit := false;
          continue := false
        end
        else incr i
      done;
      !bit
    end

  let iter_blocks t f =
    let off = ref 0 and blk = ref 0 in
    while !blk < t.nblocks do
      let k = min 10 (t.nblocks - !blk) in
      let w = ref (Membuf.get_bits t.mb (t.classes_bit + (!blk * class_bits)) (k * class_bits)) in
      for _ = 1 to k do
        let c = !w land 63 in
        f (decode_block t !off c);
        off := !off + offset_width.(c);
        w := !w lsr class_bits
      done;
      blk := !blk + k
    done

  let walk_to_block t target =
    let sb = target / sb_blocks in
    walk_classes t.mb t.classes_bit (sb * sb_blocks) target (dir_ones t sb) (dir_off t sb)

  let block_len t blk = min block_bits (t.len - (blk * block_bits))

  let rank1 t pos =
    if pos = 0 then 0
    else begin
      let blk = pos / block_bits in
      if blk >= t.nblocks then t.total_ones
      else begin
        let ones, off = walk_to_block t blk in
        let r = pos mod block_bits in
        if r = 0 then ones else ones + rank1_in_block t off (class_of t blk) r
      end
    end

  let rank t b pos =
    Fid.check_rank_pos ~who:"Rrr.Flat" ~len:t.len pos;
    Probe.hit Rrr_rank;
    if b then rank1 t pos else pos - rank1 t pos

  let access t pos =
    Fid.check_access_pos ~who:"Rrr.Flat" ~len:t.len pos;
    Probe.hit Rrr_access;
    let blk = pos / block_bits in
    let _, off = walk_to_block t blk in
    access_in_block t off (class_of t blk) (pos mod block_bits)

  let access_rank t pos =
    Fid.check_access_pos ~who:"Rrr.Flat" ~len:t.len pos;
    Probe.hit Rrr_access;
    let blk = pos / block_bits in
    let ones, off_pos = walk_to_block t blk in
    let c = class_of t blk in
    let r = pos mod block_bits in
    let w = offset_width.(c) in
    let b, in_block =
      if w = 0 then (c <> 0, if c = 0 then 0 else r)
      else begin
        let off = ref (off_bits t off_pos w) in
        let rem = ref c in
        let cnt = ref 0 in
        let i = ref 0 in
        let bit = ref false in
        let continue = ref true in
        while !continue do
          let hit =
            !rem > 0
            &&
            let skip = binom.(block_bits - 1 - !i).(!rem) in
            if !off >= skip then begin
              off := !off - skip;
              decr rem;
              true
            end
            else false
          in
          if !i = r then begin
            bit := hit;
            continue := false
          end
          else begin
            if hit then incr cnt;
            if !rem = 0 then begin
              bit := false;
              continue := false
            end
            else incr i
          end
        done;
        (!bit, !cnt)
      end
    in
    let r1 = ones + in_block in
    (b, if b then r1 else pos - r1)

  let select t b k =
    let count = if b then t.total_ones else zeros t in
    Fid.check_select_idx ~who:"Rrr.Flat" ~count k;
    Probe.hit Rrr_select;
    let nsb = nsb_of_nblocks t.nblocks in
    let count_before sb =
      if b then dir_ones t sb else min t.len (sb * sb_bits) - dir_ones t sb
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
      off := !off + offset_width.(class_of t !blk);
      incr blk;
      c := block_count !blk
    done;
    let cls = class_of t !blk in
    let bits = decode_block t !off cls in
    let inblock =
      if b then Broadword.select_in_word bits !remaining
      else Broadword.select0_in_word bits (block_len t !blk) !remaining
    in
    (!blk * block_bits) + inblock

  (* Rank cursor over a flat view: same caching discipline as
     {!Cursor} (cached decoded block + prefix sums, short forward
     walks), same [Bv_cursor_hit]/[Bv_cursor_miss] accounting. *)
  module Cursor = struct
    type nonrec bv = t [@@warning "-34"]

    type t = {
      bv : bv;
      mutable blk : int;
      mutable bits : int;
      mutable ones_before : int;
      mutable off : int;
    }

    let create bv = { bv; blk = -1; bits = 0; ones_before = 0; off = 0 }

    let seek t blk =
      if blk = t.blk then Probe.hit Bv_cursor_hit
      else begin
        let ones, off =
          if t.blk >= 0 && blk > t.blk && blk - t.blk <= sb_blocks then begin
            Probe.hit Bv_cursor_hit;
            walk_classes t.bv.mb t.bv.classes_bit t.blk blk t.ones_before t.off
          end
          else begin
            Probe.hit Bv_cursor_miss;
            walk_to_block t.bv blk
          end
        in
        t.ones_before <- ones;
        t.off <- off;
        t.blk <- blk;
        t.bits <- decode_block t.bv t.off (class_of t.bv blk)
      end

    let rank1 t pos =
      if pos <= 0 then 0
      else begin
        let blk = pos / block_bits in
        if blk >= t.bv.nblocks then t.bv.total_ones
        else begin
          seek t blk;
          t.ones_before
          + Broadword.popcount (t.bits land Broadword.mask (pos mod block_bits))
        end
      end

    let rank t b pos =
      Fid.check_rank_pos ~who:"Rrr.Flat.Cursor" ~len:t.bv.len pos;
      Probe.hit Rrr_rank;
      let r1 = rank1 t pos in
      if b then r1 else pos - r1

    let access_rank t pos =
      Fid.check_access_pos ~who:"Rrr.Flat.Cursor" ~len:t.bv.len pos;
      Probe.hit Rrr_access;
      seek t (pos / block_bits);
      let r = pos mod block_bits in
      let b = t.bits land (1 lsl r) <> 0 in
      let r1 = t.ones_before + Broadword.popcount (t.bits land Broadword.mask r) in
      (b, if b then r1 else pos - r1)
  end

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
      if pos < 0 || pos > bv.len then invalid_arg "Rrr.Flat.Iter.create";
      if pos >= bv.len then { bv; cursor = pos; blk = -1; bits = 0; off = 0 }
      else begin
        let blk = pos / block_bits in
        let _, off = walk_to_block bv blk in
        let c = class_of bv blk in
        let bits = decode_block bv off c in
        { bv; cursor = pos; blk; bits; off }
      end

    let pos t = t.cursor
    let has_next t = t.cursor < t.bv.len

    let next t =
      if t.cursor >= t.bv.len then invalid_arg "Rrr.Flat.Iter.next: exhausted";
      let blk = t.cursor / block_bits in
      if blk <> t.blk then begin
        if t.blk >= 0 && blk = t.blk + 1 then
          t.off <- t.off + offset_width.(class_of t.bv t.blk)
        else begin
          let _, off = walk_to_block t.bv blk in
          t.off <- off
        end;
        t.blk <- blk;
        t.bits <- decode_block t.bv t.off (class_of t.bv blk)
      end;
      let b = t.bits land (1 lsl (t.cursor mod block_bits)) <> 0 in
      t.cursor <- t.cursor + 1;
      b
  end
end
