module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword
module Probe = Wt_obs.Probe

let seg_bits = 4096
let word_bits = 56
let tail_words = (seg_bits / word_bits) + 2

(* Blocks encoded per append while a segment is pending.  A segment has
   seg_bits/62 = 67 blocks, so with the blob's write and its view, one
   append each, the build finishes within 36 appends — far inside the
   seg_bits appends before the next segment fills, as the
   de-amortization argument requires. *)
let build_steps = 2

(* A filled segment whose blob is still being built incrementally
   (Section 4.1's partial rebuilding): queries are served from the raw
   bits until the blob is frozen. *)
type pending = {
  raw : Bitbuf.t;
  raw_cum : int array; (* ones before each 56-bit word *)
  raw_ones : int;
  encoder : Rrr.Encoder.t;
  mutable blob : Bitbuf.t option; (* written by the encoder, not yet viewed *)
}

type t = {
  offset_bit : bool; (* virtual constant prefix: Init's "left offset" *)
  offset_len : int;
  mutable segments : Rrr.t array; (* frozen segments of exactly seg_bits, as blobs *)
  mutable nsegs : int;
  mutable cum_ones : int array; (* ones before segment i; length >= nsegs+1 *)
  mutable pending : pending option;
  mutable tail : Bitbuf.t;
  mutable tail_ones : int;
  mutable tail_cum : int array; (* ones before each 56-bit tail word; grows *)
}

let create_with offset_bit offset_len =
  {
    offset_bit;
    offset_len;
    segments = [||];
    nsegs = 0;
    cum_ones = Array.make 8 0;
    pending = None;
    tail = Bitbuf.create ~capacity_bits:128 ();
    tail_ones = 0;
    tail_cum = Array.make 4 0;
  }

let create () = create_with false 0

let init b n =
  if n < 0 then invalid_arg "Appendable.init";
  create_with b n

let pending_bits t = match t.pending with None -> 0 | Some _ -> seg_bits
let pending_ones t = match t.pending with None -> 0 | Some p -> p.raw_ones
let phys_length t = (t.nsegs * seg_bits) + pending_bits t + Bitbuf.length t.tail
let length t = t.offset_len + phys_length t

let ones t =
  (if t.offset_bit then t.offset_len else 0)
  + t.cum_ones.(t.nsegs) + pending_ones t + t.tail_ones

let zeros t = length t - ones t
let is_constant t = ones t = 0 || ones t = length t

(* ------------------------------------------------------------------ *)
(* Raw-buffer helpers shared by the tail and the pending segment:
   [cum.(w)] holds the ones before word [w]. *)

let buf_rank1 buf cum pos =
  let w = pos / word_bits in
  let r = pos mod word_bits in
  cum.(w) + if r = 0 then 0 else Broadword.popcount (Bitbuf.get_bits buf (pos - r) r)

let buf_select buf cum b k =
  let len = Bitbuf.length buf in
  let nwords = (len + word_bits - 1) / word_bits in
  let count_before w = if b then cum.(w) else (w * word_bits) - cum.(w) in
  let lo = ref 0 and hi = ref (Int.max nwords 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if count_before mid <= k then lo := mid else hi := mid
  done;
  let w = !lo in
  let wpos = w * word_bits in
  let wlen = Int.min word_bits (len - wpos) in
  let bits = Bitbuf.get_bits buf wpos wlen in
  let k' = k - count_before w in
  wpos
  + if b then Broadword.select_in_word bits k' else Broadword.select0_in_word bits wlen k'

(* ------------------------------------------------------------------ *)
(* Structural transitions *)

(* [seg] fills the spare slots when the segment array grows. *)
let grow_segments t seg =
  if t.nsegs = Array.length t.segments then begin
    let cap = max 4 (t.nsegs * 2) in
    let nsegs_arr = Array.make cap seg in
    Array.blit t.segments 0 nsegs_arr 0 t.nsegs;
    t.segments <- nsegs_arr;
    let ncum = Array.make (cap + 1) 0 in
    Array.blit t.cum_ones 0 ncum 0 (t.nsegs + 1);
    t.cum_ones <- ncum
  end

(* One bounded piece of the pending segment's build per append: the
   next [build_steps] blocks, then the blob's write, then its view. *)
let advance_pending t =
  match t.pending with
  | None -> ()
  | Some p -> (
      match p.blob with
      | Some bb ->
          let seg = Rrr.of_blob bb ~len:seg_bits in
          grow_segments t seg;
          t.segments.(t.nsegs) <- seg;
          t.cum_ones.(t.nsegs + 1) <- t.cum_ones.(t.nsegs) + p.raw_ones;
          t.nsegs <- t.nsegs + 1;
          t.pending <- None
      | None when Rrr.Encoder.finished p.encoder ->
          (* a blob is never longer than its plain code: 4,201 bits *)
          let bb = Bitbuf.create ~capacity_bits:(seg_bits + 256) () in
          Rrr.Encoder.write p.encoder bb;
          p.blob <- Some bb
      | None -> Rrr.Encoder.step p.encoder build_steps)

(* The tail reached seg_bits: move it to pending and start a fresh tail.
   O(1): the buffers are moved, not copied. *)
let retire_tail t =
  (match t.pending with
  | None -> ()
  | Some _ ->
      (* cannot happen with build_steps >= 1 (the build finishes within
         36 appends, the next tail needs 4096); kept as a safety valve *)
      while Option.is_some t.pending do
        advance_pending t
      done);
  t.pending <-
    Some
      {
        raw = t.tail;
        raw_cum = t.tail_cum;
        raw_ones = t.tail_ones;
        encoder = Rrr.Encoder.create t.tail;
        blob = None;
      };
  t.tail <- Bitbuf.create ~capacity_bits:128 ();
  t.tail_ones <- 0;
  t.tail_cum <- Array.make 4 0

let append t b =
  Probe.hit App_append;
  let tl = Bitbuf.length t.tail in
  Bitbuf.add t.tail b;
  if b then t.tail_ones <- t.tail_ones + 1;
  (* Record the cumulative count at the next word boundary. *)
  (if (tl + 1) mod word_bits = 0 then begin
     let w = (tl + 1) / word_bits in
     if w >= Array.length t.tail_cum then begin
       let bigger = Array.make (min tail_words (2 * (w + 1))) 0 in
       Array.blit t.tail_cum 0 bigger 0 (Array.length t.tail_cum);
       t.tail_cum <- bigger
     end;
     t.tail_cum.(w) <- t.tail_ones
   end);
  advance_pending t;
  if tl + 1 = seg_bits then retire_tail t

(* A frozen copy for readers on other domains.  Frozen segments never
   change, and neither do the pending segment's raw bits and directory
   (its encoder only reads them), so both are shared.  [append] still
   writes the tail, its directory and the segment arrays, so those are
   copied: O(nsegs + seg_bits / 64).  Reads of the copy never write; the
   copy shares the pending encoder, so appending to it is correct only
   on the original's domain. *)
let snapshot t =
  {
    t with
    segments = Array.sub t.segments 0 t.nsegs;
    cum_ones = Array.sub t.cum_ones 0 (t.nsegs + 1);
    tail = Bitbuf.copy t.tail;
    tail_cum = Array.copy t.tail_cum;
  }

let of_bitbuf buf =
  let t = create () in
  let n = Bitbuf.length buf in
  for i = 0 to n - 1 do
    append t (Bitbuf.get buf i)
  done;
  t

(* ------------------------------------------------------------------ *)
(* Queries: the physical layout is
   [frozen segments][pending segment?][tail]. *)

let phys_rank1 t pos =
  let frozen = t.nsegs * seg_bits in
  if pos < frozen then begin
    let seg = pos / seg_bits in
    t.cum_ones.(seg) + Rrr.rank t.segments.(seg) true (pos mod seg_bits)
  end
  else begin
    match t.pending with
    | Some p when pos < frozen + seg_bits ->
        t.cum_ones.(t.nsegs) + buf_rank1 p.raw p.raw_cum (pos - frozen)
    | Some p ->
        t.cum_ones.(t.nsegs) + p.raw_ones
        + buf_rank1 t.tail t.tail_cum (pos - frozen - seg_bits)
    | None -> t.cum_ones.(t.nsegs) + buf_rank1 t.tail t.tail_cum (pos - frozen)
  end

let rank t b pos =
  Fid.check_rank_pos ~who:"Appendable" ~len:(length t) pos;
  Probe.hit App_rank;
  if pos <= t.offset_len then if b = t.offset_bit then pos else 0
  else begin
    let off_count = if b = t.offset_bit then t.offset_len else 0 in
    let p = pos - t.offset_len in
    let r1 = phys_rank1 t p in
    off_count + if b then r1 else p - r1
  end

let phys_access t pos =
  let frozen = t.nsegs * seg_bits in
  if pos < frozen then Rrr.access t.segments.(pos / seg_bits) (pos mod seg_bits)
  else begin
    match t.pending with
    | Some p when pos < frozen + seg_bits -> Bitbuf.get p.raw (pos - frozen)
    | Some _ -> Bitbuf.get t.tail (pos - frozen - seg_bits)
    | None -> Bitbuf.get t.tail (pos - frozen)
  end

let access t pos =
  Fid.check_access_pos ~who:"Appendable" ~len:(length t) pos;
  Probe.hit App_access;
  if pos < t.offset_len then t.offset_bit else phys_access t (pos - t.offset_len)

(* (bit at pos, rank of that bit before pos), sharing the block decode in
   the frozen-segment case. *)
let access_rank t pos =
  Fid.check_access_pos ~who:"Appendable" ~len:(length t) pos;
  Probe.hit App_access;
  if pos < t.offset_len then (t.offset_bit, pos)
  else begin
    let p = pos - t.offset_len in
    let frozen = t.nsegs * seg_bits in
    let b, r1 =
      if p < frozen then begin
        let seg = p / seg_bits in
        let b, rb = Rrr.access_rank t.segments.(seg) (p mod seg_bits) in
        let local1 = if b then rb else (p mod seg_bits) - rb in
        (b, t.cum_ones.(seg) + local1)
      end
      else (phys_access t p, phys_rank1 t p)
    in
    let off_count = if b = t.offset_bit then t.offset_len else 0 in
    (b, off_count + if b then r1 else p - r1)
  end

let phys_select t b k =
  let count_frozen i = if b then t.cum_ones.(i) else (i * seg_bits) - t.cum_ones.(i) in
  let in_frozen = count_frozen t.nsegs in
  if k < in_frozen then begin
    let lo = ref 0 and hi = ref t.nsegs in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if count_frozen mid <= k then lo := mid else hi := mid
    done;
    let seg = !lo in
    (seg * seg_bits) + Rrr.select t.segments.(seg) b (k - count_frozen seg)
  end
  else begin
    let k = k - in_frozen in
    match t.pending with
    | Some p ->
        let in_pending = if b then p.raw_ones else seg_bits - p.raw_ones in
        if k < in_pending then (t.nsegs * seg_bits) + buf_select p.raw p.raw_cum b k
        else
          ((t.nsegs + 1) * seg_bits) + buf_select t.tail t.tail_cum b (k - in_pending)
    | None -> (t.nsegs * seg_bits) + buf_select t.tail t.tail_cum b k
  end

let select t b k =
  let count = if b then ones t else zeros t in
  Fid.check_select_idx ~who:"Appendable" ~count k;
  Probe.hit App_select;
  if b = t.offset_bit && k < t.offset_len then k
  else begin
    let k' = if b = t.offset_bit then k - t.offset_len else k in
    t.offset_len + phys_select t b k'
  end

let space_bits t =
  let segs = ref 0 in
  for i = 0 to t.nsegs - 1 do
    segs := !segs + Rrr.space_bits t.segments.(i)
  done;
  (match t.pending with
  | None -> ()
  | Some p ->
      segs := !segs + Bitbuf.capacity_bits p.raw + (64 * Array.length p.raw_cum));
  !segs
  + Bitbuf.capacity_bits t.tail
  + (64 * (Array.length t.cum_ones + Array.length t.tail_cum + 8))

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  if t.offset_len < 0 then fail "negative offset";
  let cum = ref 0 in
  for i = 0 to t.nsegs - 1 do
    if t.cum_ones.(i) <> !cum then fail "segment cum_ones wrong at %d" i;
    if Rrr.length t.segments.(i) <> seg_bits then fail "segment %d wrong length" i;
    (try Rrr.check t.segments.(i) ~version:Rrr.newest_version
     with Failure m -> fail "segment %d: %s" i m);
    cum := !cum + Rrr.ones t.segments.(i)
  done;
  if t.cum_ones.(t.nsegs) <> !cum then fail "final cum_ones wrong";
  (match t.pending with
  | None -> ()
  | Some p ->
      if Bitbuf.length p.raw <> seg_bits then fail "pending wrong length";
      if Bitbuf.pop_count p.raw 0 seg_bits <> p.raw_ones then fail "pending ones wrong";
      for w = 0 to seg_bits / word_bits do
        if p.raw_cum.(w) <> Bitbuf.pop_count p.raw 0 (min (w * word_bits) seg_bits) then
          fail "pending cum wrong at %d" w
      done);
  let tones = Bitbuf.pop_count t.tail 0 (Bitbuf.length t.tail) in
  if tones <> t.tail_ones then fail "tail ones wrong";
  for w = 0 to Bitbuf.length t.tail / word_bits do
    let expect = Bitbuf.pop_count t.tail 0 (min (w * word_bits) (Bitbuf.length t.tail)) in
    if t.tail_cum.(w) <> expect then fail "tail cum wrong at word %d" w
  done

(* Rank cursor: the virtual offset prefix, the pending segment and the
   tail are already O(1) per query (constant / word-cumulative counts),
   so the cache lives entirely in the frozen part — an {!Rrr.Cursor}
   into the blob of the segment last queried.  Frozen segments are
   immutable, so the cursor stays valid across concurrent appends. *)
module Cursor = struct
  type nonrec bv = t [@@warning "-34"]

  type t = {
    bv : bv;
    mutable seg : int; (* segment index of [sub], or -1 *)
    mutable sub : Rrr.Cursor.t option;
  }

  let create bv = { bv; seg = -1; sub = None }

  let seg_cursor t seg =
    match t.sub with
    | Some c when t.seg = seg -> c
    | _ ->
        let c = Rrr.Cursor.create t.bv.segments.(seg) in
        t.seg <- seg;
        t.sub <- Some c;
        c

  (* Physical rank1, routing frozen-segment work through the cursor. *)
  let cursed_rank1 t p =
    let bv = t.bv in
    if p < bv.nsegs * seg_bits then begin
      let seg = p / seg_bits in
      bv.cum_ones.(seg) + Rrr.Cursor.rank (seg_cursor t seg) true (p mod seg_bits)
    end
    else phys_rank1 bv p

  let rank t b pos =
    let bv = t.bv in
    Fid.check_rank_pos ~who:"Appendable.Cursor" ~len:(length bv) pos;
    Probe.hit App_rank;
    if pos <= bv.offset_len then if b = bv.offset_bit then pos else 0
    else begin
      let off_count = if b = bv.offset_bit then bv.offset_len else 0 in
      let p = pos - bv.offset_len in
      let r1 = cursed_rank1 t p in
      off_count + if b then r1 else p - r1
    end

  let access_rank t pos =
    let bv = t.bv in
    Fid.check_access_pos ~who:"Appendable.Cursor" ~len:(length bv) pos;
    Probe.hit App_access;
    if pos < bv.offset_len then (bv.offset_bit, pos)
    else begin
      let p = pos - bv.offset_len in
      let b, r1 =
        if p < bv.nsegs * seg_bits then begin
          let seg = p / seg_bits in
          let b, rb = Rrr.Cursor.access_rank (seg_cursor t seg) (p mod seg_bits) in
          let local1 = if b then rb else (p mod seg_bits) - rb in
          (b, bv.cum_ones.(seg) + local1)
        end
        else (phys_access bv p, phys_rank1 bv p)
      in
      let off_count = if b = bv.offset_bit then bv.offset_len else 0 in
      (b, off_count + if b then r1 else p - r1)
    end
end

module Iter = struct
  type nonrec bv = t [@@warning "-34"]

  type t = {
    bv : bv;
    mutable cursor : int;
    mutable seg : int; (* segment index of the live sub-iterator, or -1 *)
    mutable sub : Rrr.Iter.t option;
  }

  let create bv pos =
    if pos < 0 || pos > length bv then invalid_arg "Appendable.Iter.create";
    { bv; cursor = pos; seg = -1; sub = None }

  let pos t = t.cursor
  let has_next t = t.cursor < length t.bv

  let next t =
    if not (has_next t) then invalid_arg "Appendable.Iter.next: exhausted";
    let bv = t.bv in
    let b =
      if t.cursor < bv.offset_len then bv.offset_bit
      else begin
        let p = t.cursor - bv.offset_len in
        let frozen = bv.nsegs * seg_bits in
        if p >= frozen then phys_access bv p
        else begin
          let seg = p / seg_bits in
          (match t.sub with
          | Some it when t.seg = seg && Rrr.Iter.pos it = p mod seg_bits -> ()
          | _ ->
              t.seg <- seg;
              t.sub <- Some (Rrr.Iter.create bv.segments.(seg) (p mod seg_bits)));
          match t.sub with Some it -> Rrr.Iter.next it | None -> assert false
        end
      end
    in
    t.cursor <- t.cursor + 1;
    b
  end
