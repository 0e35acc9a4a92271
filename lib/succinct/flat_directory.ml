(* Partitioned Elias–Fano node directory.

     records   (nodes / 32) + 1 fixed-width records, LSB-first, of two
               groups.  The topology group:
                 topology  32 bits, bit j set iff node 32b + j is internal
                 rank      wr = bit_width (nodes / 2) bits: internal nodes
                           before the block
               the offsets group:
                 low       wl = bit_width wa bits: the block's low width l
                 zeros     5 bits: h, the high part's zeros
                 first     wa = bit_width u bits: offset 32b
                 body      wp bits: where the block's body starts, from
                           the first body
     bodies    per block, for its c = min 31 (nodes - 32b) other offsets
               32b + 1 + e, each d_e above the first: the high part,
               c + h bits with bit (d_e lsr l) + e set for each e, then
               the c low parts, l bits each

   l is the least width with h <= 31, so a high part is at most 62 bits,
   one read.  If l > 0 the block's span is at least 16 * 2^l, so by
   concavity the l sum over all blocks is at most
   records * log2 (1 + u / (16 * records)), and wp is the width of the
   bound that gives on the bodies' length: the records' length follows
   from [nodes] and [u] alone, as the arena header needs.  Each group
   is one read while it fits 62 bits (the offsets group does up to
   arenas of 2^27 content bits); wider ones are read field by field. *)

module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword
module Membuf = Wt_bits.Membuf

let block = 32

type t = {
  mb : Membuf.t;
  nodes : int;
  universe : int;
  wr : int;
  wl : int;
  wa : int;
  wp : int;
  ga : int; (* group widths *)
  gb : int;
  packed : bool; (* each group is one read *)
  records_bit : int;
  bodies_bit : int;
  stream_end : int;
}

let records nodes = (nodes / block) + 1

(* Offsets of block [b] past its first. *)
let entries nodes b = Int.min (block - 1) (nodes - (block * b))
let max_zeros = 31

(* (wr, wl, wa, wp) *)
let widths ~nodes ~universe =
  let wa = Broadword.bit_width universe and r = records nodes in
  let low_sum = r * Broadword.bit_width ((universe / (16 * r)) + 1) in
  ( Broadword.bit_width (nodes / 2),
    Broadword.bit_width wa,
    wa,
    Broadword.bit_width ((r * ((block - 1) + max_zeros)) + ((block - 1) * low_sum)) )

let records_bits ~nodes ~universe =
  let wr, wl, wa, wp = widths ~nodes ~universe in
  records nodes * (32 + wr + wl + 5 + wa + wp)

let append bb ~internal ~universe offsets =
  let count = Array.length offsets in
  if count = 0 then invalid_arg "Flat_directory.append: no offsets";
  let nodes = count - 1 in
  if Bitbuf.length internal <> nodes then
    invalid_arg "Flat_directory.append: one topology bit per node expected";
  let prev = ref 0 in
  Array.iter
    (fun v ->
      if v < !prev || v > universe then
        invalid_arg "Flat_directory.append: not non-decreasing within the universe";
      prev := v)
    offsets;
  let wr, wl, wa, wp = widths ~nodes ~universe in
  let nr = records nodes in
  let topo =
    Array.init nr (fun b ->
        Bitbuf.get_bits internal (block * b) (Int.min block (nodes - (block * b))))
  in
  if Array.fold_left (fun acc w -> acc + Broadword.popcount w) 0 topo > nodes / 2 then
    invalid_arg "Flat_directory.append: more internal nodes than a binary tree has";
  let span b = offsets.((block * b) + entries nodes b) - offsets.(block * b) in
  let low =
    Array.init nr (fun b ->
        let l = ref 0 in
        while span b lsr !l > max_zeros do
          incr l
        done;
        !l)
  in
  let rank = ref 0 and body = ref 0 in
  for b = 0 to nr - 1 do
    let c = entries nodes b and l = low.(b) in
    Bitbuf.add_bits bb 32 topo.(b);
    Bitbuf.add_bits bb wr !rank;
    Bitbuf.add_bits bb wl l;
    Bitbuf.add_bits bb 5 (span b lsr l);
    Bitbuf.add_bits bb wa offsets.(block * b);
    Bitbuf.add_bits bb wp !body;
    rank := !rank + Broadword.popcount topo.(b);
    body := !body + c + (span b lsr l) + (c * l)
  done;
  for b = 0 to nr - 1 do
    let c = entries nodes b and l = low.(b) and first = offsets.(block * b) in
    let high = ref 0 in
    for e = 0 to c - 1 do
      high := !high lor (1 lsl (((offsets.((block * b) + 1 + e) - first) lsr l) + e))
    done;
    Bitbuf.add_bits bb (c + (span b lsr l)) !high;
    for e = 0 to c - 1 do
      Bitbuf.add_bits bb l ((offsets.((block * b) + 1 + e) - first) land Broadword.mask l)
    done
  done

let of_membuf mb ~bit ~bits ~nodes ~universe =
  let wr, wl, wa, wp = widths ~nodes ~universe in
  let rb = records_bits ~nodes ~universe in
  if bits < rb then invalid_arg "Flat_directory.of_membuf: stream shorter than its records";
  let ga = 32 + wr and gb = wl + 5 + wa + wp in
  {
    mb;
    nodes;
    universe;
    wr;
    wl;
    wa;
    wp;
    ga;
    gb;
    packed = ga <= 62 && gb <= 62;
    records_bit = bit;
    bodies_bit = bit + rb;
    stream_end = bit + bits;
  }

(* Record [b]'s topology group; its offsets group follows at [+ t.ga]. *)
let record t b = t.records_bit + (b * (t.ga + t.gb))

(* A group read as one word, and the [w]-bit field at [off] of the group
   at [pos] taken out of it, or read alone when the group is wider. *)
let group t pos w = if t.packed then Membuf.get_bits t.mb pos w else 0

let field t pos word off w =
  if t.packed then (word lsr off) land ((1 lsl w) - 1) else Membuf.get_bits t.mb (pos + off) w

(* offsets group fields: l, h, first, body *)
let o_zeros t = t.wl
let o_first t = t.wl + 5
let o_body t = t.wl + 5 + t.wa

let irank t i =
  if i < 0 || i >= t.nodes then invalid_arg "Flat_directory.irank: out of bounds";
  let r = record t (i lsr 5) and j = i land 31 in
  let a = group t r t.ga in
  let topo = field t r a 0 32 in
  if topo land (1 lsl j) = 0 then -1
  else field t r a 32 t.wr + Broadword.popcount (topo land ((1 lsl j) - 1))

(* Block [b]'s body starts at bit [pos]: its high part of [hw] bits,
   then [c] low parts of [l] bits, checked against the record's widths
   and the stream. *)
let[@inline] check_body t ~pos ~hw ~c ~l =
  if l > t.wa || pos > t.stream_end - hw - (c * l) then
    invalid_arg "Flat_directory: corrupt block record"

(* The [e]-th offset past the first, given the position [p] of its bit in
   the high part. *)
let[@inline] entry t ~first ~lows ~l e p =
  first + (((p - e) lsl l) lor Membuf.get_bits t.mb (lows + (e * l)) l)

let get t i =
  if i < 0 || i > t.nodes then invalid_arg "Flat_directory.get: out of bounds";
  let b = i lsr 5 and j = i land 31 in
  let r = record t b + t.ga in
  let g = group t r t.gb in
  let first = field t r g (o_first t) t.wa in
  if j = 0 then first
  else
    let c = entries t.nodes b and l = field t r g 0 t.wl in
    let hw = c + field t r g (o_zeros t) 5 and pos = t.bodies_bit + field t r g (o_body t) t.wp in
    check_body t ~pos ~hw ~c ~l;
    let x = Membuf.get_bits t.mb pos hw in
    entry t ~first ~lows:(pos + hw) ~l (j - 1) (Broadword.select_in_word x (j - 1))

let visit t i =
  if i < 0 || i >= t.nodes then invalid_arg "Flat_directory.visit: out of bounds";
  let b = i lsr 5 and j = i land 31 in
  let ra = record t b in
  let rb = ra + t.ga in
  let a = group t ra t.ga and g = group t rb t.gb in
  let topo = field t ra a 0 32 in
  let irank =
    if topo land (1 lsl j) = 0 then -1
    else field t ra a 32 t.wr + Broadword.popcount (topo land ((1 lsl j) - 1))
  in
  let first = field t rb g (o_first t) t.wa in
  let c = entries t.nodes b and l = field t rb g 0 t.wl in
  let hw = c + field t rb g (o_zeros t) 5 and pos = t.bodies_bit + field t rb g (o_body t) t.wp in
  check_body t ~pos ~hw ~c ~l;
  let lows = pos + hw in
  if j = 0 then
    let x = Membuf.get_bits t.mb pos hw in
    (irank, first, entry t ~first ~lows ~l 0 (Broadword.lowest_bit x))
  else if j = block - 1 then begin
    let x = Membuf.get_bits t.mb pos hw in
    let r' = record t (b + 1) + t.ga in
    let next = field t r' (group t r' t.gb) (o_first t) t.wa in
    (irank, entry t ~first ~lows ~l (j - 1) (Broadword.select_in_word x (j - 1)), next)
  end
  else if 2 * l <= 62 then begin
    (* both low parts in one read, issued before the select *)
    let x = Membuf.get_bits t.mb pos hw in
    let y = Membuf.get_bits t.mb (lows + ((j - 1) * l)) (2 * l) in
    let p0 = Broadword.select_in_word x (j - 1) in
    let p1 = p0 + 1 + Broadword.lowest_bit (x lsr (p0 + 1)) in
    ( irank,
      first + (((p0 - j + 1) lsl l) lor (y land ((1 lsl l) - 1))),
      first + (((p1 - j) lsl l) lor (y lsr l)) )
  end
  else
    let x = Membuf.get_bits t.mb pos hw in
    let p0 = Broadword.select_in_word x (j - 1) in
    let p1 = p0 + 1 + Broadword.lowest_bit (x lsr (p0 + 1)) in
    (irank, entry t ~first ~lows ~l (j - 1) p0, entry t ~first ~lows ~l j p1)

let internal_count t =
  let r = record t (records t.nodes - 1) in
  let a = group t r t.ga in
  field t r a 32 t.wr + Broadword.popcount (field t r a 0 32)

let check t =
  let check cond fmt = Printf.ksprintf (fun m -> if not cond then failwith m) fmt in
  let rank = ref 0 and next_body = ref 0 and prev = ref 0 in
  let check_block b =
    let ra = record t b in
    let rb = ra + t.ga in
    let a = group t ra t.ga and g = group t rb t.gb in
    let topo = field t ra a 0 32 in
    check (field t ra a 32 t.wr = !rank) "directory record %d: bad rank sample" b;
    check (topo lsr Int.min block (t.nodes - (block * b)) = 0)
      "directory record %d: topology bits past the last node" b;
    rank := !rank + Broadword.popcount topo;
    check (field t rb g (o_body t) t.wp = !next_body) "directory record %d: body out of order" b;
    let c = entries t.nodes b and l = field t rb g 0 t.wl in
    let hw = c + field t rb g (o_zeros t) 5 and pos = t.bodies_bit + !next_body in
    check_body t ~pos ~hw ~c ~l;
    let x = Membuf.get_bits t.mb pos hw in
    check
      (Broadword.popcount x = c && if c = 0 then hw = 0 else x lsr (hw - 1) = 1)
      "directory block %d: bad high part" b;
    next_body := !next_body + hw + (c * l);
    for i = block * b to (block * b) + c do
      let v = get t i in
      check (v >= !prev && v <= t.universe) "directory offset %d: %d outside [%d, %d]" i v !prev
        t.universe;
      prev := v
    done
  in
  for b = 0 to records t.nodes - 1 do
    try check_block b
    with Invalid_argument m -> failwith (Printf.sprintf "directory block %d: %s" b m)
  done;
  check (t.bodies_bit + !next_body = t.stream_end) "directory bodies end %d bits short of the stream"
    (t.stream_end - t.bodies_bit - !next_body)
