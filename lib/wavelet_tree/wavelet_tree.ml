module Bitbuf = Wt_bits.Bitbuf
module Broadword = Wt_bits.Broadword

module type FID_BUILD = sig
  include Wt_bitvector.Fid.STATIC

  val of_bitbuf : Bitbuf.t -> t
end

(* Levelwise layout with in-place node refinement: at level l the
   sequence is stably sorted by its top-l bits, so the node for any l-bit
   symbol prefix occupies a contiguous interval [lo, hi) that contains,
   at level l+1, its 0-child block followed by its 1-child block.
   Descending with bit b from interval [lo, hi) with z zeros:
     pos_0 = lo + rank0(pos) - rank0(lo)         child = [lo, lo+z)
     pos_1 = lo + z + rank1(pos) - rank1(lo)     child = [lo+z, hi). *)
module Make (F : FID_BUILD) = struct
  type t = {
    n : int;
    sigma : int;
    levels : int;
    bvs : F.t array; (* one bitvector of n bits per level *)
  }

  let length t = t.n
  let sigma t = t.sigma
  let levels t = t.levels

  let of_array ~sigma a =
    if sigma < 1 then invalid_arg "Wavelet_tree.of_array: sigma < 1";
    Array.iter
      (fun x ->
        if x < 0 || x >= sigma then
          invalid_arg "Wavelet_tree.of_array: symbol out of range")
      a;
    let n = Array.length a in
    let levels = if sigma = 1 then 0 else Broadword.bit_width (sigma - 1) in
    let bufs = Array.init levels (fun _ -> Bitbuf.create ~capacity_bits:n ()) in
    (* DFS over the implicit symbol tree emits, per level, the node
       bitvectors in left-to-right order — exactly the level layout. *)
    let rec go lvl elems =
      if lvl < levels && Array.length elems > 0 then begin
        let shift = levels - 1 - lvl in
        let ones = ref 0 in
        Array.iter
          (fun x ->
            let b = (x lsr shift) land 1 = 1 in
            Bitbuf.add bufs.(lvl) b;
            if b then incr ones)
          elems;
        let z = Array.make (Array.length elems - !ones) 0 in
        let o = Array.make !ones 0 in
        let zi = ref 0 and oi = ref 0 in
        Array.iter
          (fun x ->
            if (x lsr shift) land 1 = 1 then begin
              o.(!oi) <- x;
              incr oi
            end
            else begin
              z.(!zi) <- x;
              incr zi
            end)
          elems;
        go (lvl + 1) z;
        go (lvl + 1) o
      end
    in
    go 0 a;
    { n; sigma; levels; bvs = Array.map F.of_bitbuf bufs }

  let access t pos0 =
    if pos0 < 0 || pos0 >= t.n then invalid_arg "Wavelet_tree.access";
    let sym = ref 0 in
    let lo = ref 0 and hi = ref t.n and pos = ref pos0 in
    for lvl = 0 to t.levels - 1 do
      let bv = t.bvs.(lvl) in
      let z_lo = F.rank bv false !lo and z_hi = F.rank bv false !hi in
      let zeros = z_hi - z_lo in
      if F.access bv !pos then begin
        sym := (!sym lsl 1) lor 1;
        pos := !lo + zeros + (F.rank bv true !pos - (!lo - z_lo));
        lo := !lo + zeros
      end
      else begin
        sym := !sym lsl 1;
        pos := !lo + (F.rank bv false !pos - z_lo);
        hi := !lo + zeros
      end
    done;
    !sym

  let rank t sym pos =
    if pos < 0 || pos > t.n then invalid_arg "Wavelet_tree.rank";
    if sym < 0 || sym >= t.sigma then 0
    else begin
      let lo = ref 0 and hi = ref t.n and pos = ref pos in
      let lvl = ref 0 in
      while !lvl < t.levels && !lo < !hi do
        let bv = t.bvs.(!lvl) in
        let b = (sym lsr (t.levels - 1 - !lvl)) land 1 = 1 in
        let z_lo = F.rank bv false !lo and z_hi = F.rank bv false !hi in
        let zeros = z_hi - z_lo in
        if b then begin
          pos := !lo + zeros + (F.rank bv true !pos - (!lo - z_lo));
          lo := !lo + zeros
        end
        else begin
          pos := !lo + (F.rank bv false !pos - z_lo);
          hi := !lo + zeros
        end;
        incr lvl
      done;
      if !lo >= !hi then 0 else !pos - !lo
    end

  let select t sym idx =
    if idx < 0 then invalid_arg "Wavelet_tree.select";
    if sym < 0 || sym >= t.sigma then None
    else begin
      (* Top-down: record each level's node interval. *)
      let path = Array.make (t.levels + 1) (0, 0) in
      let lo = ref 0 and hi = ref t.n in
      for lvl = 0 to t.levels - 1 do
        path.(lvl) <- (!lo, !hi);
        if !lo < !hi then begin
          let bv = t.bvs.(lvl) in
          let b = (sym lsr (t.levels - 1 - lvl)) land 1 = 1 in
          let z_lo = F.rank bv false !lo and z_hi = F.rank bv false !hi in
          let zeros = z_hi - z_lo in
          if b then lo := !lo + zeros else hi := !lo + zeros
        end
      done;
      if idx >= !hi - !lo then None
      else begin
        (* Bottom-up with select. *)
        let pos = ref (!lo + idx) in
        for lvl = t.levels - 1 downto 0 do
          let bv = t.bvs.(lvl) in
          let b = (sym lsr (t.levels - 1 - lvl)) land 1 = 1 in
          let plo, phi = path.(lvl) in
          let z_plo = F.rank bv false plo in
          if b then begin
            let zeros = F.rank bv false phi - z_plo in
            let one_idx = !pos - (plo + zeros) in
            pos := F.select bv true (plo - z_plo + one_idx)
          end
          else begin
            let zero_idx = !pos - plo in
            pos := F.select bv false (z_plo + zero_idx)
          end
        done;
        Some !pos
      end
    end

  let range_count t ~lo ~hi ~sym_lo ~sym_hi =
    if lo < 0 || hi > t.n || lo > hi then invalid_arg "Wavelet_tree.range_count";
    let width = if t.levels = 0 then 1 else 1 lsl t.levels in
    let qlo = max 0 sym_lo and qhi = min width sym_hi in
    (* [nlo, nhi) is the node's interval at this level; [lo, hi) the query
       positions inside it; [node_sym, node_sym + node_width) the node's
       symbol range. *)
    let rec go lvl nlo nhi lo hi node_sym node_width qlo qhi =
      if lo >= hi || qlo >= qhi then 0
      else if qlo <= node_sym && node_sym + node_width <= qhi then hi - lo
      else begin
        (* node_width > 1 here, so lvl < t.levels *)
        let bv = t.bvs.(lvl) in
        let z_nlo = F.rank bv false nlo in
        let zeros_node = F.rank bv false nhi - z_nlo in
        let z_lo = F.rank bv false lo - z_nlo and z_hi = F.rank bv false hi - z_nlo in
        let o_lo = lo - nlo - z_lo and o_hi = hi - nlo - z_hi in
        let half = node_width / 2 in
        let mid = nlo + zeros_node in
        go (lvl + 1) nlo mid (nlo + z_lo) (nlo + z_hi) node_sym half qlo
          (min qhi (node_sym + half))
        + go (lvl + 1) mid nhi (mid + o_lo) (mid + o_hi) (node_sym + half) half
            (max qlo (node_sym + half))
            qhi
      end
    in
    go 0 0 t.n lo hi 0 width qlo qhi

  (* k-th smallest symbol among positions [lo, hi) (range quantile,
     Gagie-Navarro-Puglisi [11]).  Track the node interval [nlo, nhi) and
     the query positions [lo, hi) inside it; take the 0-branch while it
     holds more than k of the range's elements.  Requires 0 <= k < hi-lo. *)
  let range_quantile t ~lo ~hi k =
    if lo < 0 || hi > t.n || lo > hi then invalid_arg "Wavelet_tree.range_quantile";
    if k < 0 || k >= hi - lo then invalid_arg "Wavelet_tree.range_quantile: bad k";
    let sym = ref 0 in
    let nlo = ref 0 and nhi = ref t.n in
    let lo = ref lo and hi = ref hi and k = ref k in
    for lvl = 0 to t.levels - 1 do
      let bv = t.bvs.(lvl) in
      let z_nlo = F.rank bv false !nlo in
      let zeros_node = F.rank bv false !nhi - z_nlo in
      let z_lo = F.rank bv false !lo - z_nlo and z_hi = F.rank bv false !hi - z_nlo in
      let zeros = z_hi - z_lo in
      let mid = !nlo + zeros_node in
      if !k < zeros then begin
        sym := !sym lsl 1;
        lo := !nlo + z_lo;
        hi := !nlo + z_hi;
        nhi := mid
      end
      else begin
        sym := (!sym lsl 1) lor 1;
        k := !k - zeros;
        let o_lo = !lo - !nlo - z_lo and o_hi = !hi - !nlo - z_hi in
        lo := mid + o_lo;
        hi := mid + o_hi;
        nlo := mid
      end
    done;
    !sym

  let level_bits t i =
    let bv = t.bvs.(i) in
    String.init (F.length bv) (fun j -> if F.access bv j then '1' else '0')

  let space_bits t =
    Array.fold_left (fun acc bv -> acc + F.space_bits bv) (64 * 4) t.bvs
end

module Over_plain = Make (Wt_bitvector.Plain)

module Forced_rrr = struct
  include Wt_bitvector.Rrr

  let of_bitbuf buf =
    let len = Bitbuf.length buf and bb = Bitbuf.create () in
    let block i = Bitbuf.get_bits buf (i * 62) (Int.min 62 (len - (i * 62))) in
    append_blocks ~code:Rrr bb (Array.init ((len + 61) / 62) block) ~len;
    of_blob bb ~len
end

module Over_rrr = Make (Forced_rrr)
