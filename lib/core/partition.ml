(* Bulk construction of the static and the append-only pointer trie
   (Definition 3.1): [build] calls [leaf α count] at each leaf and
   [node α β zero one] at each internal node, children first, over a
   non-empty [strings]; a string set that is not prefix-free raises
   [Invalid_argument not_prefix_free].  The recursion works on sequence
   indices and the [off] bits every string at a node shares (its root
   path), so suffixes are never materialized. *)

module Bitstring = Wt_strings.Bitstring
module Bitbuf = Wt_bits.Bitbuf

let build ~not_prefix_free ~leaf ~node strings =
  let rec go idxs off =
    let m = Array.length idxs in
    let first = strings.(idxs.(0)) in
    (* α = lcp of all suffixes; each comparison only needs to reach the
       running α length, never the ends of the strings *)
    let alpha_len = ref (Bitstring.length first - off) in
    let k = ref 1 in
    while !k < m && !alpha_len > 0 do
      let s = strings.(idxs.(!k)) in
      let cap = min !alpha_len (Bitstring.length s - off) in
      let l = Bitstring.lcp (Bitstring.sub first off cap) (Bitstring.sub s off cap) in
      if l < !alpha_len then alpha_len := l;
      incr k
    done;
    let alpha = Bitstring.sub first off !alpha_len and stop = off + !alpha_len in
    (* Constant subsequence <=> every string ends exactly at [stop]. *)
    let ends = ref 0 in
    Array.iter (fun i -> if Bitstring.length strings.(i) = stop then incr ends) idxs;
    if !ends = m then leaf alpha m
    else if !ends > 0 then invalid_arg not_prefix_free
    else begin
      let bits = Bitbuf.create ~capacity_bits:m () in
      Array.iter (fun i -> Bitbuf.add bits (Bitstring.get strings.(i) stop)) idxs;
      let n1 = Bitbuf.pop_count bits 0 m in
      let zeros = Array.make (m - n1) 0 and ones = Array.make n1 0 in
      let zi = ref 0 and oi = ref 0 in
      Array.iteri
        (fun k i ->
          if Bitbuf.get bits k then begin
            ones.(!oi) <- i;
            incr oi
          end
          else begin
            zeros.(!zi) <- i;
            incr zi
          end)
        idxs;
      let zero = go zeros (stop + 1) in
      node alpha bits zero (go ones (stop + 1))
    end
  in
  go (Array.init (Array.length strings) Fun.id) 0
