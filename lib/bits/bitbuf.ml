type t = {
  id : int; (* stable identity for the memory probe *)
  mutable data : Bytes.t;
  mutable len : int; (* length in bits *)
}

(* Optional memory-access probe: when set, every read of the buffer
   reports (buffer id, byte offset, bytes touched).  Used by the cache
   simulator (Wt_workload.Cache_sim) to answer the paper's Section 7
   question about external-memory behaviour; costs one branch per read
   when unset. *)
let probe : (int -> int -> int -> unit) option ref = ref None
let set_probe f = probe := f

let touch t pos len =
  match !probe with
  | None -> ()
  | Some f -> f t.id (pos lsr 3) (((pos + len - 1) lsr 3) - (pos lsr 3) + 1)
  [@@inline]

let next_id = ref 0

let create ?(capacity_bits = 256) () =
  let nbytes = max 1 ((capacity_bits + 7) / 8) in
  incr next_id;
  { id = !next_id; data = Bytes.make nbytes '\000'; len = 0 }

let length t = t.len

let capacity_bits t = Bytes.length t.data * 8

let ensure t bits =
  let needed = (bits + 7) / 8 in
  let cur = Bytes.length t.data in
  if needed > cur then begin
    let ncap = max needed (cur * 2) in
    let ndata = Bytes.make ncap '\000' in
    Bytes.blit t.data 0 ndata 0 cur;
    t.data <- ndata
  end

let get t pos =
  if pos < 0 || pos >= t.len then invalid_arg "Bitbuf.get: out of bounds";
  touch t pos 1;
  let b = Char.code (Bytes.unsafe_get t.data (pos lsr 3)) in
  b land (1 lsl (pos land 7)) <> 0

let set t pos bit =
  if pos < 0 || pos >= t.len then invalid_arg "Bitbuf.set: out of bounds";
  let i = pos lsr 3 in
  let b = Char.code (Bytes.unsafe_get t.data i) in
  let m = 1 lsl (pos land 7) in
  let b' = if bit then b lor m else b land lnot m in
  Bytes.unsafe_set t.data i (Char.unsafe_chr (b' land 0xff))

(* [len <= 56] bits at [pos], read by one little-endian 64-bit load or
   written by one read-modify-write; the caller checks that the eight
   bytes from [pos / 8] are in [data]. *)
let[@inline] load data pos len =
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le data (pos lsr 3)) (pos land 7))
  land ((1 lsl len) - 1)

let[@inline] store data pos len v =
  let first = pos lsr 3 and shift = pos land 7 in
  let m = Int64.shift_left (Int64.of_int ((1 lsl len) - 1)) shift in
  let old = Bytes.get_int64_le data first in
  Bytes.set_int64_le data first
    (Int64.logor (Int64.logand old (Int64.lognot m)) (Int64.shift_left (Int64.of_int v) shift))

(* One load when the eight bytes from the first one lie in the backing
   store and the bits fit in them, two for a longer read, otherwise a
   byte at a time. *)

let get_bits t pos len =
  if len < 0 || len > 62 then invalid_arg "Bitbuf.get_bits: bad length";
  if pos < 0 || pos + len > t.len then invalid_arg "Bitbuf.get_bits: out of bounds";
  if len = 0 then 0
  else begin
    touch t pos len;
    let data = t.data in
    let first = pos lsr 3 in
    let shift = pos land 7 in
    if len <= 56 && first <= Bytes.length data - 8 then load data pos len
    else if (pos + 56) lsr 3 <= Bytes.length data - 8 then
      load data pos 56 lor (load data (pos + 56) (len - 56) lsl 56)
    else begin
      (* Low bits from the first byte. *)
      let acc = ref (Char.code (Bytes.unsafe_get data first) lsr shift) in
      let got = ref (8 - shift) in
      let i = ref (first + 1) in
      while !got < len do
        let remaining = len - !got in
        let b = Char.code (Bytes.unsafe_get data !i) in
        let b = if remaining < 8 then b land ((1 lsl remaining) - 1) else b in
        acc := !acc lor (b lsl !got);
        got := !got + 8;
        incr i
      done;
      !acc land (if len = 62 then (1 lsl 62) - 1 else (1 lsl len) - 1)
    end
  end

(* Like [get_bits], by read-modify-writes. *)
let set_bits t pos len v =
  if len < 0 || len > 62 then invalid_arg "Bitbuf.set_bits: bad length";
  if v < 0 then invalid_arg "Bitbuf.set_bits: negative value";
  if pos < 0 || pos + len > t.len then invalid_arg "Bitbuf.set_bits: out of bounds";
  let data = t.data in
  let v = v land (if len = 62 then (1 lsl 62) - 1 else (1 lsl len) - 1) in
  let first = pos lsr 3 in
  if len <= 56 && first <= Bytes.length data - 8 then store data pos len v
  else if len > 56 && (pos + 56) lsr 3 <= Bytes.length data - 8 then begin
    store data pos 56 (v land ((1 lsl 56) - 1));
    store data (pos + 56) (len - 56) (v lsr 56)
  end
  else
  let i = ref first in
  let shift = ref (pos land 7) in
  let written = ref 0 in
  while !written < len do
    let chunk = Int.min (8 - !shift) (len - !written) in
    let m = ((1 lsl chunk) - 1) lsl !shift in
    let b = Char.code (Bytes.unsafe_get data !i) in
    let bits = ((v lsr !written) lsl !shift) land m in
    Bytes.unsafe_set data !i (Char.unsafe_chr ((b land lnot m land 0xff) lor bits));
    written := !written + chunk;
    shift := 0;
    incr i
  done

let add t bit =
  ensure t (t.len + 1);
  t.len <- t.len + 1;
  set t (t.len - 1) bit

let add_bits t len v =
  if len < 0 || len > 62 then invalid_arg "Bitbuf.add_bits: bad length";
  ensure t (t.len + len);
  t.len <- t.len + len;
  set_bits t (t.len - len) len v

let add_run t bit n =
  if n < 0 then invalid_arg "Bitbuf.add_run";
  ensure t (t.len + n);
  let v = if bit then (1 lsl 62) - 1 else 0 in
  let remaining = ref n in
  while !remaining > 0 do
    let chunk = Int.min 62 !remaining in
    t.len <- t.len + chunk;
    set_bits t (t.len - chunk) chunk v;
    remaining := !remaining - chunk
  done

let blit src pos dst len =
  if pos < 0 || len < 0 || pos + len > src.len then invalid_arg "Bitbuf.blit";
  let remaining = ref len in
  let p = ref pos in
  while !remaining > 0 do
    let chunk = Int.min 56 !remaining in
    add_bits dst chunk (get_bits src !p chunk);
    p := !p + chunk;
    remaining := !remaining - chunk
  done

let append dst src = blit src 0 dst src.len

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Bitbuf.truncate";
  t.len <- n;
  (* Zero the dead bits of the last partial byte so future appends see a
     clean slate (appends assume fresh bytes are zero). *)
  if n land 7 <> 0 then begin
    let i = n lsr 3 in
    let keep = n land 7 in
    let b = Char.code (Bytes.unsafe_get t.data i) in
    Bytes.unsafe_set t.data i (Char.unsafe_chr (b land ((1 lsl keep) - 1)))
  end;
  (* Zero whole bytes above the new length that may contain stale data. *)
  let first_dead = (n + 7) / 8 in
  let last_dirty = Bytes.length t.data in
  if first_dead < last_dirty then
    Bytes.fill t.data first_dead (last_dirty - first_dead) '\000'

let clear t = truncate t 0

let copy t =
  incr next_id;
  { id = !next_id; data = Bytes.copy t.data; len = t.len }

let pop_count t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitbuf.pop_count";
  let acc = ref 0 in
  let p = ref pos in
  let remaining = ref len in
  (* Align to a byte boundary, then count whole bytes, then the tail. *)
  let head = Int.min !remaining ((8 - (pos land 7)) land 7) in
  if head > 0 then begin
    acc := Broadword.popcount (get_bits t !p head);
    p := !p + head;
    remaining := !remaining - head
  end;
  while !remaining >= 8 do
    acc := !acc + Broadword.popcount_byte (Char.code (Bytes.unsafe_get t.data (!p lsr 3)));
    p := !p + 8;
    remaining := !remaining - 8
  done;
  if !remaining > 0 then acc := !acc + Broadword.popcount (get_bits t !p !remaining);
  !acc

let of_string s =
  let t = create ~capacity_bits:(String.length s) () in
  String.iter
    (function
      | '0' -> add t false
      | '1' -> add t true
      | c -> invalid_arg (Printf.sprintf "Bitbuf.of_string: bad character %C" c))
    s;
  t

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let equal a b =
  a.len = b.len
  &&
  let rec go pos =
    if pos >= a.len then true
    else
      let chunk = Int.min 56 (a.len - pos) in
      get_bits a pos chunk = get_bits b pos chunk && go (pos + chunk)
  in
  go 0

let add_to_buffer buf t = Buffer.add_subbytes buf t.data 0 ((t.len + 7) / 8)

let pp fmt t = Format.pp_print_string fmt (to_string t)
let id t = t.id
