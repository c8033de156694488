(* Block-compressed posting lists, the only in-memory form of a posting
   list. A posting list is a strictly ascending array of node ids, kept
   as delta+varint blocks of [Codec.block_size] entries plus a skip table
   of per-block first values, so a membership probe decodes at most one
   block instead of the whole list. *)

type t = {
  count : int;
  skips : int array;   (* skips.(b) = first value of block b *)
  offsets : int array; (* offsets.(b) = byte offset of block b in data;
                          length nblocks + 1, last = String.length data *)
  data : string;       (* concatenated delta+varint blocks *)
}

let block = Codec.block_size

let length t = t.count

let nblocks t = Array.length t.skips

let byte_size t =
  (* the resident footprint: compressed bytes plus the two side tables
     (one word per block each) and the record itself *)
  String.length t.data + (8 * (Array.length t.skips + Array.length t.offsets)) + 32

(* read-only — the shared empty posting list; never mutated after creation *)
let empty = { count = 0; skips = [||]; offsets = [| 0 |]; data = "" }

let of_array arr =
  let n = Array.length arr in
  if n = 0 then empty
  else begin
    let nb = (n + block - 1) / block in
    let skips = Array.make nb 0 in
    let offsets = Array.make (nb + 1) 0 in
    let buf = Buffer.create (n * 2) in
    let add_varint v =
      if v < 0 then invalid_arg "Packed_postings.of_array: negative id";
      let rec loop v =
        if v < 0x80 then Buffer.add_char buf (Char.chr v)
        else begin
          Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
          loop (v lsr 7)
        end
      in
      loop v
    in
    for b = 0 to nb - 1 do
      let lo = b * block in
      let hi = min n (lo + block) in
      if b > 0 && arr.(lo) <= arr.(lo - 1) then
        invalid_arg "Packed_postings.of_array: not strictly ascending";
      skips.(b) <- arr.(lo);
      offsets.(b) <- Buffer.length buf;
      add_varint arr.(lo);
      for i = lo + 1 to hi - 1 do
        if arr.(i) <= arr.(i - 1) then
          invalid_arg "Packed_postings.of_array: not strictly ascending";
        add_varint (arr.(i) - arr.(i - 1))
      done
    done;
    let data = Buffer.contents buf in
    offsets.(nb) <- String.length data;
    { count = n; skips; offsets; data }
  end

let block_length t b = min t.count ((b + 1) * block) - (b * block)

(* Decode block [b]'s entries into [out] from index [pos]. *)
let decode_block_into t b out pos =
  let r = Codec.reader t.data in
  Codec.seek r t.offsets.(b);
  let prev = ref 0 in
  for i = 0 to block_length t b - 1 do
    let v = Codec.read_varint r in
    let node = if i = 0 then v else !prev + v in
    out.(pos + i) <- node;
    prev := node
  done

(* The whole list, decoded straight into one array. On the query path
   this runs once per keyword per query per segment, in Eval_ctx.make;
   every later stage of the query reads the array it returned. *)
let to_array t =
  let out = Array.make t.count 0 in
  for b = 0 to nblocks t - 1 do
    decode_block_into t b out (b * block)
  done;
  out

(* Membership: binary-search the skip table for the last block whose
   first value is <= x, then decode that one block only as far as x. *)
let mem t x =
  if t.count = 0 || x < t.skips.(0) then false
  else begin
    let lo = ref 0 and hi = ref (nblocks t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.skips.(mid) <= x then lo := mid else hi := mid - 1
    done;
    let b = !lo in
    let r = Codec.reader t.data in
    Codec.seek r t.offsets.(b);
    let n = block_length t b in
    let rec scan i prev =
      i < n
      &&
      let node = prev + Codec.read_varint r in
      node = x || (node < x && scan (i + 1) node)
    in
    scan 0 0
  end

(* ------------------------------------------------------------------ *)
(* Codec embedding, for Snapshot's index section. *)

let encode w t =
  Codec.write_varint w t.count;
  Codec.write_varint w (Array.length t.skips);
  let prev = ref 0 in
  Array.iter
    (fun s ->
      Codec.write_varint w (s - !prev);
      prev := s)
    t.skips;
  let prev = ref 0 in
  Array.iter
    (fun o ->
      Codec.write_varint w (o - !prev);
      prev := o)
    t.offsets;
  Codec.write_string w t.data

let decode r =
  let count = Codec.read_count r in
  let nb = Codec.read_count r in
  if nb <> (count + block - 1) / block then
    raise (Codec.Corrupt (Printf.sprintf "packed postings: %d blocks for %d entries" nb count));
  let prev = ref 0 in
  let skips =
    Array.init nb (fun _ ->
        let s = !prev + Codec.read_varint r in
        prev := s;
        s)
  in
  let prev = ref 0 in
  let offsets =
    Array.init (max 1 (nb + 1)) (fun _ ->
        let o = !prev + Codec.read_varint r in
        prev := o;
        o)
  in
  let data = Codec.read_string r in
  if offsets.(Array.length offsets - 1) <> String.length data then
    raise (Codec.Corrupt "packed postings: offset table disagrees with data length");
  { count; skips; offsets; data }
