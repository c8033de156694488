(* Crafting snapshot images for the integrity tests: read a snapshot's
   header and sections, and lay them out again with a section replaced
   and every digest recomputed, so a test can alter a section
   consistently and reach the checks past the digests. *)

module Codec = Extract_store.Codec

let page = 4096

let read path = In_channel.with_open_bin path In_channel.input_all

let write path data = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* A varint of a 63-bit int, negative ones included (nine bytes, the
   top bit set), which [Codec.write_varint] refuses to write. *)
let raw_varint n =
  let b = Buffer.create 9 in
  let rec loop n =
    if n >= 0 && n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7F)));
      loop (n lsr 7)
    end
  in
  loop n;
  Buffer.contents b

(* The header, as Snapshot writes it: magic, version, endianness probe,
   word size, node and element counts, fingerprint, then the section
   table (name, offset, length, MD5). [sections] returns the header up to
   the table and each section's name and exact bytes. *)
let sections data =
  let r = Codec.reader data in
  ignore (Codec.read_string r);
  ignore (Codec.read_varint r);
  ignore (Codec.read_fixed64 r);
  ignore (Codec.read_varint r);
  ignore (Codec.read_varint r);
  ignore (Codec.read_varint r);
  ignore (Codec.read_string r);
  let prefix = String.sub data 0 (Codec.pos r) in
  ( prefix,
    List.init (Codec.read_varint r) (fun _ ->
        let name = Codec.read_string r in
        let offset = Codec.read_varint r in
        let length = Codec.read_varint r in
        ignore (Codec.read_string r);
        name, String.sub data offset length) )

(* Lay a header prefix and sections out again with fresh offsets and
   digests. *)
let assemble prefix sections =
  let padded n = String.make (((n + page - 1) / page * page) - n) '\000' in
  let w = Codec.writer () in
  Codec.write_varint w (List.length sections);
  let offset = ref page in
  List.iter
    (fun (name, body) ->
      Codec.write_string w name;
      Codec.write_varint w !offset;
      Codec.write_varint w (String.length body);
      Codec.write_string w (Digest.to_hex (Digest.string body));
      offset := !offset + String.length body + String.length (padded (String.length body)))
    sections;
  let header = prefix ^ Codec.contents w in
  String.concat ""
    ((header ^ padded (String.length header))
    :: List.map (fun (_, body) -> body ^ padded (String.length body)) sections)

let section data name = List.assoc name (snd (sections data))

(* Re-lay an image with one section replaced, re-digested. *)
let with_section data name f =
  let prefix, secs = sections data in
  assemble prefix (List.map (fun (n, body) -> n, if n = name then f body else body) secs)

(* Where a section's bytes start in the file. *)
let section_offset data name =
  let r = Codec.reader data in
  let prefix, _ = sections data in
  Codec.seek r (String.length prefix);
  let rec find k =
    if k = 0 then raise Not_found
    else
      let n = Codec.read_string r in
      let offset = Codec.read_varint r in
      ignore (Codec.read_varint r);
      ignore (Codec.read_string r);
      if n = name then offset else find (k - 1)
  in
  find (Codec.read_varint r)

(* One posting list in the index section's packed layout, written with
   raw varints so that a list may go down or repeat. *)
let packed_list arr =
  let block = Codec.block_size in
  let n = Array.length arr in
  let nb = (n + block - 1) / block in
  let blocks =
    List.init nb (fun b ->
        String.concat ""
          (List.init
             (min n ((b + 1) * block) - (b * block))
             (fun k ->
               let i = (b * block) + k in
               raw_varint (if k = 0 then arr.(i) else arr.(i) - arr.(i - 1)))))
  in
  let w = Buffer.create 64 in
  let add = Buffer.add_string w in
  add (raw_varint n);
  add (raw_varint nb);
  ignore
    (List.fold_left
       (fun prev b ->
         let first = arr.(b * block) in
         add (raw_varint (first - prev));
         first)
       0
       (List.init nb Fun.id));
  add (raw_varint 0);
  List.iter (fun s -> add (raw_varint (String.length s))) blocks;
  let data = String.concat "" blocks in
  add (raw_varint (String.length data));
  add data;
  Buffer.contents w

(* An index section: the arena fingerprint, the tokens, one list per
   token, then the tag-token pairs. *)
let index_section ~fingerprint ~pairs lists =
  let w = Codec.writer () in
  Codec.write_string w fingerprint;
  Codec.write_varint w (List.length lists);
  List.iter (fun (token, _) -> Codec.write_string w token) lists;
  Codec.write_varint w (List.length lists);
  let head = Codec.contents w in
  let w = Codec.writer () in
  Codec.write_varint w (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      Codec.write_varint w a;
      Codec.write_varint w b)
    pairs;
  head ^ String.concat "" (List.map (fun (_, arr) -> packed_list arr) lists) ^ Codec.contents w

(* The fingerprint an index section opens with. *)
let index_fingerprint data = Codec.read_string (Codec.reader (section data "index"))

(* The analysis section's layout, read as Snapshot writes it: the path
   count, six varints per path (parent + 1, tag, depth, instance count,
   kind, star flags), the entity count, then per entity its path, its
   candidates (path, two raw floats, strict flag), key and strict key
   (0 for none, else path + 1). Returns each path field's position and,
   per entity, its candidates and the position and value of its key. *)
let analysis_layout payload =
  let r = Codec.reader payload in
  let varint_at () =
    let at = Codec.pos r in
    at, Codec.read_varint r
  in
  let n = Codec.read_varint r in
  let fields = Array.init n (fun _ -> Array.init 6 (fun _ -> fst (varint_at ()))) in
  let entities =
    List.init (Codec.read_varint r) (fun _ ->
        let e = Codec.read_varint r in
        let cands =
          List.init (Codec.read_varint r) (fun _ ->
              let a = Codec.read_varint r in
              ignore (Codec.read_fixed64 r);
              ignore (Codec.read_fixed64 r);
              ignore (Codec.read_varint r);
              a)
        in
        let key = varint_at () in
        ignore (Codec.read_varint r);
        e, cands, key)
  in
  fields, entities

(* Overwrite a one-byte varint with another one-byte value. *)
let set_byte payload at v =
  assert (Char.code payload.[at] < 0x80 && v < 0x80);
  let b = Bytes.of_string payload in
  Bytes.set b at (Char.chr v);
  Bytes.to_string b
