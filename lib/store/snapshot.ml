module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry

let packs_total =
  Registry.counter ~help:"Snapshots written" "extract_snapshot_packs_total"

let maps_total =
  Registry.counter ~help:"Snapshots mapped" "extract_snapshot_maps_total"

(* residency proxy: bytes this process has mmap'd from snapshots since
   start (mappings live until the bigarrays are collected, so this is an
   upper bound on snapshot-backed address space, not RSS) *)
let mapped_bytes = Atomic.make 0

let mapped_bytes_gauge =
  Registry.gauge ~help:"Bytes of snapshot sections mapped since process start"
    "extract_snapshot_mapped_bytes"

let magic = "XTRSNAP2"

(* 3: the meta section carries a live generation's number and member
   names, and the fingerprint digests the arena sections' digests.
   2 added the analysis (path column and table, kinds, keys). An older
   file must be packed again. *)
let version = 3

(* An asymmetric byte pattern: read back through a native-endian fixed64
   on a foreign-endian machine it comes out reversed, which is the whole
   point — varints cannot carry that signal. *)
let endian_probe = 0x00FF01FE02FD03FCL

(* Every section starts on a page boundary so [Unix.map_file] can map it
   directly; the header owns the first page. *)
let page = 4096

let align n = (n + page - 1) / page * page

(* Section names, in file order. The int columns and the text blob are
   the mappable bulk; kinds/meta/index/analysis are small and read
   conventionally. *)
let section_names =
  [ "tag"; "parent"; "depth"; "size"; "path"; "kinds"; "textoff"; "textblob"; "meta"; "index";
    "analysis" ]

type section = {
  name : string;
  offset : int;
  length : int; (* exact byte length, before padding *)
  md5 : string; (* hex digest of the exact bytes *)
}

type header = {
  node_count : int;
  element_count : int;
  fingerprint : string; (* [fingerprint_of] the sections *)
  sections : section list;
}

(* The arena's identity, which the index section records so that load
   can prove the pair belongs together: a digest of the digests of the
   sections that hold the arena (its columns, text and meta). *)
let arena_sections = [ "tag"; "parent"; "depth"; "size"; "kinds"; "textoff"; "textblob"; "meta" ]

let fingerprint_of sections =
  List.filter (fun s -> List.mem s.name arena_sections) sections
  |> List.map (fun s -> s.md5)
  |> String.concat "" |> Digest.string |> Digest.to_hex

type contents = {
  keys : Key_miner.t;
  index : Inverted_index.t;
  generation : int;
  members : string list;
}

(* ------------------------------------------------------------------ *)
(* Encoding *)

let int_arr_bytes (a : Document.int_arr) =
  let n = Bigarray.Array1.dim a in
  let buf = Buffer.create (n * 8) in
  for i = 0 to n - 1 do
    Buffer.add_int64_ne buf (Int64.of_int (Bigarray.Array1.unsafe_get a i))
  done;
  Buffer.contents buf

let char_arr_bytes (a : Document.char_arr) =
  let n = Bigarray.Array1.dim a in
  String.init n (fun i -> Bigarray.Array1.unsafe_get a i)

let meta_payload (src : Document.Flat.source) ~generation ~members =
  let w = Codec.writer () in
  (match src.Document.Flat.dtd_source with
  | None -> Codec.write_varint w 0
  | Some s ->
    Codec.write_varint w 1;
    Codec.write_string w s);
  Codec.write_varint w (Array.length src.Document.Flat.tag_names);
  Array.iter (Codec.write_string w) src.Document.Flat.tag_names;
  Codec.write_varint w generation;
  Codec.write_varint w (List.length members);
  List.iter (Codec.write_string w) members;
  Codec.contents w

let index_payload ~fingerprint index =
  let w = Codec.writer () in
  Codec.write_string w fingerprint;
  let tokens = Inverted_index.Internal.token_names index in
  Codec.write_varint w (Array.length tokens);
  Array.iter (Codec.write_string w) tokens;
  let packed = Inverted_index.Internal.packed_lists index in
  Codec.write_varint w (Array.length packed);
  Array.iter (Packed_postings.encode w) packed;
  let pairs = Inverted_index.Internal.tag_token_pairs index in
  Codec.write_varint w (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      Codec.write_varint w a;
      Codec.write_varint w b)
    pairs;
  Codec.contents w

let kind_code = function
  | Node_kind.Entity -> 0
  | Node_kind.Attribute -> 1
  | Node_kind.Connection -> 2

let kind_of_code = function
  | 0 -> Some Node_kind.Entity
  | 1 -> Some Node_kind.Attribute
  | 2 -> Some Node_kind.Connection
  | _ -> None

(* The Data Analyzer's output, small beside the arena: the path table
   (parent + 1, tag, depth, instance count, kind, starred flags), then
   per entity path its key candidates (statistics as raw float bits),
   key and strict key (0 for none, else path + 1). The per-node path
   column is a mapped section of its own. *)
let analysis_payload keys =
  let kinds = Key_miner.kinds keys in
  let guide = Node_kind.dataguide kinds and schema = Node_kind.schema kinds in
  let w = Codec.writer () in
  let write_path = function None -> Codec.write_varint w 0 | Some p -> Codec.write_varint w (p + 1) in
  let n = Dataguide.path_count guide in
  Codec.write_varint w n;
  for p = 0 to n - 1 do
    write_path (Dataguide.parent_path guide p);
    Codec.write_varint w (Dataguide.path_tag guide p);
    Codec.write_varint w (Dataguide.path_depth guide p);
    Codec.write_varint w (Dataguide.instance_count guide p);
    Codec.write_varint w (kind_code (Node_kind.kind_of_path kinds p));
    Codec.write_varint w
      (Bool.to_int (Schema_infer.is_starred schema p)
       lor if Schema_infer.source schema p = `Dtd then 2 else 0)
  done;
  let entities = Node_kind.entity_paths kinds in
  Codec.write_varint w (List.length entities);
  List.iter
    (fun e ->
      Codec.write_varint w e;
      let cands = Key_miner.candidates keys e in
      Codec.write_varint w (List.length cands);
      List.iter
        (fun (c : Key_miner.candidate) ->
          Codec.write_varint w c.attribute;
          Codec.write_fixed64 w (Int64.bits_of_float c.coverage);
          Codec.write_fixed64 w (Int64.bits_of_float c.uniqueness);
          Codec.write_varint w (Bool.to_int c.strict))
        cands;
      write_path (Key_miner.key_path keys e);
      write_path (Key_miner.strict_key_path keys e))
    entities;
  Codec.contents w

let header_bytes (h : header) =
  let w = Codec.writer () in
  Codec.write_string w magic;
  Codec.write_varint w version;
  Codec.write_fixed64 w endian_probe;
  Codec.write_varint w Sys.int_size;
  Codec.write_varint w h.node_count;
  Codec.write_varint w h.element_count;
  Codec.write_string w h.fingerprint;
  Codec.write_varint w (List.length h.sections);
  List.iter
    (fun s ->
      Codec.write_string w s.name;
      Codec.write_varint w s.offset;
      Codec.write_varint w s.length;
      Codec.write_string w s.md5)
    h.sections;
  let raw = Codec.contents w in
  if String.length raw > page then
    raise (Codec.Corrupt (Printf.sprintf "snapshot header overflows its page (%d bytes)"
                            (String.length raw)));
  raw ^ String.make (page - String.length raw) '\000'

let encode ?(generation = 0) ?(members = []) keys index =
  let guide = Node_kind.dataguide (Key_miner.kinds keys) in
  let doc = Dataguide.document guide in
  let src = Document.Flat.to_source doc in
  (* lay out: header page, then each section padded to a page boundary *)
  let off = ref page in
  let section (name, body) =
    let s = { name; offset = !off; length = String.length body; md5 = Digest.to_hex (Digest.string body) } in
    off := align (!off + String.length body);
    s, body
  in
  (* the index section records the fingerprint of the sections before it *)
  let leading =
    List.map section
      [
        "tag", int_arr_bytes src.Document.Flat.tag;
        "parent", int_arr_bytes src.Document.Flat.parent;
        "depth", int_arr_bytes src.Document.Flat.depth;
        "size", int_arr_bytes src.Document.Flat.size;
        "path", int_arr_bytes (Dataguide.path_column guide);
        "kinds", Bytes.to_string src.Document.Flat.kinds;
        "textoff", int_arr_bytes src.Document.Flat.text_offsets;
        "textblob", char_arr_bytes src.Document.Flat.text_blob;
        "meta", meta_payload src ~generation ~members;
      ]
  in
  let fingerprint = fingerprint_of (List.map fst leading) in
  let sections, bodies =
    List.split
      (leading
      @ List.map section
          [ "index", index_payload ~fingerprint index; "analysis", analysis_payload keys ])
  in
  let header =
    {
      node_count = Bigarray.Array1.dim src.Document.Flat.tag;
      element_count = src.Document.Flat.element_count;
      fingerprint;
      sections;
    }
  in
  let buf = Buffer.create !off in
  Buffer.add_string buf (header_bytes header);
  List.iter2
    (fun s body ->
      assert (Buffer.length buf = s.offset);
      Buffer.add_string buf body;
      let padded = align (s.offset + s.length) in
      Buffer.add_string buf (String.make (padded - s.offset - s.length) '\000'))
    sections bodies;
  Buffer.contents buf

(* The one durable writer: a crash at any instant leaves the old file or
   the new one at [path], never a torn mixture; a stray temp file is
   all it can leave behind. *)
let save ?generation ?members path keys index =
  Faults.hit "snapshot.write";
  let tmp = path ^ ".tmp" in
  Durable.write_file_fsync tmp (encode ?generation ?members keys index);
  Faults.hit "snapshot.rename";
  Unix.rename tmp path;
  Durable.fsync_dir (Filename.dirname path);
  Registry.incr packs_total

(* ------------------------------------------------------------------ *)
(* Decoding *)

let file_magic path =
  let head =
    In_channel.with_open_bin path (fun ic ->
        really_input_string ic (min 16 (Int64.to_int (In_channel.length ic))))
  in
  match Codec.read_string (Codec.reader head) with
  | magic -> Some magic
  | exception (Codec.Corrupt _ | Codec.Truncated _) -> None

let parse_header ~path raw =
  let r = Codec.reader raw in
  let m = Codec.read_string r in
  if m <> magic then
    raise (Codec.Corrupt (Printf.sprintf "%s: bad snapshot magic %S" path m));
  let v = Codec.read_varint r in
  if v <> version then
    raise
      (Codec.Corrupt
         (Printf.sprintf "%s: snapshot version %d, this build reads version %d%s" path v version
            (if v < version then "; pack it again from its source with `extract pack`" else "")));
  let probe = Codec.read_fixed64 r in
  if probe <> endian_probe then
    raise (Codec.Corrupt (Printf.sprintf "%s: endianness mismatch (written on a foreign-endian machine)" path));
  let ws = Codec.read_varint r in
  if ws <> Sys.int_size then
    raise (Codec.Corrupt (Printf.sprintf "%s: word size mismatch (file %d bits, host %d)" path ws Sys.int_size));
  let node_count = Codec.read_varint r in
  let element_count = Codec.read_varint r in
  let fingerprint = Codec.read_string r in
  let n = Codec.read_count r in
  let sections =
    List.init n (fun _ ->
        let name = Codec.read_string r in
        let offset = Codec.read_varint r in
        let length = Codec.read_varint r in
        let md5 = Codec.read_string r in
        { name; offset; length; md5 })
  in
  let found = List.map (fun s -> s.name) sections in
  if found <> section_names then
    raise (Codec.Corrupt (Printf.sprintf "%s: unexpected section table [%s]" path
                            (String.concat "; " found)));
  { node_count; element_count; fingerprint; sections }

let section h name =
  (* [parse_header] guaranteed presence *)
  List.find (fun s -> s.name = name) h.sections

let read_at ic ~offset ~length =
  seek_in ic offset;
  really_input_string ic length

let read_header ~path ic =
  let file_len = in_channel_length ic in
  if file_len = 0 then
    raise
      (Codec.Truncated
         (Printf.sprintf "%s: empty file (expected a snapshot with magic %S)" path magic));
  if file_len < page then
    raise (Codec.Truncated (Printf.sprintf "%s: %d bytes is too short for a snapshot header page" path file_len));
  let h = parse_header ~path (read_at ic ~offset:0 ~length:page) in
  (* The header page carries no checksum, so every number on it is
     range-checked before anything is mapped or read; the products and
     sums are arranged so that none can wrap. *)
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt (path ^ ": " ^ m))) fmt in
  if h.element_count < 1 || h.element_count > h.node_count then
    corrupt "%d element(s) in %d node(s)" h.element_count h.node_count;
  if h.node_count > file_len / 8 then
    corrupt "%d nodes' columns cannot fit in %d bytes" h.node_count file_len;
  List.iter
    (fun s ->
      if s.offset < page || s.offset mod page <> 0 then
        corrupt "section %S starts at %d, not on a page boundary past the header" s.name
          s.offset;
      if s.length < 0 then corrupt "section %S has a negative length %d" s.name s.length;
      if s.offset > file_len || s.length > file_len - s.offset then
        corrupt "section %S (%d bytes at %d) ends past the file's %d bytes" s.name s.length
          s.offset file_len)
    h.sections;
  h

(* mmap rejects zero-length mappings, so an empty section (a document
   with no text at all) gets a fresh empty bigarray instead *)
let map_int fd ~offset ~count : Document.int_arr =
  if count = 0 then Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int offset) Bigarray.int Bigarray.c_layout false
         [| count |])

let map_char fd ~offset ~count : Document.char_arr =
  if count = 0 then Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int offset) Bigarray.char Bigarray.c_layout false
         [| count |])

let decode_meta payload =
  let r = Codec.reader payload in
  let dtd_source =
    match Codec.read_varint r with
    | 0 -> None
    | 1 -> Some (Codec.read_string r)
    | n -> raise (Codec.Corrupt (Printf.sprintf "snapshot meta: bad dtd flag %d" n))
  in
  let ntags = Codec.read_count r in
  let tag_names = Array.init ntags (fun _ -> Codec.read_string r) in
  let generation = Codec.read_varint r in
  let nmembers = Codec.read_count r in
  let members = List.init nmembers (fun _ -> Codec.read_string r) in
  if not (Codec.at_end r) then raise (Codec.Corrupt "snapshot meta: trailing bytes");
  dtd_source, tag_names, generation, members

let decode_index ~doc ~fingerprint payload =
  let r = Codec.reader payload in
  let stored = Codec.read_string r in
  if stored <> fingerprint then
    raise
      (Codec.Corrupt
         (Printf.sprintf "snapshot index/arena fingerprint mismatch (index %s, arena %s)"
            stored fingerprint));
  let ntokens = Codec.read_count r in
  let tokens = Array.init ntokens (fun _ -> Codec.read_string r) in
  let nlists = Codec.read_count r in
  let packed = Array.init nlists (fun _ -> Packed_postings.decode r) in
  let npairs = Codec.read_count r in
  let tag_tokens =
    Array.init npairs (fun _ ->
        let a = Codec.read_varint r in
        let b = Codec.read_varint r in
        a, b)
  in
  if not (Codec.at_end r) then raise (Codec.Corrupt "snapshot index: trailing bytes");
  Inverted_index.Internal.of_packed ~doc ~tokens ~packed ~tag_tokens

(* Load adopts the analysis without re-deriving it, so the section is
   validated whole: every reference lands in range and the table is a
   tree of paths that accounts for every element. Whether it equals the
   derivation is [extract check]'s question. *)
let decode_analysis ~path ~doc ~node_path payload =
  let corrupt fmt =
    Printf.ksprintf (fun m -> raise (Codec.Corrupt (path ^ ": snapshot analysis: " ^ m))) fmt
  in
  let r = Codec.reader payload in
  let ntags = Extract_util.Interner.count (Document.tag_interner doc) in
  let element_count = Document.element_count doc in
  let n = Codec.read_count r in
  let parent = Array.make n (-1) and tag = Array.make n 0 and depth = Array.make n 0 in
  let counts = Array.make n 0 and kinds = Array.make n Node_kind.Connection in
  let starred = Array.make n false and sources = Array.make n false in
  let seen = Hashtbl.create 64 and total = ref 0 in
  for p = 0 to n - 1 do
    let q = Codec.read_varint r - 1 in
    if (p = 0 && q <> -1) || (p > 0 && (q < 0 || q >= p)) then
      corrupt "path %d has parent %d; a parent must precede its path" p q;
    let t = Codec.read_varint r in
    if t < 0 || t >= ntags then corrupt "path %d has tag %d of %d" p t ntags;
    Option.iter (corrupt "path %d repeats the step of path %d" p) (Hashtbl.find_opt seen (q, t));
    Hashtbl.add seen (q, t) p;
    let d = Codec.read_varint r in
    if d <> (if q < 0 then 0 else depth.(q) + 1) then corrupt "path %d has depth %d" p d;
    let c = Codec.read_varint r in
    if c < 0 || c > element_count - !total then
      corrupt "instance counts exceed the %d elements" element_count;
    let k = Codec.read_varint r in
    let kind =
      match kind_of_code k with Some kind -> kind | None -> corrupt "path %d has kind %d" p k
    in
    let flags = Codec.read_varint r in
    if flags < 0 || flags > 3 then corrupt "path %d has star flags %d" p flags;
    parent.(p) <- q;
    tag.(p) <- t;
    depth.(p) <- d;
    counts.(p) <- c;
    total := !total + c;
    kinds.(p) <- kind;
    starred.(p) <- flags land 1 <> 0;
    sources.(p) <- flags land 2 <> 0
  done;
  if !total <> element_count then
    corrupt "instance counts sum to %d, the arena has %d elements" !total element_count;
  let attribute_of e a =
    if a < 0 || a >= n || parent.(a) <> e || kinds.(a) <> Node_kind.Attribute then
      corrupt "path %d is not an attribute child of entity path %d" a e;
    a
  in
  let read_path e = match Codec.read_varint r with 0 -> None | v -> Some (attribute_of e (v - 1)) in
  let ratio what e =
    let x = Int64.float_of_bits (Codec.read_fixed64 r) in
    if not (x >= 0.0 && x <= 1.0) then corrupt "entity path %d has %s %h" e what x;
    x
  in
  let m = Codec.read_count r in
  let last = ref (-1) in
  let entries =
    List.init m (fun _ ->
        let e = Codec.read_varint r in
        if e <= !last || e >= n || kinds.(e) <> Node_kind.Entity then
          corrupt "entity path %d out of order or not an entity" e;
        last := e;
        let cands =
          List.init (Codec.read_count r) (fun _ ->
              let attribute = attribute_of e (Codec.read_varint r) in
              let coverage = ratio "coverage" e in
              let uniqueness = ratio "uniqueness" e in
              let strict =
                match Codec.read_varint r with
                | 0 -> false
                | 1 -> true
                | v -> corrupt "entity path %d has strict flag %d" e v
              in
              { Key_miner.attribute; coverage; uniqueness; strict })
        in
        let key = read_path e in
        let strict_key = read_path e in
        e, cands, key, strict_key)
  in
  if not (Codec.at_end r) then corrupt "trailing bytes";
  let guide = Dataguide.adopt doc ~node_path ~parent ~tag ~depth ~counts in
  let schema = Schema_infer.adopt guide ~starred ~sources in
  Key_miner.adopt (Node_kind.adopt schema kinds) entries

let load_analyzed path =
  if Faults.should_fail "snapshot.map" then
    raise (Codec.Corrupt (Printf.sprintf "injected fault: snapshot.map (%s)" path));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let h = read_header ~path ic in
      let n = h.node_count in
      let sec = section h in
      let expect name want =
        let s = sec name in
        if s.length <> want then
          raise
            (Codec.Corrupt
               (Printf.sprintf "%s: section %S has %d bytes, expected %d" path name s.length
                  want));
        s
      in
      let tag_s = expect "tag" (n * 8)
      and parent_s = expect "parent" (n * 8)
      and depth_s = expect "depth" (n * 8)
      and size_s = expect "size" (n * 8)
      and path_s = expect "path" (n * 8)
      and kinds_s = expect "kinds" n
      and textoff_s = expect "textoff" ((n + 1) * 8) in
      let textblob_s = sec "textblob" and meta_s = sec "meta" and index_s = sec "index" in
      let analysis_s = sec "analysis" in
      (* the bulk is mapped, not read: cold-start cost is the page table,
         not the corpus *)
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let doc, node_path, generation, members =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let node_path = map_int fd ~offset:path_s.offset ~count:n in
            let tag = map_int fd ~offset:tag_s.offset ~count:n in
            let parent = map_int fd ~offset:parent_s.offset ~count:n in
            let depth = map_int fd ~offset:depth_s.offset ~count:n in
            let size = map_int fd ~offset:size_s.offset ~count:n in
            let text_offsets = map_int fd ~offset:textoff_s.offset ~count:(n + 1) in
            let text_blob = map_char fd ~offset:textblob_s.offset ~count:textblob_s.length in
            let kinds = Bytes.of_string (read_at ic ~offset:kinds_s.offset ~length:kinds_s.length) in
            let dtd_source, tag_names, generation, members =
              decode_meta (read_at ic ~offset:meta_s.offset ~length:meta_s.length)
            in
            ( Document.Flat.of_source
                {
                  Document.Flat.dtd_source;
                  tag_names;
                  element_count = h.element_count;
                  kinds;
                  tag;
                  parent;
                  depth;
                  size;
                  text_offsets;
                  text_blob;
                },
              node_path,
              generation,
              members ))
      in
      let keys =
        decode_analysis ~path ~doc ~node_path
          (read_at ic ~offset:analysis_s.offset ~length:analysis_s.length)
      in
      let index =
        decode_index ~doc ~fingerprint:h.fingerprint
          (read_at ic ~offset:index_s.offset ~length:index_s.length)
      in
      Registry.incr maps_total;
      let mapped = (((5 * n) + (n + 1)) * 8) + textblob_s.length in
      Registry.set mapped_bytes_gauge
        (float_of_int (Atomic.fetch_and_add mapped_bytes mapped + mapped));
      { keys; index; generation; members })

let load path =
  let s = load_analyzed path in
  Node_kind.document (Key_miner.kinds s.keys), s.index

(* ------------------------------------------------------------------ *)
(* Deep verification, for [extract check] and live recovery: load never
   checksums the mapped bulk (that would re-read the corpus and defeat
   the O(1) cold-start), so the section digests recorded at pack time
   are only spent here. *)

type stats = {
  v_node_count : int;
  v_element_count : int;
  v_fingerprint : string;
  v_sections : (string * int) list; (* name, exact bytes *)
  v_file_bytes : int;
}

let verify path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let h = read_header ~path ic in
      List.iter
        (fun s ->
          let body = read_at ic ~offset:s.offset ~length:s.length in
          let sum = Digest.to_hex (Digest.string body) in
          if sum <> s.md5 then
            raise
              (Codec.Corrupt
                 (Printf.sprintf "%s: section %S checksum mismatch (damaged)" path s.name)))
        h.sections;
      (* the digests are now spent, so the fingerprint the index section
         is paired with must be theirs *)
      let actual = fingerprint_of h.sections in
      if actual <> h.fingerprint then
        raise
          (Codec.Corrupt
             (Printf.sprintf "%s: header fingerprint %s but the arena sections digest to %s"
                path h.fingerprint actual));
      {
        v_node_count = h.node_count;
        v_element_count = h.element_count;
        v_fingerprint = h.fingerprint;
        v_sections = List.map (fun s -> s.name, s.length) h.sections;
        v_file_bytes = in_channel_length ic;
      })
