module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry

(* IO volume counters: persistence is the only disk the system touches,
   so these four series are its complete IO story. *)
let reads_total =
  Registry.counter ~help:"Persist artifacts read" "extract_persist_reads_total"

let read_bytes_total =
  Registry.counter ~help:"Bytes read from persisted artifacts"
    "extract_persist_read_bytes_total"

let writes_total =
  Registry.counter ~help:"Persist artifacts written" "extract_persist_writes_total"

let write_bytes_total =
  Registry.counter ~help:"Bytes written to persisted artifacts"
    "extract_persist_write_bytes_total"

let magic = "XTRARENA"

let version = 2

(* ------------------------------------------------------------------ *)
(* Sealed envelopes: every Persist artifact is  magic · version ·
   MD5(payload) · payload,  so corruption anywhere in the payload is
   detected up front instead of surfacing later as nonsense postings. *)

let seal ~magic payload =
  let w = Codec.writer () in
  Codec.write_string w magic;
  Codec.write_varint w version;
  Codec.write_string w (Digest.string payload);
  Codec.write_string w payload;
  Codec.contents w

let unseal ~magic:expected ~kind data =
  let r = Codec.reader data in
  let m = Codec.read_string r in
  if m <> expected then raise (Codec.Corrupt (Printf.sprintf "bad %s magic %S" kind m));
  let v = Codec.read_varint r in
  if v <> version then
    raise (Codec.Corrupt (Printf.sprintf "unsupported %s version %d (want %d)" kind v version));
  let sum = Codec.read_string r in
  let payload = Codec.read_string r in
  if not (Codec.at_end r) then
    raise (Codec.Corrupt (Printf.sprintf "trailing bytes after %s" kind));
  if Digest.string payload <> sum then
    raise (Codec.Corrupt (Printf.sprintf "%s checksum mismatch (payload damaged)" kind));
  payload

(* The sealed-envelope primitive, exposed for sibling persistence formats
   (the live store's snapshot files, the journal's self-description) so
   every artifact kind shares one corruption-detection story. *)
module Envelope = struct
  let seal = seal

  let unseal = unseal
end

let write_int_array w arr =
  Codec.write_varint w (Array.length arr);
  Array.iter (Codec.write_int w) arr

let read_int_array r =
  let n = Codec.read_count r in
  Array.init n (fun _ -> Codec.read_int r)

let write_string_array w arr =
  Codec.write_varint w (Array.length arr);
  Array.iter (Codec.write_string w) arr

let read_string_array r =
  let n = Codec.read_count r in
  Array.init n (fun _ -> Codec.read_string r)

let doc_payload doc =
  let repr = Document.Internal.to_repr doc in
  let w = Codec.writer () in
  (match repr.Document.Internal.dtd_source with
  | None -> Codec.write_varint w 0
  | Some s ->
    Codec.write_varint w 1;
    Codec.write_string w s);
  write_string_array w repr.Document.Internal.tag_names;
  Codec.write_bytes_raw w repr.Document.Internal.kinds;
  write_int_array w repr.Document.Internal.tag;
  write_int_array w repr.Document.Internal.parent;
  write_int_array w repr.Document.Internal.depth;
  write_int_array w repr.Document.Internal.size;
  write_string_array w repr.Document.Internal.texts;
  Codec.write_varint w repr.Document.Internal.element_count;
  Codec.contents w

let encode doc = seal ~magic (doc_payload doc)

let fingerprint doc = Digest.to_hex (Digest.string (doc_payload doc))

let decode_payload payload =
  let r = Codec.reader payload in
  let dtd_source =
    match Codec.read_varint r with
    | 0 -> None
    | 1 -> Some (Codec.read_string r)
    | n -> raise (Codec.Corrupt (Printf.sprintf "bad dtd flag %d" n))
  in
  let tag_names = read_string_array r in
  let kinds = Codec.read_bytes_raw r in
  let tag = read_int_array r in
  let parent = read_int_array r in
  let depth = read_int_array r in
  let size = read_int_array r in
  let texts = read_string_array r in
  let element_count = Codec.read_varint r in
  let node_count = Array.length tag in
  if Bytes.length kinds <> node_count
     || Array.length parent <> node_count
     || Array.length depth <> node_count
     || Array.length size <> node_count
     || Array.length texts <> node_count
  then raise (Codec.Corrupt "inconsistent array lengths");
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes");
  Document.Internal.of_repr
    {
      Document.Internal.dtd_source;
      tag_names;
      kinds;
      tag;
      parent;
      depth;
      size;
      texts;
      element_count;
    }

let decode data = decode_payload (unseal ~magic ~kind:"arena" data)

(* ------------------------------------------------------------------ *)
(* File IO, shared by all artifact kinds. The fault points stand in for
   the disk failures and torn writes a long-running service eventually
   sees; they fail as [Codec.Corrupt] so injected faults exercise exactly
   the recovery paths real corruption takes. *)

let read_file ~what ~magic:expected path =
  if Faults.should_fail "persist.read" then
    raise (Codec.Corrupt (Printf.sprintf "injected fault: persist.read (%s)" what));
  let ic = open_in_bin path in
  let data =
    try really_input_string ic (in_channel_length ic)
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  (* a zero-length file used to surface as a bare "unexpected end of
     input" from the envelope reader — no filename, no hint of what the
     file was supposed to be. Name both up front: empty files are what
     crashes-during-create and disk-full leave behind. *)
  if String.length data = 0 then
    raise
      (Codec.Truncated
         (Printf.sprintf "%s: empty file (expected a %s artifact with magic %S)" path what
            expected));
  Registry.incr reads_total;
  Registry.add read_bytes_total (String.length data);
  data

let write_file ~what path data =
  if Faults.should_fail "persist.write" then
    raise (Codec.Corrupt (Printf.sprintf "injected fault: persist.write (%s)" what));
  let oc = open_out_bin path in
  (try output_string oc data
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Registry.incr writes_total;
  Registry.add write_bytes_total (String.length data)

let save path doc = write_file ~what:"arena" path (encode doc)

let load path = decode (read_file ~what:"arena" ~magic path)

(* ------------------------------------------------------------------ *)
(* Index persistence: posting lists are sorted and ascending, so they are
   stored gap-encoded (first id, then deltas), each as a varint — the
   classic inverted-file compression. The payload opens with the
   fingerprint of the arena the index was built from: an index file only
   makes sense next to that arena, and decoding against any other
   document is rejected instead of yielding nonsense postings. *)

let index_magic = "XTRINDEX"

let index_payload ~arena_fingerprint index =
  let w = Codec.writer () in
  Codec.write_string w arena_fingerprint;
  write_string_array w (Inverted_index.Internal.token_names index);
  let lists = Inverted_index.Internal.packed_lists index in
  Codec.write_varint w (Array.length lists);
  Array.iter
    (fun packed ->
      let list = Packed_postings.to_array packed in
      Codec.write_varint w (Array.length list);
      let prev = ref 0 in
      Array.iteri
        (fun i node ->
          if i = 0 then Codec.write_varint w node
          else Codec.write_varint w (node - !prev);
          prev := node)
        list)
    lists;
  let pairs = Inverted_index.Internal.tag_token_pairs index in
  Codec.write_varint w (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      Codec.write_varint w a;
      Codec.write_varint w b)
    pairs;
  Codec.contents w

let encode_index index =
  let arena_fingerprint = fingerprint (Inverted_index.document index) in
  seal ~magic:index_magic (index_payload ~arena_fingerprint index)

let decode_index_payload ~doc ~arena_fingerprint payload =
  if Faults.should_fail "index.load" then
    raise (Codec.Corrupt "injected fault: index.load");
  let r = Codec.reader payload in
  let stored_fingerprint = Codec.read_string r in
  if stored_fingerprint <> arena_fingerprint then
    raise
      (Codec.Corrupt
         (Printf.sprintf
            "index/arena fingerprint mismatch (index built from arena %s, loaded against \
             %s)"
            stored_fingerprint arena_fingerprint));
  let tokens = read_string_array r in
  let n_lists = Codec.read_varint r in
  if Array.length tokens <> n_lists then
    raise (Codec.Corrupt "token/postings arity mismatch");
  let packed =
    Array.init n_lists (fun i ->
        let len = Codec.read_count r in
        let out = Array.make len 0 in
        let prev = ref 0 in
        for j = 0 to len - 1 do
          let v = Codec.read_varint r in
          let node = if j = 0 then v else !prev + v in
          out.(j) <- node;
          prev := node
        done;
        (* a sealed file can still hold a list that is not strictly
           ascending: packing refuses it, and so must the load *)
        match Packed_postings.of_array out with
        | list -> list
        | exception Invalid_argument _ ->
          raise
            (Codec.Corrupt
               (Printf.sprintf "postings of %S are not strictly ascending node ids" tokens.(i))))
  in
  let n_pairs = Codec.read_count r in
  let tag_tokens =
    Array.init n_pairs (fun _ ->
        let a = Codec.read_varint r in
        let b = Codec.read_varint r in
        a, b)
  in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after index");
  Inverted_index.Internal.of_packed ~doc ~tokens ~packed ~tag_tokens

let decode_index ~doc data =
  decode_index_payload ~doc ~arena_fingerprint:(fingerprint doc)
    (unseal ~magic:index_magic ~kind:"index" data)

let save_index path index = write_file ~what:"index" path (encode_index index)

let load_index path ~doc = decode_index ~doc (read_file ~what:"index" ~magic:index_magic path)

(* ------------------------------------------------------------------ *)
(* Bundles: arena + index in one file, each as a length-prefixed sealed
   section so either part can evolve independently. The arena section's
   checksum doubles as the fingerprint the index section must match. *)

let bundle_magic = "XTRBUNDL"

let encode_bundle doc index =
  let w = Codec.writer () in
  Codec.write_string w (encode doc);
  Codec.write_string w (encode_index index);
  seal ~magic:bundle_magic (Codec.contents w)

let decode_bundle data =
  let payload = unseal ~magic:bundle_magic ~kind:"bundle" data in
  let r = Codec.reader payload in
  let arena_section = Codec.read_string r in
  let index_section = Codec.read_string r in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after bundle");
  let arena_payload = unseal ~magic ~kind:"arena" arena_section in
  let doc = decode_payload arena_payload in
  let index =
    decode_index_payload ~doc
      ~arena_fingerprint:(Digest.to_hex (Digest.string arena_payload))
      (unseal ~magic:index_magic ~kind:"index" index_section)
  in
  doc, index

let save_bundle path doc index = write_file ~what:"bundle" path (encode_bundle doc index)

let load_bundle path = decode_bundle (read_file ~what:"bundle" ~magic:bundle_magic path)

(* first bytes of any Persist file: a Codec string length then the magic;
   used by the CLI to sniff file kinds *)
let sniff_magic data =
  match Codec.read_string (Codec.reader data) with
  | magic -> Some magic
  | exception (Codec.Corrupt _ | Codec.Truncated _) -> None
