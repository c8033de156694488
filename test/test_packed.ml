(* Index format v2, layer by layer: the codec primitives, the
   block-compressed posting lists (decode and membership checked against
   the plain array), and the mmap snapshot (roundtrip, integrity,
   fingerprint pairing). *)

module Codec = Extract_store.Codec
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Packed_postings = Extract_store.Packed_postings
module Persist = Extract_store.Persist
module Snapshot = Extract_store.Snapshot
module Tokenizer = Extract_store.Tokenizer
module Types = Extract_xml.Types
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let tmp_file name = Filename.concat (Filename.get_temp_dir_name ()) name

(* ------------------------------------------------------------------ *)
(* Codec primitives *)

let test_fixed64_roundtrip () =
  let w = Codec.writer () in
  List.iter (Codec.write_fixed64 w) [ 0L; 1L; -1L; 0x00FF01FE02FD03FCL; Int64.max_int ];
  let r = Codec.reader (Codec.contents w) in
  List.iter
    (fun v -> check bool (Int64.to_string v) true (Codec.read_fixed64 r = v))
    [ 0L; 1L; -1L; 0x00FF01FE02FD03FCL; Int64.max_int ];
  check bool "consumed" true (Codec.at_end r)

let test_fixed64_truncated () =
  Alcotest.check_raises "truncated fixed64" (Codec.Truncated "fixed64 overruns input")
    (fun () -> ignore (Codec.read_fixed64 (Codec.reader "1234567")))

(* ------------------------------------------------------------------ *)
(* Packed postings: exact sizes around block boundaries *)

let block = Codec.block_size

let ascending n = Array.init n (fun i -> (i * 3) + 1)

let boundary_sizes = [ 0; 1; block - 1; block; block + 1; (2 * block) - 1; 2 * block; (2 * block) + 1 ]

let test_roundtrip_at_block_boundaries () =
  List.iter
    (fun n ->
      let arr = ascending n in
      let p = Packed_postings.of_array arr in
      check int (Printf.sprintf "length %d" n) n (Packed_postings.length p);
      (* the encoding opens with the count, then the block count *)
      let w = Codec.writer () in
      Packed_postings.encode w p;
      let r = Codec.reader (Codec.contents w) in
      ignore (Codec.read_varint r);
      check int
        (Printf.sprintf "blocks %d" n)
        ((n + block - 1) / block)
        (Codec.read_varint r);
      check bool (Printf.sprintf "roundtrip %d" n) true (Packed_postings.to_array p = arr))
    boundary_sizes

let test_codec_embedding_at_block_boundaries () =
  List.iter
    (fun n ->
      let arr = ascending n in
      let w = Codec.writer () in
      Packed_postings.encode w (Packed_postings.of_array arr);
      let p = Packed_postings.decode (Codec.reader (Codec.contents w)) in
      check bool (Printf.sprintf "decode . encode %d" n) true (Packed_postings.to_array p = arr))
    boundary_sizes

let test_of_array_rejects_bad_input () =
  List.iter
    (fun (label, arr) ->
      check bool label true
        (match Packed_postings.of_array arr with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      "descending", [| 5; 3 |];
      "duplicate", [| 5; 5 |];
      "negative", [| -1; 3 |];
      (* the second block starts below the end of the first *)
      "descending across blocks", Array.init 129 (fun i -> if i = 128 then 0 else i + 1);
    ]

let test_decode_rejects_inconsistent_blocks () =
  let w = Codec.writer () in
  Codec.write_varint w 1000 (* count *) ;
  Codec.write_varint w 1 (* nblocks: wrong, needs 8 *);
  check bool "corrupt block count" true
    (match Packed_postings.decode (Codec.reader (Codec.contents w)) with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Property: decode and membership = the plain array's *)

let gen_posting_list =
  QCheck.Gen.(
    let* n = int_range 0 400 in
    let* gaps = list_repeat n (int_range 1 5) in
    let arr = Array.of_list gaps in
    let acc = ref 0 in
    let out =
      Array.map
        (fun g ->
          acc := !acc + g;
          !acc)
        arr
    in
    return out)

let arb_posting_list =
  QCheck.make
    ~print:(fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
    gen_posting_list

let prop_packed_equals_plain =
  QCheck.Test.make ~count:200 ~name:"packed searches = plain searches" arb_posting_list
    (fun arr ->
      let p = Packed_postings.of_array arr in
      let max_probe = (if Array.length arr = 0 then 0 else arr.(Array.length arr - 1)) + 3 in
      let ok = ref (Packed_postings.to_array p = arr) in
      for x = 0 to max_probe do
        ok := !ok && Packed_postings.mem p x = Array.exists (fun v -> v = x) arr
      done;
      !ok)

let prop_packed_roundtrips_through_codec =
  QCheck.Test.make ~count:200 ~name:"packed decode . encode = id" arb_posting_list
    (fun arr ->
      let w = Codec.writer () in
      Packed_postings.encode w (Packed_postings.of_array arr);
      Packed_postings.to_array (Packed_postings.decode (Codec.reader (Codec.contents w)))
      = arr)

(* ------------------------------------------------------------------ *)
(* Building lists whose element is posted after one of its descendants:
   attributes are leaf child elements ahead of the element's children,
   and text can follow a child element *)

(* shop 0, item 1, code 2 (text 3), text 4, box 5, a 6 (text 7), text 8 *)
let parent_after_child_xml = "<shop><item code=\"red\">red</item><box><a>x</a>x</box></shop>"

let test_build_parent_after_child () =
  let db = Pipeline.build (Document.load_string parent_after_child_xml) in
  let idx = Pipeline.index db in
  let ints = Alcotest.(list int) in
  check ints "red: item's own text after its attribute" [ 1; 2 ]
    (Array.to_list (Inverted_index.lookup idx "red"));
  check ints "x: box's text after its child" [ 5; 6 ]
    (Array.to_list (Inverted_index.lookup idx "x"));
  let roots semantics q = List.map Result_tree.root (Pipeline.search ~semantics db q) in
  check ints "elca red" [ 1; 2 ] (roots Engine.Elca "red");
  check ints "slca red" [ 2 ] (roots Engine.Slca "red");
  check ints "elca x" [ 5; 6 ] (roots Engine.Elca "x");
  check ints "xseek red x" [ 0 ] (roots Engine.Xseek "red x");
  let reloaded =
    Persist.decode_index ~doc:(Pipeline.document db) (Persist.encode_index idx)
  in
  check ints "v1 index roundtrip" [ 1; 2 ] (Array.to_list (Inverted_index.lookup reloaded "red"))

(* The reference lists: every element under the tokens of its tag and of
   each of its text children, ascending and without duplicates. *)
let reference_lookup doc tok =
  List.init (Document.node_count doc) Fun.id
  |> List.filter (fun n ->
         Document.is_element doc n
         && (List.mem tok (Tokenizer.tokens (Document.tag_name doc n))
            || List.exists
                 (fun c ->
                   (not (Document.is_element doc c))
                   && List.mem tok (Tokenizer.tokens (Document.text doc c)))
                 (Document.children doc n)))

(* Small trees over a few shared words, so that attribute values, tag
   names and text before and after child elements post the same tokens. *)
let gen_mixed_tree =
  QCheck.Gen.(
    let word = oneofl [ "red"; "item"; "box"; "code" ] in
    let text = map (String.concat " ") (list_size (int_range 1 3) word) in
    let attrs = list_size (int_bound 2) (pair (oneofl [ "code"; "red"; "kind" ]) text) in
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let child =
             if depth = 0 then map Types.text text
             else frequency [ 2, map Types.text text; 3, self (depth - 1) ]
           in
           map3
             (fun tag attrs children ->
               (* an attribute name may appear only once on an element *)
               let attrs = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) attrs in
               Types.element ~attrs tag children)
             (oneofl [ "item"; "box"; "red" ]) attrs
             (list_size (int_bound 4) child)))

let prop_build_matches_reference =
  QCheck.Test.make ~count:200 ~name:"build = reference on attributes and tail text"
    (QCheck.make ~print:(Format.asprintf "%a" Types.pp) gen_mixed_tree)
    (fun tree ->
      let doc = Document.of_xml tree in
      let idx = Inverted_index.build doc in
      List.for_all
        (fun tok -> Array.to_list (Inverted_index.lookup idx tok) = reference_lookup doc tok)
        (Inverted_index.vocabulary idx))

(* ------------------------------------------------------------------ *)
(* The hotpath corpus, for the snapshot tests *)

let retail_doc =
  lazy
    (Document.of_document
       (Extract_datagen.Retail.generate Extract_datagen.Retail.default))

let retail_db = lazy (Pipeline.build (Lazy.force retail_doc))

let queries =
  [ "apparel retailer"; "apparel store"; "suit"; "store texas"; "retailer"; "nosuchword" ]

let result_fingerprint r = Result_tree.root r, Array.to_list (Result_tree.members r)

(* ------------------------------------------------------------------ *)
(* Snapshot roundtrip and integrity *)

let test_snapshot_roundtrip () =
  let db = Lazy.force retail_db in
  let doc = Pipeline.document db in
  let idx = Pipeline.index db in
  let path = tmp_file "extract_test_snapshot.snap" in
  Snapshot.save path doc idx;
  let doc', idx' = Snapshot.load path in
  check int "same packed postings" (Inverted_index.postings_bytes idx)
    (Inverted_index.postings_bytes idx');
  check string "fingerprint survives" (Persist.fingerprint doc) (Persist.fingerprint doc');
  check int "node count" (Document.node_count doc) (Document.node_count doc');
  check int "element count" (Document.element_count doc) (Document.element_count doc');
  (* full structural equality via the persist repr *)
  check bool "document repr equal" true
    (Document.Internal.to_repr doc = Document.Internal.to_repr doc');
  let kinds = Pipeline.kinds db in
  List.iter
    (fun q ->
      let plain = Engine.run idx kinds (Query.of_string q) in
      let mapped = Engine.run idx' kinds (Query.of_string q) in
      check bool (q ^ " via snapshot") true
        (List.map result_fingerprint plain = List.map result_fingerprint mapped))
    queries;
  let stats = Snapshot.verify path in
  check int "verify node count" (Document.node_count doc) stats.Snapshot.v_node_count;
  check string "verify fingerprint" (Persist.fingerprint doc) stats.Snapshot.v_fingerprint;
  Sys.remove path

let test_snapshot_sniffable () =
  let db = Lazy.force retail_db in
  let data = Snapshot.encode (Pipeline.document db) (Pipeline.index db) in
  check bool "sniffs as XTRSNAP2" true (Persist.sniff_magic data = Some Snapshot.magic)

let test_snapshot_detects_corruption () =
  let db = Lazy.force retail_db in
  let path = tmp_file "extract_test_snapshot_corrupt.snap" in
  Snapshot.save path (Pipeline.document db) (Pipeline.index db);
  (* flip a byte just past the header page — deterministically inside the
     first section ("tag"), which MD5 verification must flag *)
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let pos = 4096 + 4 in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc;
  check bool "verify flags the damage" true
    (match Snapshot.verify path with
    | _ -> false
    | exception Codec.Corrupt msg ->
      let has affix =
        let n = String.length affix in
        let rec scan i =
          i + n <= String.length msg && (String.sub msg i n = affix || scan (i + 1))
        in
        scan 0
      in
      has "tag" && has "checksum");
  Sys.remove path

let test_snapshot_empty_file_diagnostic () =
  let path = tmp_file "extract_test_snapshot_empty.snap" in
  let oc = open_out_bin path in
  close_out oc;
  check bool "empty snapshot names path and magic" true
    (match Snapshot.load path with
    | _ -> false
    | exception Codec.Truncated msg ->
      let has affix =
        let n = String.length affix in
        let rec scan i =
          i + n <= String.length msg && (String.sub msg i n = affix || scan (i + 1))
        in
        scan 0
      in
      has path && has Snapshot.magic);
  Sys.remove path

let test_snapshot_rejects_mismatched_truncation () =
  let db = Lazy.force retail_db in
  let path = tmp_file "extract_test_snapshot_trunc.snap" in
  Snapshot.save path (Pipeline.document db) (Pipeline.index db);
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  check bool "truncated snapshot rejected" true
    (match Snapshot.load path with
    | _ -> false
    | exception (Codec.Truncated _ | Codec.Corrupt _) -> true);
  Sys.remove path

(* Load reads a snapshot's index section without its checksum (only
   [verify] spends the section digests), so a count there that cannot
   fit the section must be refused before anything is allocated for it:
   here 2^55 tokens, above [Sys.max_array_length]. *)
let test_snapshot_rejects_oversized_count () =
  let db = Lazy.force retail_db in
  let doc = Pipeline.document db in
  let path = tmp_file "extract_test_snapshot_count.snap" in
  Snapshot.save path doc (Pipeline.index db);
  let data = In_channel.with_open_bin path In_channel.input_all in
  (* the index section opens with the arena fingerprint as a Codec
     string, then the token count; the header page holds the same
     string, so the search starts past it *)
  let fingerprint =
    let w = Codec.writer () in
    Codec.write_string w (Persist.fingerprint doc);
    Codec.contents w
  in
  let rec find i =
    if String.sub data i (String.length fingerprint) = fingerprint then i else find (i + 1)
  in
  let count = find 4096 + String.length fingerprint in
  let w = Codec.writer () in
  Codec.write_varint w (1 lsl 55);
  let crafted = Bytes.of_string data in
  Bytes.blit_string (Codec.contents w) 0 crafted count (String.length (Codec.contents w));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc crafted);
  check bool "oversized token count is corrupt" true
    (match Snapshot.load path with
    | _ -> false
    | exception Codec.Corrupt _ -> true);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Persist empty-file regression (the PR's satellite bugfix) *)

let test_persist_empty_file_diagnostic () =
  let path = tmp_file "extract_test_empty.xtr" in
  let oc = open_out_bin path in
  close_out oc;
  let has msg affix =
    let n = String.length affix in
    let rec scan i = i + n <= String.length msg && (String.sub msg i n = affix || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun (label, magic, run) ->
      check bool label true
        (match run () with
        | _ -> false
        | exception Codec.Truncated msg -> has msg path && has msg magic))
    [
      "load", Persist.magic, (fun () -> ignore (Persist.load path));
      "load_bundle", Persist.bundle_magic, (fun () -> ignore (Persist.load_bundle path));
      ( "load_index",
        Persist.index_magic,
        fun () ->
          ignore (Persist.load_index path ~doc:(Pipeline.document (Lazy.force retail_db))) );
    ];
  Sys.remove path

let properties = List.map QCheck_alcotest.to_alcotest
    [ prop_packed_equals_plain; prop_packed_roundtrips_through_codec ]

let suites =
  [
    ( "packed.codec",
      [
        Alcotest.test_case "fixed64 roundtrip" `Quick test_fixed64_roundtrip;
        Alcotest.test_case "fixed64 truncated" `Quick test_fixed64_truncated;
      ] );
    ( "packed.postings",
      [
        Alcotest.test_case "roundtrip at block boundaries" `Quick
          test_roundtrip_at_block_boundaries;
        Alcotest.test_case "codec embedding at boundaries" `Quick
          test_codec_embedding_at_block_boundaries;
        Alcotest.test_case "rejects bad input" `Quick test_of_array_rejects_bad_input;
        Alcotest.test_case "rejects inconsistent blocks" `Quick
          test_decode_rejects_inconsistent_blocks;
      ]
      @ properties );
    ( "packed.build",
      [
        Alcotest.test_case "parent posted after a child" `Quick test_build_parent_after_child;
        QCheck_alcotest.to_alcotest prop_build_matches_reference;
      ] );
    ( "packed.snapshot",
      [
        Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "sniffable magic" `Quick test_snapshot_sniffable;
        Alcotest.test_case "detects corruption" `Quick test_snapshot_detects_corruption;
        Alcotest.test_case "empty file diagnostic" `Quick test_snapshot_empty_file_diagnostic;
        Alcotest.test_case "rejects truncation" `Quick test_snapshot_rejects_mismatched_truncation;
        Alcotest.test_case "rejects an oversized count" `Quick
          test_snapshot_rejects_oversized_count;
      ] );
    ( "packed.persist",
      [
        Alcotest.test_case "empty file regression" `Quick test_persist_empty_file_diagnostic;
      ] );
  ]
