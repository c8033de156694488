(* Index format v2, layer by layer: the codec primitives, the
   block-compressed posting lists (decode and membership checked against
   the plain array), and the mmap snapshot (roundtrip, integrity,
   fingerprint pairing). *)

module Codec = Extract_store.Codec
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Packed_postings = Extract_store.Packed_postings
module Snapshot = Extract_store.Snapshot
module Tokenizer = Extract_store.Tokenizer
module Types = Extract_xml.Types
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Check = Extract_check.Check

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
  let path = tmp_file "extract_test_parent_after_child.snap" in
  Pipeline.save_snapshot path db;
  let _, reloaded = Snapshot.load path in
  Sys.remove path;
  check ints "snapshot index roundtrip" [ 1; 2 ]
    (Array.to_list (Inverted_index.lookup reloaded "red"))

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
             if depth = 0 then map (fun s -> Types.Text s) text
             else frequency [ 2, map (fun s -> Types.Text s) text; 3, self (depth - 1) ]
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
    (QCheck.make ~print:(Extract_xml.Printer.to_string ~indent:None) gen_mixed_tree)
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

let result_fingerprint r = Result_tree.root r, Result_tree.size r

(* ------------------------------------------------------------------ *)
(* Snapshot roundtrip and integrity *)

let test_snapshot_roundtrip () =
  let db = Lazy.force retail_db in
  let doc = Pipeline.document db in
  let idx = Pipeline.index db in
  let path = tmp_file "extract_test_snapshot.snap" in
  Snapshot.save path (Pipeline.keys db) idx;
  let doc', idx' = Snapshot.load path in
  check int "same packed postings" (Inverted_index.postings_bytes idx)
    (Inverted_index.postings_bytes idx');
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
  check string "the index section pairs with the verified fingerprint"
    (Snapshot_image.index_fingerprint (Snapshot_image.read path))
    stats.Snapshot.v_fingerprint;
  Sys.remove path

let test_snapshot_sniffable () =
  let db = Lazy.force retail_db in
  let path = tmp_file "extract_test_snapshot_sniff.snap" in
  Pipeline.save_snapshot path db;
  check bool "sniffs as XTRSNAP2" true (Snapshot.file_magic path = Some Snapshot.magic);
  Sys.remove path

let test_snapshot_detects_corruption () =
  let db = Lazy.force retail_db in
  let path = tmp_file "extract_test_snapshot_corrupt.snap" in
  Snapshot.save path (Pipeline.keys db) (Pipeline.index db);
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
  Snapshot.save path (Pipeline.keys db) (Pipeline.index db);
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
  let path = tmp_file "extract_test_snapshot_count.snap" in
  Snapshot.save path (Pipeline.keys db) (Pipeline.index db);
  let data = In_channel.with_open_bin path In_channel.input_all in
  (* the index section opens with the arena fingerprint as a Codec
     string (a length byte and 32 hex digits), then the token count *)
  let count = Snapshot_image.section_offset data "index" + 33 in
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
(* Crafted snapshots: the header and the analysis section *)

let has msg affix =
  let n = String.length affix in
  let rec scan i = i + n <= String.length msg && (String.sub msg i n = affix || scan (i + 1)) in
  scan 0

let snapshot_image () =
  let path = tmp_file "extract_test_snapshot_image.snap" in
  Pipeline.save_snapshot path (Lazy.force retail_db);
  let data = Snapshot_image.read path in
  Sys.remove path;
  data

let write_image = Snapshot_image.write

let raw_varint = Snapshot_image.raw_varint

let sections = Snapshot_image.sections

(* Re-lay a snapshot with its analysis section replaced, re-digested. *)
let with_analysis data f = Snapshot_image.with_section data "analysis" f

let analysis_layout = Snapshot_image.analysis_layout

let set_byte = Snapshot_image.set_byte

let load_fails_with ?(label = "") path affixes =
  match Snapshot.load path with
  | _ -> Alcotest.failf "%s: %s loaded" label path
  | exception Codec.Corrupt msg ->
    List.iter
      (fun a -> if not (has msg a) then Alcotest.failf "%s: %S does not mention %S" label msg a)
      affixes

(* The header page has no checksum. A section offset of -4096 (a
   9-byte varint with its top bit set) once escaped as [Sys_error] or
   [Unix_error (EOVERFLOW)] from the seek or the map. *)
let test_snapshot_rejects_negative_offset () =
  let data = snapshot_image () in
  let entry = "\003tag" ^ raw_varint 4096 in
  let rec find i = if String.sub data i (String.length entry) = entry then i else find (i + 1) in
  let at = find 0 + 4 in
  let forged = raw_varint (-4096) in
  let header =
    String.sub data 0 at ^ forged
    ^ String.sub data (at + 2) (4096 - at - String.length forged)
  in
  let path = tmp_file "extract_test_snapshot_offset.snap" in
  write_image path (header ^ String.sub data 4096 (String.length data - 4096));
  load_fails_with path [ path; "\"tag\""; "-4096" ];
  Sys.remove path

let test_snapshot_validates_analysis () =
  let data = snapshot_image () in
  let fields, _ = analysis_layout (List.assoc "analysis" (snd (sections data))) in
  let path = tmp_file "extract_test_snapshot_analysis.snap" in
  List.iter
    (fun (label, f, affix) ->
      write_image path (with_analysis data f);
      load_fails_with ~label path [ path; affix ])
    [
      (* path 1's parent + 1 = 3: its parent would be path 2, after it *)
      "parent after its path", (fun a -> set_byte a fields.(1).(0) 3), "must precede";
      "kind out of range", (fun a -> set_byte a fields.(0).(4) 7), "kind 7";
      ( "counts that miss an element",
        (fun a ->
          let r = Codec.reader a in
          Codec.seek r fields.(0).(3);
          set_byte a fields.(0).(3) (Codec.read_varint r - 1)),
        "sum to" );
    ];
  Sys.remove path

(* Swap an entity's key for another of its attribute children and
   re-digest: every reference stays valid, so load adopts it, and only
   the re-derivation in [extract check] can tell. *)
let test_snapshot_check_rederives () =
  let data = snapshot_image () in
  let _, entities = analysis_layout (List.assoc "analysis" (snd (sections data))) in
  let _, cands, (key_at, key) =
    List.find (fun (_, cands, (_, key)) -> key > 0 && List.length cands >= 2) entities
  in
  let other = List.find (fun a -> a + 1 <> key) cands in
  let path = tmp_file "extract_test_snapshot_key.snap" in
  write_image path (with_analysis data (fun a -> set_byte a key_at (other + 1)));
  let db = Pipeline.load_snapshot path in
  check bool "the swapped key is adopted" true
    (List.exists
       (fun e -> Extract_store.Key_miner.key_path (Pipeline.keys db) e = Some other)
       (Extract_store.Node_kind.entity_paths (Pipeline.kinds db)));
  (match Check.check_snapshot path with
  | [] -> Alcotest.fail "check passed a stored key that differs from its derivation"
  | issues ->
    check bool "the difference is the key" true
      (List.exists
         (fun (i : Check.issue) -> i.Check.area = "analysis" && has i.Check.what ": key ")
         issues));
  write_image path data;
  check int "the untouched snapshot checks clean" 0 (List.length (Check.check_snapshot path));
  Sys.remove path

(* Versions 1 and 2 lack the stored analysis and the live meta fields:
   both are refused with the same pointer to [extract pack]. *)
let test_snapshot_refuses_version_1 () =
  let image = snapshot_image () in
  (* magic is a Codec string (length byte + 8 bytes); the version follows *)
  check int "version 3 on disk" 3 (Char.code image.[9]);
  let path = tmp_file "extract_test_snapshot_v1.snap" in
  List.iter
    (fun v ->
      let data = Bytes.of_string image in
      Bytes.set data 9 (Char.chr v);
      write_image path (Bytes.to_string data);
      load_fails_with path [ path; Printf.sprintf "version %d" v; "extract pack" ])
    [ 1; 2 ];
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Empty-file regression: an empty file is what a crash during create or
   a full disk leaves behind; every reader names the path and the magic
   it expected *)

let test_persist_empty_file_diagnostic () =
  let path = tmp_file "extract_test_empty.snap" in
  let oc = open_out_bin path in
  close_out oc;
  List.iter
    (fun (label, run) ->
      check bool label true
        (match run () with
        | _ -> false
        | exception Codec.Truncated msg -> has msg path && has msg Snapshot.magic))
    [
      "load", (fun () -> ignore (Snapshot.load path));
      "load_analyzed", (fun () -> ignore (Snapshot.load_analyzed path));
      "verify", (fun () -> ignore (Snapshot.verify path));
    ];
  (match Check.check_snapshot path with
  | [ i ] -> check bool "check names path and magic" true (has i.Check.what path && has i.Check.what Snapshot.magic)
  | issues -> Alcotest.failf "check reported %d issue(s), expected one" (List.length issues));
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
        Alcotest.test_case "rejects a negative section offset" `Quick
          test_snapshot_rejects_negative_offset;
        Alcotest.test_case "validates the analysis section" `Quick
          test_snapshot_validates_analysis;
        Alcotest.test_case "check re-derives the analysis" `Quick test_snapshot_check_rederives;
        Alcotest.test_case "refuses version 1" `Quick test_snapshot_refuses_version_1;
      ] );
    ( "packed.persist",
      [
        Alcotest.test_case "empty file regression" `Quick test_persist_empty_file_diagnostic;
      ] );
  ]
