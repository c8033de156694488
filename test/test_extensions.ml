(* Tests for the extension modules: snippet configuration and goal
   ablation, query-biased feature ordering, cross-result differentiation,
   the XRank-style ranker, XSearch interconnection semantics, snapshot
   persistence, the XPath-lite selector and the HTML view. *)

module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Inverted_index = Extract_store.Inverted_index
module Snapshot = Extract_store.Snapshot
module Codec = Extract_store.Codec
module Path_query = Extract_store.Path_query
module Query = Extract_search.Query
module Engine = Extract_search.Engine
module Ranker = Extract_search.Ranker
module Eval_ctx = Extract_search.Eval_ctx
module Xsearch = Extract_search.Xsearch
module Result_tree = Extract_search.Result_tree
open Extract_snippet

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  ln = 0 || loop 0

let league =
  "<league>\
   <team><name>Sharks</name>\
   <player><pname>Ann</pname><pos>guard</pos></player>\
   <player><pname>Bo</pname><pos>guard</pos></player>\
   <player><pname>Cy</pname><pos>center</pos></player></team>\
   <team><name>Owls</name>\
   <player><pname>Di</pname><pos>wing</pos></player></team>\
   </league>"

let db_of src = Pipeline.of_xml_string src

(* ------------------------------------------------------------------ *)
(* Config and goal ablation *)

let items_of il = List.map (fun (e : Ilist.entry) -> e.Ilist.item) (Ilist.entries il)

let test_config_keywords_only () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "guard team") in
  let il =
    Pipeline.ilist_of ~config:Config.keywords_only db r (Query.of_string "guard team")
  in
  check bool "only keywords" true
    (List.for_all
       (function
         | Ilist.Keyword _ -> true
         | Ilist.Entity_name _ | Ilist.Result_key _ | Ilist.Dominant_feature _ -> false)
       (items_of il))

let test_config_goals_independent () =
  let db = db_of league in
  (* "cy team": the dominant feature guard survives display dedup (the
     query "guard team" would absorb it into the keyword item) *)
  let r = List.hd (Pipeline.search db "cy team") in
  let q = Query.of_string "cy team" in
  let has_kind pred il = List.exists pred (items_of il) in
  let is_entity = function Ilist.Entity_name _ -> true | _ -> false in
  let is_key = function Ilist.Result_key _ -> true | _ -> false in
  let is_feature = function Ilist.Dominant_feature _ -> true | _ -> false in
  let without_entities =
    Pipeline.ilist_of
      ~config:{ Config.default with Config.include_entity_names = false }
      db r q
  in
  check bool "no entity names" false (has_kind is_entity without_entities);
  check bool "key still there" true (has_kind is_key without_entities);
  check bool "features still there" true (has_kind is_feature without_entities);
  let without_key =
    Pipeline.ilist_of ~config:{ Config.default with Config.include_result_key = false } db r q
  in
  check bool "no key" false (has_kind is_key without_key);
  let without_features =
    Pipeline.ilist_of ~config:{ Config.default with Config.include_features = false } db r q
  in
  check bool "no features" false (has_kind is_feature without_features)

let test_config_max_features () =
  (* the paper example has six surviving dominant features (Fig. 3);
     capping at two keeps the top two by score: Houston, outwear *)
  let db =
    Pipeline.build
      (Document.of_document (Extract_datagen.Paper_example.document ()))
  in
  let q = Query.of_string Extract_datagen.Paper_example.query in
  let r = List.hd (Pipeline.search db Extract_datagen.Paper_example.query) in
  let il =
    Pipeline.ilist_of ~config:{ Config.default with Config.max_features = Some 2 } db r q
  in
  let feature_values =
    List.filter_map
      (function
        | Ilist.Dominant_feature (f, _) -> Some f.Feature.value
        | _ -> None)
      (items_of il)
  in
  check (Alcotest.list string) "top two by dominance" [ "Houston"; "outwear" ] feature_values

let test_config_frequency_order () =
  (* By_frequency must order the feature block by raw occurrences. *)
  let db = db_of league in
  let r = List.hd (Pipeline.search db "team") in
  let q = Query.of_string "team" in
  let il =
    Pipeline.ilist_of
      ~config:{ Config.default with Config.feature_order = Config.By_frequency }
      db r q
  in
  let occs =
    List.filter_map
      (function
        | Ilist.Dominant_feature (_, s) -> Some s.Feature.occurrences
        | _ -> None)
      (items_of il)
  in
  check bool "occurrences non-increasing" true
    (List.sort (fun a b -> compare b a) occs = occs)

(* ------------------------------------------------------------------ *)
(* Query bias *)

let test_query_bias_hot_entities () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "center") in
  let bias =
    Query_bias.make (Pipeline.kinds db) (Pipeline.index db) r (Query.of_string "center")
  in
  (* "center" matches pos 17 under player 14 (and lifts to team 1) *)
  let hot = Query_bias.hot_entities bias in
  check bool "the center player is hot" true (List.mem 14 hot)

let test_query_bias_affinity_range () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "guard") in
  let q = Query.of_string "guard" in
  let bias = Query_bias.make (Pipeline.kinds db) (Pipeline.index db) r q in
  let analysis = Feature.analyze (Pipeline.kinds db) r in
  List.iter
    (fun (f, s) ->
      let a = Query_bias.affinity bias analysis f in
      check bool "affinity in [0,1]" true (a >= 0.0 && a <= 1.0);
      let b = Query_bias.biased_score bias analysis f s in
      check bool "biased >= base" true (b >= s.Feature.score -. 1e-9))
    (Feature.all analysis)

let test_query_bias_prefers_cooccurring () =
  (* Two equally dominant features; only one lives in the entity that
     matches the query keyword. The biased order must put it first. *)
  let src =
    "<r>\
     <e><k>match</k><a>alpha</a></e>\
     <e><k>other</k><b>beta</b></e>\
     <e><k>other2</k><b>beta</b></e>\
     <e><k>match</k><a>alpha</a></e>\
     </r>"
  in
  let db = db_of src in
  let r = Result_tree.full (Pipeline.document db) 0 in
  let q = Query.of_string "match" in
  let il =
    Pipeline.ilist_of
      ~config:{ Config.default with Config.feature_order = Config.Query_biased }
      db r q
  in
  let feature_values =
    List.filter_map
      (function
        | Ilist.Dominant_feature (f, _) -> Some f.Feature.value
        | _ -> None)
      (items_of il)
  in
  (* alpha co-occurs with "match"; beta does not *)
  match List.filter (fun v -> v = "alpha" || v = "beta") feature_values with
  | "alpha" :: _ -> ()
  | other ->
    Alcotest.failf "expected alpha first, got [%s]" (String.concat ";" other)

(* ------------------------------------------------------------------ *)
(* Differentiator *)

let test_differentiator_idf () =
  let db = db_of league in
  let results = Pipeline.search db "player" in
  let analyses = List.map (Feature.analyze (Pipeline.kinds db)) results in
  let differ = Differentiator.make analyses in
  (* with "player" the results are the four player entities: guard appears
     in two of them, center in exactly one *)
  let guard = { Feature.entity = "player"; attribute = "pos"; value = "guard" } in
  let center = { Feature.entity = "player"; attribute = "pos"; value = "center" } in
  check int "guard rf" 2 (Differentiator.result_frequency differ guard);
  check int "center rf" 1 (Differentiator.result_frequency differ center);
  check bool "rarer is more distinctive" true
    (Differentiator.distinctiveness differ center > Differentiator.distinctiveness differ guard)

let test_differentiator_shared_penalized () =
  (* one value present in both results, one unique to each *)
  let src =
    "<r>\
     <g><x><v>common</v></x><x><v>common</v></x><x><v>left</v></x></g>\
     <g><x><v>common</v></x><x><v>common</v></x><x><v>right</v></x></g>\
     </r>"
  in
  let db = db_of src in
  let results = Pipeline.search ~semantics:Engine.Slca db "x" in
  (* slca of "x": each x node... use the g subtrees instead *)
  ignore results;
  let doc = Pipeline.document db in
  let r1 = Result_tree.full doc (List.hd (Path_query.select_string doc "/r/g[1]")) in
  let r2 = Result_tree.full doc (List.hd (Path_query.select_string doc "/r/g[2]")) in
  let kinds = Pipeline.kinds db in
  let differ = Differentiator.make [ Feature.analyze kinds r1; Feature.analyze kinds r2 ] in
  let common = { Feature.entity = "x"; attribute = "v"; value = "common" } in
  let unique = { Feature.entity = "x"; attribute = "v"; value = "left" } in
  check bool "shared feature less distinctive" true
    (Differentiator.distinctiveness differ common < Differentiator.distinctiveness differ unique)

let test_differentiated_run_keeps_bound () =
  let db = db_of league in
  List.iter
    (fun (r : Pipeline.snippet_result) ->
      check bool "bound" true
        (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet <= 4))
    (Pipeline.run_differentiated ~bound:4 db "player")

let test_differentiator_single_result_noop () =
  let db = db_of league in
  let plain = Pipeline.run ~bound:6 db "guard team" in
  let diff = Pipeline.run_differentiated ~bound:6 db "guard team" in
  check int "one result each" (List.length plain) (List.length diff);
  List.iter2
    (fun (a : Pipeline.snippet_result) (b : Pipeline.snippet_result) ->
      check (Alcotest.list string) "same ilist"
        (List.map (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item) (Ilist.entries a.Pipeline.ilist))
        (List.map (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item) (Ilist.entries b.Pipeline.ilist)))
    plain diff

let test_reorder_features_keeps_fixed_prefix () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "guard team") in
  let q = Query.of_string "guard team" in
  let il = Pipeline.ilist_of db r q in
  let reordered = Ilist.reorder_features ~score:(fun _ s -> -.s.Feature.score) il in
  let non_features l =
    List.filter (function Ilist.Dominant_feature _ -> false | _ -> true) (items_of l)
  in
  check bool "fixed items unchanged" true (non_features il = non_features reordered);
  check int "same length" (Ilist.length il) (Ilist.length reordered);
  (* ranks renumbered sequentially *)
  List.iteri
    (fun i (e : Ilist.entry) -> check int "rank" i e.Ilist.rank)
    (Ilist.entries reordered)

(* ------------------------------------------------------------------ *)
(* Ranker *)

let ranker_for db query =
  Ranker.make (Eval_ctx.make (Pipeline.index db) (Query.of_string query))

let test_ranker_idf_rare_beats_common () =
  let db = db_of league in
  let ranker = ranker_for db "guard center" in
  (* "guard" appears twice, "center" once: center is rarer *)
  check bool "idf(center) > idf(guard)" true
    (Ranker.idf ranker "center" > Ranker.idf ranker "guard");
  check bool "idf unknown maximal" true
    (Ranker.idf ranker "zzz" >= Ranker.idf ranker "center")

let test_ranker_prefers_specific_result () =
  let db = db_of league in
  let doc = Pipeline.document db in
  let ranker = ranker_for db "guard" in
  let player = Result_tree.full doc 4 in
  let team = Result_tree.full doc 1 in
  check bool "small specific result scores higher" true
    (Ranker.score ranker player > Ranker.score ranker team)

let test_ranker_sorted_desc () =
  let db = db_of league in
  let ranked = Ranker.rank (ranker_for db "player") (Pipeline.search db "player") in
  let scores = List.map snd ranked in
  check bool "descending" true (List.sort (fun a b -> compare b a) scores = scores)

let test_ranker_zero_for_no_match () =
  let db = db_of league in
  let doc = Pipeline.document db in
  Alcotest.check (Alcotest.float 1e-9) "no matches, zero score" 0.0
    (Ranker.score (ranker_for db "zebra") (Result_tree.full doc 1))

(* ------------------------------------------------------------------ *)
(* XSearch *)

let test_interconnected_basic () =
  let doc = Document.load_string league in
  (* pname 5 and pos 7 under the same player: interconnected *)
  check bool "same entity" true (Xsearch.interconnected doc 5 7);
  (* pname 5 (player 4) and pname 10 (player 9): path crosses two distinct
     player nodes -> NOT interconnected *)
  check bool "across two players" false (Xsearch.interconnected doc 5 10);
  (* a node with itself *)
  check bool "self" true (Xsearch.interconnected doc 5 5)

let test_interconnected_ancestor () =
  let doc = Document.load_string league in
  (* team 1 and pname 5: a is ancestor of b, interior = player 4 only *)
  check bool "ancestor chain" true (Xsearch.interconnected doc 1 5)

let test_xsearch_results () =
  let db = db_of league in
  (* ann + guard: both under player 4 -> interconnected answer *)
  let rs = Pipeline.search ~semantics:Engine.Xsearch db "ann guard" in
  check bool "at least one answer" true (rs <> []);
  (* ann + wing: ann in team 1, wing in team 2; slca = league root, path
     crosses two team nodes -> rejected *)
  let rejected = Pipeline.search ~semantics:Engine.Xsearch db "ann wing" in
  check int "cross-team answer rejected" 0 (List.length rejected)

let test_engine_xsearch_semantics () =
  let db = db_of league in
  let results = Pipeline.search ~semantics:Engine.Xsearch db "ann guard" in
  check bool "via engine" true (results <> []);
  check bool "string roundtrip" true
    (Engine.semantics_of_string "xsearch" = Some Engine.Xsearch)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip_ints () =
  let w = Codec.writer () in
  let values = [ 0; 1; 127; 128; 300; 1 lsl 40; max_int / 2; max_int ] in
  List.iter (Codec.write_varint w) values;
  let r = Codec.reader (Codec.contents w) in
  List.iter (fun v -> check int "int roundtrip" v (Codec.read_varint r)) values;
  check bool "at end" true (Codec.at_end r)

let test_codec_roundtrip_strings () =
  let w = Codec.writer () in
  let values = [ ""; "a"; String.make 1000 'x'; "caf\xc3\xa9 \x00 bytes" ] in
  List.iter (Codec.write_string w) values;
  let r = Codec.reader (Codec.contents w) in
  List.iter (fun v -> check string "string roundtrip" v (Codec.read_string r)) values

let test_codec_corrupt () =
  (* premature end of input is Truncated (an interrupted write), not
     Corrupt (damaged data): recovery code treats the two differently *)
  (match Codec.read_varint (Codec.reader "") with
  | exception Codec.Truncated _ -> ()
  | _ -> Alcotest.fail "expected Truncated");
  (match Codec.read_string (Codec.reader "\x05ab") with
  | exception Codec.Truncated _ -> ()
  | _ -> Alcotest.fail "expected Truncated on truncated string");
  (* an overlong varint is structural damage, hence Corrupt *)
  match Codec.read_varint (Codec.reader (String.make 12 '\xff')) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on overlong varint"

let test_codec_negative_varint () =
  let w = Codec.writer () in
  Alcotest.check_raises "negative varint"
    (Invalid_argument "Codec.write_varint: negative") (fun () -> Codec.write_varint w (-1))

(* ------------------------------------------------------------------ *)
(* Persistence: snapshots hold the arena, its index and its analysis *)

let docs_equal a b =
  Document.node_count a = Document.node_count b
  && Document.to_xml a 0 = Document.to_xml b 0

let with_file suffix f =
  let path = Filename.temp_file "extract_persist" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [f] on the path of a snapshot of [doc] *)
let with_snapshot doc f =
  with_file ".snap" (fun path ->
      Pipeline.save_snapshot path (Pipeline.build doc);
      f path)

let roundtrip doc = with_snapshot doc Snapshot.load

let test_persist_roundtrip () =
  let doc = Document.load_string league in
  let loaded, _ = roundtrip doc in
  check bool "structure preserved" true (docs_equal doc loaded);
  check int "element count" (Document.element_count doc) (Document.element_count loaded)

let test_persist_dtd_preserved () =
  let doc =
    Document.load_string "<!DOCTYPE r [<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>]><r><a>1</a></r>"
  in
  let loaded, _ = roundtrip doc in
  match Document.dtd loaded with
  | None -> Alcotest.fail "dtd lost"
  | Some dtd ->
    check bool "star info survives" true
      (Extract_xml.Dtd.is_star_child dtd ~parent:"r" ~child:"a" = Some true)

let test_persist_file_roundtrip () =
  let doc = Document.of_document (Extract_datagen.Movies.sized 10) in
  with_snapshot doc (fun path ->
      check bool "file roundtrip" true
        (docs_equal doc (Pipeline.document (Pipeline.load_snapshot path))))

let expect_refused label path =
  match Snapshot.load path with
  | exception (Codec.Corrupt _ | Codec.Truncated _) -> ()
  | _ -> Alcotest.failf "%s: expected the load to refuse" label

let test_persist_rejects_garbage () =
  with_file ".snap" (fun path ->
      Snapshot_image.write path "not a snapshot";
      expect_refused "garbage" path;
      (* correct magic, a whole header page, wrong version *)
      let w = Codec.writer () in
      Codec.write_string w Snapshot.magic;
      Codec.write_varint w 999;
      let head = Codec.contents w in
      Snapshot_image.write path (head ^ String.make (4096 - String.length head) '\000');
      match Snapshot.load path with
      | exception Codec.Corrupt msg ->
        check bool "names the version" true (contains_substring msg "version 999")
      | _ -> Alcotest.fail "expected version rejection")

let test_persist_index_roundtrip () =
  let doc = Document.of_document (Extract_datagen.Retail.generate Extract_datagen.Retail.default) in
  let index = Inverted_index.build doc in
  let _, loaded = roundtrip doc in
  check int "token count" (Inverted_index.token_count index) (Inverted_index.token_count loaded);
  check int "postings size" (Inverted_index.postings_size index)
    (Inverted_index.postings_size loaded);
  (* every keyword's posting list survives byte-identically *)
  List.iter
    (fun tok ->
      check bool (Printf.sprintf "postings of %s" tok) true
        (Inverted_index.lookup index tok = Inverted_index.lookup loaded tok))
    (Inverted_index.vocabulary index);
  (* match kinds (the tag-token table) survive too *)
  check bool "tag kind" true
    (Inverted_index.match_kind loaded ~keyword:"retailer" ~node:1
    = Inverted_index.match_kind index ~keyword:"retailer" ~node:1)

let test_persist_index_file_and_search () =
  let doc = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let index = Inverted_index.build doc in
  let _, loaded = roundtrip doc in
  let kinds = Node_kind.of_document doc in
  let q = Extract_search.Query.of_string Extract_datagen.Paper_example.query in
  let a = Extract_search.Engine.run index kinds q in
  let b = Extract_search.Engine.run loaded kinds q in
  check bool "same search results" true
    (List.map Result_tree.root a = List.map Result_tree.root b)

(* The load reads the index section whole, without its digest: garbage
   there is refused all the same *)
let test_persist_index_rejects_garbage () =
  with_snapshot (Document.load_string "<r><a>one</a></r>") (fun path ->
      let data = Snapshot_image.read path in
      let index = Snapshot_image.section data "index" in
      let garbage = String.make (String.length index) 'g' in
      Snapshot_image.write path (Snapshot_image.with_section data "index" (fun _ -> garbage));
      expect_refused "garbage index" path;
      Snapshot_image.write path (Snapshot_image.with_section data "index" (fun _ -> ""));
      expect_refused "empty index" path)

let test_persist_index_compression_wins () =
  (* the stored lists must beat 8-byte-per-posting raw storage comfortably *)
  let doc = Document.of_document (Extract_datagen.Retail.scaled 2000) in
  let index = Inverted_index.build doc in
  with_snapshot doc (fun path ->
      let stored = List.assoc "index" (Snapshot.verify path).Snapshot.v_sections in
      let raw = 8 * Inverted_index.postings_size index in
      check bool (Printf.sprintf "index section %d < raw postings %d" stored raw) true
        (stored < raw))

let test_persist_pipeline_equivalent () =
  (* searching a persisted-and-reloaded database gives identical snippets *)
  let doc = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let out db =
    Pipeline.run ~bound:8 db Extract_datagen.Paper_example.query
    |> List.map (fun (r : Pipeline.snippet_result) ->
           Snippet_tree.render r.Pipeline.selection.Selector.snippet)
  in
  let reloaded = with_snapshot doc Pipeline.load_snapshot in
  check bool "identical output" true (out (Pipeline.build doc) = out reloaded)

(* ------------------------------------------------------------------ *)
(* Persistence: digests, fingerprints, fault injection *)

let with_faults spec f =
  match Extract_util.Faults.configure spec with
  | Error e -> Alcotest.failf "configure %S: %s" spec e
  | Ok () -> Fun.protect ~finally:Extract_util.Faults.clear f

(* Flip one byte inside [section] and expect [verify] to name it. *)
let expect_flip_detected path data section =
  let b = Bytes.of_string data in
  let pos = Snapshot_image.section_offset data section + 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
  Snapshot_image.write path (Bytes.to_string b);
  match Snapshot.verify path with
  | exception Codec.Corrupt msg ->
    check bool
      (Printf.sprintf "%s checksum named in %S" section msg)
      true
      (contains_substring msg "checksum" && contains_substring msg (Printf.sprintf "%S" section))
  | _ -> Alcotest.failf "expected Corrupt on a flipped %s byte" section

(* the bulk the load maps without reading *)
let test_persist_checksum_detects_bitflip () =
  with_snapshot (Document.load_string league) (fun path ->
      let data = Snapshot_image.read path in
      List.iter (expect_flip_detected path data) [ "tag"; "textblob" ])

(* the small sections a snapshot bundles with its arena *)
let test_persist_bundle_checksum_detects_bitflip () =
  with_snapshot (Document.load_string league) (fun path ->
      let data = Snapshot_image.read path in
      List.iter (expect_flip_detected path data) [ "meta"; "index"; "analysis" ])

(* the header's fingerprint must be the digest of the arena sections'
   digests: a forged one is refused by verify, and by the load because
   the index section no longer pairs with it *)
let test_persist_fingerprint_mismatch () =
  with_snapshot (Document.load_string league) (fun path ->
      let data = Snapshot_image.read path in
      let fingerprint = Snapshot_image.index_fingerprint data in
      let at = Snapshot_image.section_offset data "tag" in
      let rec find i = if String.sub data i 32 = fingerprint then i else find (i + 1) in
      let pos = find 0 in
      check bool "the header holds it" true (pos < at);
      let b = Bytes.of_string data in
      Bytes.set b pos (if Bytes.get b pos = '0' then '1' else '0');
      Snapshot_image.write path (Bytes.to_string b);
      (match Snapshot.verify path with
      | exception Codec.Corrupt msg ->
        check bool (Printf.sprintf "fingerprint named in %S" msg) true
          (contains_substring msg "fingerprint")
      | _ -> Alcotest.fail "verify accepted a forged header fingerprint");
      match Snapshot.load path with
      | exception Codec.Corrupt msg ->
        check bool (Printf.sprintf "fingerprint named in %S" msg) true
          (contains_substring msg "fingerprint")
      | _ -> Alcotest.fail "load accepted an index that pairs with another fingerprint")

(* both files intact, but one's index section spliced into the other:
   every digest matches, only the pairing rule can tell *)
let test_persist_load_index_rejects_mismatched_files () =
  let doc_a = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let doc_b = Document.load_string league in
  with_snapshot doc_a (fun a ->
      with_snapshot doc_b (fun b ->
          let index_b = Snapshot_image.section (Snapshot_image.read b) "index" in
          Snapshot_image.write a
            (Snapshot_image.with_section (Snapshot_image.read a) "index" (fun _ -> index_b));
          (match Snapshot.verify a with
          | _ -> ()
          | exception Codec.Corrupt msg -> Alcotest.failf "digests re-laid, yet %s" msg);
          match Snapshot.load a with
          | exception Codec.Corrupt msg ->
            check bool
              (Printf.sprintf "fingerprint named in %S" msg)
              true
              (contains_substring msg "fingerprint")
          | _ -> Alcotest.fail "an index from another arena was accepted"))

let test_persist_read_fault_point () =
  with_snapshot (Document.load_string league) (fun path ->
      with_faults "snapshot.map:fail" (fun () ->
          (match Snapshot.load path with
          | exception Codec.Corrupt msg ->
            check bool "names the injection" true (contains_substring msg "injected")
          | _ -> Alcotest.fail "snapshot.map fault did not fire");
          check bool "fired counted" true (Extract_util.Faults.fired "snapshot.map" >= 1));
      (* disarmed again: the same file loads *)
      match Snapshot.load path with
      | _ -> ()
      | exception Codec.Corrupt msg -> Alcotest.failf "clean load failed: %s" msg)

let test_persist_write_fault_point () =
  let db = Pipeline.of_xml_string league in
  with_file ".snap" (fun path ->
      with_faults "snapshot.write:once" (fun () ->
          (match Pipeline.save_snapshot path db with
          | exception Extract_util.Faults.Injected _ -> ()
          | () -> Alcotest.fail "snapshot.write fault did not fire");
          check bool "no temp file left" false (Sys.file_exists (path ^ ".tmp"));
          (* [once]: the retry goes through *)
          Pipeline.save_snapshot path db;
          match Snapshot.load path with
          | _ -> ()
          | exception Codec.Corrupt msg -> Alcotest.failf "retried write unreadable: %s" msg))

(* ------------------------------------------------------------------ *)
(* Path_query *)

let paper_doc = lazy (Document.of_document (Extract_datagen.Paper_example.document ()))

let test_path_child_steps () =
  let doc = Lazy.force paper_doc in
  let retailers = Path_query.select_string doc "/retailers/retailer" in
  check int "three retailers" 3 (List.length retailers);
  check int "root select" 1 (List.length (Path_query.select_string doc "/retailers"))

let test_path_descendant () =
  let doc = Lazy.force paper_doc in
  let cities = Path_query.select_string doc "//city" in
  check int "12 city nodes" 12 (List.length cities);
  let deep = Path_query.select_string doc "/retailers//category" in
  check bool "many categories" true (List.length deep > 1000)

let test_path_wildcard () =
  let doc = Lazy.force paper_doc in
  let children = Path_query.select_string doc "/retailers/*" in
  check int "wildcard = retailers" 3 (List.length children)

let test_path_positional () =
  let doc = Lazy.force paper_doc in
  match Path_query.select_string doc "/retailers/retailer[2]/name" with
  | n :: _ -> check string "second retailer" "Levis" (String.trim (Document.immediate_text doc n))
  | [] -> Alcotest.fail "no match"

let test_path_equality_predicate () =
  let doc = Lazy.force paper_doc in
  let austin = Path_query.select_string doc "//store[city=\"Austin\"]" in
  check int "one Austin store" 1 (List.length austin);
  let houston = Path_query.select_string doc "//store[city=\"Houston\"]" in
  check int "six Houston stores" 6 (List.length houston)

let test_path_no_match_and_errors () =
  let doc = Lazy.force paper_doc in
  check int "wrong root" 0 (List.length (Path_query.select_string doc "/nope"));
  check int "overshoot position" 0
    (List.length (Path_query.select_string doc "/retailers/retailer[99]"));
  List.iter
    (fun bad ->
      match Path_query.select_string doc bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected parse failure on %S" bad)
    [ ""; "retailer"; "/a[0]"; "/a[x=y]"; "/a[" ]

let test_path_to_string_roundtrip () =
  List.iter
    (fun p ->
      let parsed = Path_query.parse p in
      check string "canonical" p (Path_query.to_string parsed))
    [ "/a/b"; "//c"; "/a//b[3]"; "/a/*[2]"; "//store[city=\"Austin\"]" ]

(* ------------------------------------------------------------------ *)
(* Html_view *)

let test_html_escape () =
  check string "escaped" "&lt;a&gt; &amp; &quot;b&quot;" (Html_view.escape "<a> & \"b\"")

let test_html_page_structure () =
  let db = db_of league in
  let results = Pipeline.run ~bound:4 db "guard team" in
  let page = Html_view.result_page ~query:"guard team" ~bound:4 results in
  List.iter
    (fun fragment ->
      check bool (Printf.sprintf "page contains %s" fragment) true
        (contains_substring page fragment))
    [ "<!DOCTYPE html>"; "guard team"; "class=\"snippet\""; "IList:"; "<details>";
      "Sharks"; "</html>" ]

let test_html_values_escaped () =
  let db = db_of "<r><x><v>a&amp;b</v></x><x><v>c</v></x></r>" in
  let results = Pipeline.run ~bound:4 db "v a" in
  let page = Html_view.result_page ~query:"a" ~bound:4 results in
  check bool "ampersand escaped" true (contains_substring page "a&amp;b");
  check bool "raw ampersand absent" false (contains_substring page "a&b<")

let test_html_write_page () =
  let db = db_of league in
  let results = Pipeline.run ~bound:4 db "guard" in
  let path = Filename.temp_file "extract_html" ".html" in
  Html_view.write_page ~path ~query:"guard" ~bound:4 results;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check bool "file written" true (contains_substring content "</html>")

let suites =
  [
    ( "ext.config",
      [
        Alcotest.test_case "keywords only" `Quick test_config_keywords_only;
        Alcotest.test_case "independent goals" `Quick test_config_goals_independent;
        Alcotest.test_case "max features" `Quick test_config_max_features;
        Alcotest.test_case "frequency order" `Quick test_config_frequency_order;
      ] );
    ( "ext.query_bias",
      [
        Alcotest.test_case "hot entities" `Quick test_query_bias_hot_entities;
        Alcotest.test_case "affinity range" `Quick test_query_bias_affinity_range;
        Alcotest.test_case "prefers co-occurring" `Quick test_query_bias_prefers_cooccurring;
      ] );
    ( "ext.differentiator",
      [
        Alcotest.test_case "idf" `Quick test_differentiator_idf;
        Alcotest.test_case "shared penalized" `Quick test_differentiator_shared_penalized;
        Alcotest.test_case "bound kept" `Quick test_differentiated_run_keeps_bound;
        Alcotest.test_case "single result noop" `Quick test_differentiator_single_result_noop;
        Alcotest.test_case "reorder keeps prefix" `Quick test_reorder_features_keeps_fixed_prefix;
      ] );
    ( "ext.ranker",
      [
        Alcotest.test_case "idf ordering" `Quick test_ranker_idf_rare_beats_common;
        Alcotest.test_case "specificity" `Quick test_ranker_prefers_specific_result;
        Alcotest.test_case "sorted" `Quick test_ranker_sorted_desc;
        Alcotest.test_case "zero score" `Quick test_ranker_zero_for_no_match;
      ] );
    ( "ext.xsearch",
      [
        Alcotest.test_case "interconnected" `Quick test_interconnected_basic;
        Alcotest.test_case "ancestor chain" `Quick test_interconnected_ancestor;
        Alcotest.test_case "answers" `Quick test_xsearch_results;
        Alcotest.test_case "engine integration" `Quick test_engine_xsearch_semantics;
      ] );
    ( "ext.codec",
      [
        Alcotest.test_case "ints" `Quick test_codec_roundtrip_ints;
        Alcotest.test_case "strings" `Quick test_codec_roundtrip_strings;
        Alcotest.test_case "corrupt" `Quick test_codec_corrupt;
        Alcotest.test_case "negative varint" `Quick test_codec_negative_varint;
      ] );
    ( "ext.persist",
      [
        Alcotest.test_case "roundtrip" `Quick test_persist_roundtrip;
        Alcotest.test_case "dtd preserved" `Quick test_persist_dtd_preserved;
        Alcotest.test_case "file roundtrip" `Quick test_persist_file_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_persist_rejects_garbage;
        Alcotest.test_case "pipeline equivalent" `Quick test_persist_pipeline_equivalent;
        Alcotest.test_case "index roundtrip" `Quick test_persist_index_roundtrip;
        Alcotest.test_case "index file + search" `Quick test_persist_index_file_and_search;
        Alcotest.test_case "index rejects garbage" `Quick test_persist_index_rejects_garbage;
        Alcotest.test_case "index compression" `Quick test_persist_index_compression_wins;
        Alcotest.test_case "checksum bitflip" `Quick test_persist_checksum_detects_bitflip;
        Alcotest.test_case "bundle bitflip" `Quick test_persist_bundle_checksum_detects_bitflip;
        Alcotest.test_case "fingerprint mismatch" `Quick test_persist_fingerprint_mismatch;
        Alcotest.test_case "mismatched files" `Quick
          test_persist_load_index_rejects_mismatched_files;
        Alcotest.test_case "read fault" `Quick test_persist_read_fault_point;
        Alcotest.test_case "write fault" `Quick test_persist_write_fault_point;
      ] );
    ( "ext.path_query",
      [
        Alcotest.test_case "child steps" `Quick test_path_child_steps;
        Alcotest.test_case "descendant" `Quick test_path_descendant;
        Alcotest.test_case "wildcard" `Quick test_path_wildcard;
        Alcotest.test_case "positional" `Quick test_path_positional;
        Alcotest.test_case "equality predicate" `Quick test_path_equality_predicate;
        Alcotest.test_case "misses and errors" `Quick test_path_no_match_and_errors;
        Alcotest.test_case "to_string" `Quick test_path_to_string_roundtrip;
      ] );
    ( "ext.html_view",
      [
        Alcotest.test_case "escape" `Quick test_html_escape;
        Alcotest.test_case "page structure" `Quick test_html_page_structure;
        Alcotest.test_case "values escaped" `Quick test_html_values_escaped;
        Alcotest.test_case "write page" `Quick test_html_write_page;
      ] );
  ]
