(* Integration tests: the full pipeline on every synthetic dataset, engine
   interoperability, serialization round trips through the store, and
   determinism guarantees. *)

module Document = Extract_store.Document
module Doc_stats = Extract_store.Doc_stats
module Node_kind = Extract_store.Node_kind
module Inverted_index = Extract_store.Inverted_index
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Selector = Extract_snippet.Selector
module Ilist = Extract_snippet.Ilist
module Snippet_tree = Extract_snippet.Snippet_tree
module Datagen = Extract_datagen

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let datasets =
  [
    "retail", (fun () -> Datagen.Retail.generate Datagen.Retail.default);
    "movies", (fun () -> Datagen.Movies.generate Datagen.Movies.default);
    "auction", (fun () -> Datagen.Auction.generate Datagen.Auction.default);
    "bib", (fun () -> Datagen.Bib.generate Datagen.Bib.default);
  ]

let build name gen = name, Pipeline.build (Document.of_document (gen ()))

let built = lazy (List.map (fun (n, g) -> build n g) datasets)

(* ------------------------------------------------------------------ *)
(* Generators produce valid, well-shaped documents *)

let test_generators_parse_back () =
  List.iter
    (fun (name, gen) ->
      let doc = gen () in
      let serialized = Extract_xml.Printer.document_to_string doc in
      let reparsed = Tree_fold.parse_document serialized in
      check bool
        (name ^ " roundtrips through the printer")
        true
        (doc.Extract_xml.Types.root = reparsed.Extract_xml.Types.root))
    datasets

let test_generators_deterministic () =
  List.iter
    (fun (name, gen) ->
      let a = Extract_xml.Printer.document_to_string (gen ()) in
      let b = Extract_xml.Printer.document_to_string (gen ()) in
      check bool (name ^ " deterministic") true (String.equal a b))
    datasets

let test_generators_have_entities_and_keys () =
  List.iter
    (fun (name, db) ->
      let stats = Doc_stats.compute (Pipeline.kinds db) in
      check bool (name ^ " has entities") true (stats.Doc_stats.entity_paths > 0);
      check bool (name ^ " has attributes") true (stats.Doc_stats.attribute_paths > 0);
      let keys = Pipeline.keys db in
      let some_key =
        List.exists
          (fun p -> Extract_store.Key_miner.key_path keys p <> None)
          (Node_kind.entity_paths (Pipeline.kinds db))
      in
      check bool (name ^ " mines at least one key") true some_key)
    (Lazy.force built)

let test_retail_scaling () =
  let small = Document.of_document (Datagen.Retail.scaled 100) in
  let large = Document.of_document (Datagen.Retail.scaled 800) in
  check bool "scaling grows the document" true
    (Document.node_count large > 2 * Document.node_count small)

let test_movies_no_dtd_auction_dtd () =
  let movies = Document.of_document (Datagen.Movies.generate Datagen.Movies.default) in
  let auction = Document.of_document (Datagen.Auction.generate Datagen.Auction.default) in
  check bool "movies relies on inference" true (Document.dtd movies = None);
  check bool "auction carries a DTD" true (Document.dtd auction <> None)

(* ------------------------------------------------------------------ *)
(* Workload queries have results on their dataset *)

let test_workload_queries_hit () =
  List.iter
    (fun (name, db) ->
      let queries =
        Datagen.Workload.generate Datagen.Workload.default (Pipeline.kinds db)
      in
      check bool (name ^ " produces queries") true (List.length queries > 0);
      let with_results =
        List.filter (fun q -> Pipeline.search db q <> []) queries
      in
      (* every workload query is built from entity content, so the vast
         majority must produce at least one result *)
      check bool
        (Printf.sprintf "%s: %d/%d queries have results" name
           (List.length with_results) (List.length queries))
        true
        (2 * List.length with_results >= List.length queries))
    (Lazy.force built)

(* ------------------------------------------------------------------ *)
(* Full pipeline on every dataset and engine *)

let test_pipeline_all_datasets_all_engines () =
  List.iter
    (fun (name, db) ->
      let queries =
        Datagen.Workload.generate
          { Datagen.Workload.default with Datagen.Workload.queries = 5 }
          (Pipeline.kinds db)
      in
      List.iter
        (fun q ->
          List.iter
            (fun semantics ->
              List.iter
                (fun (r : Pipeline.snippet_result) ->
                  let label = Printf.sprintf "%s/%s/%s" name (Engine.string_of_semantics semantics) q in
                  check bool (label ^ " bound") true
                    (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet
                     <= Pipeline.default_bound);
                  check bool (label ^ " snippet inside result") true
                    (List.for_all
                       (fun n -> Result_tree.mem r.Pipeline.result n)
                       (Snippet_tree.nodes r.Pipeline.selection.Selector.snippet)))
                (Pipeline.run ~semantics ~limit:3 db q))
            Engine.all_semantics)
        queries)
    (Lazy.force built)

let test_pipeline_deterministic_end_to_end () =
  let doc () = Document.of_document (Datagen.Retail.generate Datagen.Retail.default) in
  let run () =
    let db = Pipeline.build (doc ()) in
    Pipeline.run ~bound:8 ~limit:5 db "apparel retailer"
    |> List.map (fun (r : Pipeline.snippet_result) ->
           Snippet_tree.render r.Pipeline.selection.Selector.snippet)
  in
  check bool "identical snippets across runs" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Cross-engine consistency *)

let test_xseek_roots_are_entities_or_matches () =
  List.iter
    (fun (name, db) ->
      let kinds = Pipeline.kinds db in
      let doc = Pipeline.document db in
      let queries =
        Datagen.Workload.generate
          { Datagen.Workload.default with Datagen.Workload.queries = 5; seed = 17 }
          kinds
      in
      List.iter
        (fun q ->
          List.iter
            (fun r ->
              let root = Result_tree.root r in
              (* the XSeek return node is an entity unless no entity exists
                 above the SLCA *)
              let is_entity = Node_kind.is_entity kinds root in
              let no_entity_above =
                Node_kind.nearest_entity_ancestor kinds root = None
              in
              check bool
                (Printf.sprintf "%s/%s: root %s" name q (Document.tag_name doc root))
                true (is_entity || no_entity_above))
            (Pipeline.search db q))
        queries)
    (Lazy.force built)

let test_slca_count_at_least_xseek () =
  (* XSeek merges nested/duplicate return nodes, so it can only have fewer
     or equal results than SLCA. *)
  List.iter
    (fun (name, db) ->
      let queries =
        Datagen.Workload.generate
          { Datagen.Workload.default with Datagen.Workload.queries = 5; seed = 29 }
          (Pipeline.kinds db)
      in
      List.iter
        (fun q ->
          let slca = List.length (Pipeline.search ~semantics:Engine.Slca db q) in
          let xseek = List.length (Pipeline.search ~semantics:Engine.Xseek db q) in
          check bool (Printf.sprintf "%s/%s: xseek<=slca" name q) true (xseek <= slca))
        queries)
    (Lazy.force built)

(* ------------------------------------------------------------------ *)
(* File IO path *)

let test_load_via_file () =
  let doc = Datagen.Movies.sized 5 in
  let path = Filename.temp_file "extract_test" ".xml" in
  Extract_xml.Printer.write_file path doc;
  let db = Pipeline.of_file path in
  Sys.remove path;
  check bool "file pipeline works" true
    (Document.node_count (Pipeline.document db) > 0);
  check bool "query works" true (Pipeline.run db "movie" <> [])

(* ------------------------------------------------------------------ *)
(* Paper example through the serialization path *)

let test_paper_example_via_serialization () =
  let doc = Datagen.Paper_example.document () in
  let s = Extract_xml.Printer.document_to_string doc in
  let db = Pipeline.of_xml_string s in
  let results = Pipeline.run ~bound:14 db Datagen.Paper_example.query in
  check int "one result" 1 (List.length results);
  let r = List.hd results in
  let displays =
    List.map (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item) (Ilist.entries r.Pipeline.ilist)
  in
  check (Alcotest.list Alcotest.string) "IList survives serialization"
    Datagen.Paper_example.expected_ilist displays

let suites =
  [
    ( "integration.generators",
      [
        Alcotest.test_case "parse back" `Quick test_generators_parse_back;
        Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
        Alcotest.test_case "entities and keys" `Quick test_generators_have_entities_and_keys;
        Alcotest.test_case "retail scaling" `Quick test_retail_scaling;
        Alcotest.test_case "dtd presence" `Quick test_movies_no_dtd_auction_dtd;
      ] );
    ( "integration.workload",
      [ Alcotest.test_case "queries hit" `Quick test_workload_queries_hit ] );
    ( "integration.pipeline",
      [
        Alcotest.test_case "all datasets x engines" `Slow test_pipeline_all_datasets_all_engines;
        Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic_end_to_end;
      ] );
    ( "integration.engines",
      [
        Alcotest.test_case "xseek roots" `Quick test_xseek_roots_are_entities_or_matches;
        Alcotest.test_case "xseek <= slca" `Quick test_slca_count_at_least_xseek;
      ] );
    ( "integration.io",
      [
        Alcotest.test_case "file load" `Quick test_load_via_file;
        Alcotest.test_case "paper example serialized" `Quick test_paper_example_via_serialization;
      ] );
  ]
