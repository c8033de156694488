(* Tests for the parser's event fold, the arena builder over it and
   index completions. *)

module Parser = Extract_xml.Parser
module Types = Extract_xml.Types
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Datagen = Extract_datagen

let events src =
  List.rev (fst (Parser.fold_document src ~init:[] ~f:(fun acc ev -> ev :: acc)))

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Events *)

let test_sax_events_basic () =
  let evs = events "<a><b>hi</b><c/></a>" in
  check bool "event stream" true
    (evs
    = [
        Parser.Start_element ("a", []);
        Parser.Start_element ("b", []);
        Parser.Text "hi";
        Parser.End_element "b";
        Parser.Start_element ("c", []);
        Parser.End_element "c";
        Parser.End_element "a";
      ])

let test_sax_attributes () =
  let evs = events {|<a x="1" y='2&amp;3'/>|} in
  check bool "attrs delivered in order" true
    (evs = [ Parser.Start_element ("a", [ "x", "1"; "y", "2&3" ]); Parser.End_element "a" ])

let test_sax_references_and_cdata () =
  let evs = events "<a>&lt;x&gt;<![CDATA[ &raw; ]]></a>" in
  check bool "merged decoded text" true
    (evs = [ Parser.Start_element ("a", []); Parser.Text "<x> &raw; "; Parser.End_element "a" ])

let test_sax_whitespace_policy () =
  let dropped = events "<a>\n  <b/>\n</a>" in
  check int "whitespace dropped" 4 (List.length dropped);
  check bool "whitespace around text kept" true
    (events "<a> x <!-- c --> y </a>"
    = [ Parser.Start_element ("a", []); Parser.Text " x  y "; Parser.End_element "a" ])

let test_sax_doctype () =
  let _, dtd =
    Parser.fold_document "<!DOCTYPE r [<!ELEMENT r (a*)>]><r><a/></r>" ~init:() ~f:(fun () _ -> ())
  in
  check bool "subset returned" true (dtd = Some "<!ELEMENT r (a*)>")

let test_sax_count_elements () =
  let starts, _ =
    Parser.fold_document "<a><b/><c>t</c></a>" ~init:0 ~f:(fun n ev ->
        match ev with
        | Parser.Start_element _ -> n + 1
        | Parser.Text _ | Parser.End_element _ -> n)
  in
  check int "count" 3 starts

let test_sax_errors () =
  List.iter
    (fun bad ->
      match events bad with
      | exception Extract_xml.Error.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error on %S" bad)
    [ "<a>"; "<a></b>"; "<a/><b/>"; ""; "<a></ab>"; "<ab></a>"; "<a></a b>" ]

(* ------------------------------------------------------------------ *)
(* The arena builder *)

(* The reference: the arena flattened from a tree. For literal sources
   the tree is the tests' fold of the same bytes; for generated
   documents it is the generator's own tree. *)
let reference_of_source src = Document.of_document (Tree_fold.parse_document src)

let same_arena a b = Document.Internal.to_repr a = Document.Internal.to_repr b

let test_streaming_equals_tree_build () =
  List.iter
    (fun src ->
      check bool (Printf.sprintf "same arena for %s" src) true
        (same_arena (Document.load_string src) (reference_of_source src)))
    [
      "<a/>";
      "<a><b>x</b><b>y</b><c><d>z</d></c></a>";
      {|<a k="v" k2="w"><b>t</b></a>|};
      "<r>text<e/>more</r>";
      "<!DOCTYPE r [<!ELEMENT r (a*)>]><r><a>&amp;<![CDATA[<]]></a></r>";
    ]

let generators =
  [
    "paper", (fun () -> Datagen.Paper_example.document ());
    "retail", (fun () -> Datagen.Retail.generate Datagen.Retail.default);
    "retail scaled", (fun () -> Datagen.Retail.scaled 300);
    "movies", (fun () -> Datagen.Movies.sized 20);
    "auction", (fun () -> Datagen.Auction.sized 20);
    "bib", (fun () -> Datagen.Bib.sized 20);
    "courses", (fun () -> Datagen.Courses.sized 20);
    "nested", (fun () -> Nested.sized 40);
  ]

let test_streaming_on_generated_dataset () =
  List.iter
    (fun (name, gen) ->
      let doc = gen () in
      List.iter
        (fun indent ->
          let xml = Extract_xml.Printer.document_to_string ~indent doc in
          check bool name true (same_arena (Document.load_string xml) (Document.of_document doc)))
        [ Some 2; None ])
    generators

let test_streaming_dtd () =
  let d = Document.load_string "<!DOCTYPE r [<!ELEMENT r (a*)>]><r><a/></r>" in
  check bool "dtd parsed" true (Document.dtd d <> None);
  check bool "declarations kept" true
    (match Document.dtd d with
    | Some dtd -> Extract_xml.Dtd.is_star_child dtd ~parent:"r" ~child:"a" = Some true
    | None -> false)

let test_streaming_pipeline_equivalence () =
  let doc = Datagen.Paper_example.document () in
  let xml = Extract_xml.Printer.document_to_string doc in
  let out doc =
    Extract_snippet.Pipeline.run ~bound:8
      (Extract_snippet.Pipeline.build doc)
      Datagen.Paper_example.query
    |> List.map (fun (r : Extract_snippet.Pipeline.snippet_result) ->
           Extract_snippet.Snippet_tree.render r.selection.snippet)
  in
  check bool "identical snippets" true
    (out (Document.load_string xml) = out (Document.of_document doc))

(* ------------------------------------------------------------------ *)
(* Index completions *)

let test_complete_basic () =
  let d = Document.load_string "<r><a>houston</a><a>house</a><a>houston</a><b>host</b></r>" in
  let idx = Inverted_index.build d in
  let comps = Inverted_index.complete idx "hou" in
  check bool "houston first (2 postings)" true
    (match comps with
    | ("houston", _) :: _ -> true
    | _ -> false);
  check int "two completions" 2 (List.length comps);
  check bool "host excluded" true (not (List.mem_assoc "host" comps))

let test_complete_normalizes () =
  let d = Document.load_string "<r><a>Texas</a></r>" in
  let idx = Inverted_index.build d in
  check bool "case folded" true (List.mem_assoc "texas" (Inverted_index.complete idx "TEX"))

let test_complete_limit_and_empty () =
  let d = Document.load_string "<r><a>aa ab ac ad ae af</a></r>" in
  let idx = Inverted_index.build d in
  check int "limit" 3 (List.length (Inverted_index.complete idx ~limit:3 "a"));
  check int "empty prefix" 0 (List.length (Inverted_index.complete idx "  "));
  check int "no match" 0 (List.length (Inverted_index.complete idx "zz"))

let suites =
  [
    ( "xml.sax",
      [
        Alcotest.test_case "basic events" `Quick test_sax_events_basic;
        Alcotest.test_case "attributes" `Quick test_sax_attributes;
        Alcotest.test_case "references/cdata" `Quick test_sax_references_and_cdata;
        Alcotest.test_case "whitespace" `Quick test_sax_whitespace_policy;
        Alcotest.test_case "doctype" `Quick test_sax_doctype;
        Alcotest.test_case "count" `Quick test_sax_count_elements;
        Alcotest.test_case "errors" `Quick test_sax_errors;
      ] );
    ( "store.streaming",
      [
        Alcotest.test_case "equals tree build" `Quick test_streaming_equals_tree_build;
        Alcotest.test_case "generated dataset" `Quick test_streaming_on_generated_dataset;
        Alcotest.test_case "dtd" `Quick test_streaming_dtd;
        Alcotest.test_case "pipeline equivalence" `Quick test_streaming_pipeline_equivalence;
      ] );
    ( "store.completions",
      [
        Alcotest.test_case "basic" `Quick test_complete_basic;
        Alcotest.test_case "normalization" `Quick test_complete_normalizes;
        Alcotest.test_case "limit/empty" `Quick test_complete_limit_and_empty;
      ] );
  ]
