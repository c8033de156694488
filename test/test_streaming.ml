(* Tests for the SAX parser, the streaming arena constructor and index
   completions. *)

module Sax = Extract_xml.Sax
module Parser = Extract_xml.Parser
module Types = Extract_xml.Types
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index

let events ?keep_whitespace src =
  List.rev (fst (Sax.fold_document ?keep_whitespace src ~init:[] ~f:(fun acc ev -> ev :: acc)))

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* SAX events *)

let test_sax_events_basic () =
  let evs = events "<a><b>hi</b><c/></a>" in
  check bool "event stream" true
    (evs
    = [
        Sax.Start_element ("a", []);
        Sax.Start_element ("b", []);
        Sax.Text "hi";
        Sax.End_element "b";
        Sax.Start_element ("c", []);
        Sax.End_element "c";
        Sax.End_element "a";
      ])

let test_sax_attributes () =
  let evs = events {|<a x="1" y="2"/>|} in
  check bool "attrs delivered in order" true
    (evs = [ Sax.Start_element ("a", [ "x", "1"; "y", "2" ]); Sax.End_element "a" ])

let test_sax_references_and_cdata () =
  let evs = events "<a>&lt;x&gt;<![CDATA[ &raw; ]]></a>" in
  check bool "merged decoded text" true
    (evs = [ Sax.Start_element ("a", []); Sax.Text "<x> &raw; "; Sax.End_element "a" ])

let test_sax_whitespace_policy () =
  let dropped = events "<a>\n  <b/>\n</a>" in
  check int "whitespace dropped" 4 (List.length dropped);
  let kept = events ~keep_whitespace:true "<a>\n  <b/>\n</a>" in
  check int "whitespace kept" 6 (List.length kept)

let test_sax_doctype () =
  let _, dtd =
    Sax.fold_document "<!DOCTYPE r [<!ELEMENT r (a*)>]><r><a/></r>" ~init:() ~f:(fun () _ -> ())
  in
  check bool "subset returned" true (dtd = Some "<!ELEMENT r (a*)>")

let test_sax_count_elements () =
  check int "count" 3 (Sax.count_elements "<a><b/><c>t</c></a>")

let test_sax_errors () =
  List.iter
    (fun bad ->
      match events bad with
      | exception Extract_xml.Error.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error on %S" bad)
    [ "<a>"; "<a></b>"; "<a/><b/>"; "" ]

(* Rebuilding a tree from events equals the tree parser. *)
let rebuild events =
  let rec build evs =
    match evs with
    | Sax.Start_element (tag, attrs) :: rest ->
      let children, rest = children [] rest in
      (match rest with
      | Sax.End_element close :: rest when close = tag ->
        ( Types.Element
            { Types.tag; attrs = List.map (fun (name, value) -> { Types.name; value }) attrs;
              children },
          rest )
      | _ -> Alcotest.fail "unbalanced events")
    | Sax.Text s :: rest -> Types.Text s, rest
    | _ -> Alcotest.fail "unexpected event"
  and children acc evs =
    match evs with
    | Sax.End_element _ :: _ -> List.rev acc, evs
    | [] -> List.rev acc, []
    | _ ->
      let node, rest = build evs in
      children (node :: acc) rest
  in
  fst (build events)

let test_sax_agrees_with_parser () =
  List.iter
    (fun src ->
      let via_tree = Types.Element (Parser.parse_document src).root in
      let via_sax = rebuild (events src) in
      check bool (Printf.sprintf "agree on %s" src) true (via_tree = via_sax))
    [
      "<a/>";
      "<a><b>x</b><b>y</b></a>";
      {|<a k="v"><b>t1</b>mid<c/></a>|};
      "<r>&amp;&#65;<![CDATA[cd]]></r>";
      "<a><!-- c --><b/><?pi?></a>";
    ]

(* ------------------------------------------------------------------ *)
(* Streaming arena construction *)

let docs_equal a b =
  Document.node_count a = Document.node_count b
  && Document.to_xml a 0 = Document.to_xml b 0
  && Document.element_count a = Document.element_count b

let test_streaming_equals_tree_build () =
  List.iter
    (fun src ->
      let tree = Document.load_string src in
      let streamed = Document.of_string_streaming src in
      check bool (Printf.sprintf "same arena for %s" src) true (docs_equal tree streamed);
      (* spot-check structural metadata *)
      for n = 0 to Document.node_count tree - 1 do
        check int "depth" (Document.depth tree n) (Document.depth streamed n);
        check int "size" (Document.subtree_size tree n) (Document.subtree_size streamed n);
        check bool "parent" true (Document.parent tree n = Document.parent streamed n)
      done)
    [
      "<a/>";
      "<a><b>x</b><b>y</b><c><d>z</d></c></a>";
      {|<a k="v" k2="w"><b>t</b></a>|};
      "<r>text<e/>more</r>";
    ]

let test_streaming_on_generated_dataset () =
  let xml =
    Extract_xml.Printer.document_to_string (Extract_datagen.Movies.sized 20)
  in
  let tree = Document.load_string xml in
  let streamed = Document.of_string_streaming xml in
  check bool "movies dataset" true (docs_equal tree streamed)

let test_streaming_dtd () =
  let d = Document.of_string_streaming "<!DOCTYPE r [<!ELEMENT r (a*)>]><r><a/></r>" in
  check bool "dtd parsed" true (Document.dtd d <> None);
  check bool "declarations kept" true
    (match Document.dtd d with
    | Some dtd -> Extract_xml.Dtd.is_star_child dtd ~parent:"r" ~child:"a" = Some true
    | None -> false)

let test_streaming_pipeline_equivalence () =
  let xml = Extract_xml.Printer.document_to_string (Extract_datagen.Paper_example.document ()) in
  let out doc =
    Extract_snippet.Pipeline.run ~bound:8
      (Extract_snippet.Pipeline.build doc)
      Extract_datagen.Paper_example.query
    |> List.map (fun (r : Extract_snippet.Pipeline.snippet_result) ->
           Extract_snippet.Snippet_tree.render r.selection.snippet)
  in
  check bool "identical snippets" true
    (out (Document.load_string xml) = out (Document.of_string_streaming xml))

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
        Alcotest.test_case "agrees with parser" `Quick test_sax_agrees_with_parser;
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
