(* Targeted edge cases across the pipeline: degenerate documents, queries
   that match structure only, oversized bounds, multi-token values and
   value truncation. *)

module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Node_kind = Extract_store.Node_kind
module Engine = Extract_search.Engine
module Query = Extract_search.Query
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

(* ------------------------------------------------------------------ *)
(* Degenerate documents *)

let test_single_element_document () =
  let db = Pipeline.of_xml_string "<only/>" in
  check int "tag query hits the root" 1 (List.length (Pipeline.run db "only"));
  check int "no match" 0 (List.length (Pipeline.run db "other"))

let test_text_only_root () =
  let db = Pipeline.of_xml_string "<r>just words here</r>" in
  let results = Pipeline.run ~bound:3 db "words" in
  check int "one result" 1 (List.length results);
  let r = List.hd results in
  check int "snippet is the root alone" 0
    (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet)

let test_root_is_attribute_shaped () =
  (* root with a single text child: classified Connection (root is never
     starred, but it has text...) — must not crash anywhere *)
  let db = Pipeline.of_xml_string "<r>v</r>" in
  let stats = Extract_store.Doc_stats.compute (Pipeline.kinds db) in
  check int "two nodes" 2 stats.Extract_store.Doc_stats.nodes

let test_deep_chain_document () =
  let src = "<a><b><c><d><e><f>deep</f></e></d></c></b></a>" in
  let db = Pipeline.of_xml_string src in
  let results = Pipeline.run ~bound:2 db "deep" in
  check int "one result" 1 (List.length results);
  (* bound 2 cannot reach depth 5 below the result root: the keyword is
     skipped but nothing breaks *)
  let r = List.hd results in
  check bool "bound respected" true
    (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet <= 2)

let test_identical_siblings () =
  let db = Pipeline.of_xml_string "<r><x><v>same</v></x><x><v>same</v></x><x><v>same</v></x></r>" in
  let results = Pipeline.run db "same" in
  check bool "results exist" true (results <> [])

(* ------------------------------------------------------------------ *)
(* Queries *)

let test_query_only_structure () =
  (* every keyword is a tag name; no text matches at all *)
  let db = Pipeline.of_xml_string "<shop><item><price>5</price></item><item><price>7</price></item></shop>" in
  let results = Pipeline.run db "item price" in
  check int "both items" 2 (List.length results)

let test_query_repeated_keyword () =
  let db = Pipeline.of_xml_string "<r><a>x</a></r>" in
  check int "x x x dedups" 1 (List.length (Pipeline.run db "x x x"))

let test_query_numeric_keywords () =
  let db = Pipeline.of_xml_string "<r><y>1999</y><y>2001</y></r>" in
  check int "numeric match" 1 (List.length (Pipeline.run ~semantics:Engine.Slca db "1999"))

let test_many_keywords_conjunctive () =
  let db = Pipeline.of_xml_string "<r><e><a>p</a><b>q</b><c>s</c><d>t</d></e></r>" in
  check int "all four under e" 1 (List.length (Pipeline.run ~semantics:Engine.Slca db "p q s t"));
  check int "one missing kills it" 0 (List.length (Pipeline.run db "p q s t zzz"))

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_bound_zero_everywhere () =
  let db = Pipeline.of_xml_string "<r><e><k>key1</k></e><e><k>key2</k></e></r>" in
  List.iter
    (fun (r : Pipeline.snippet_result) ->
      check int "zero edges" 0 (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet))
    (Pipeline.run ~bound:0 db "e key1")

let test_bound_exceeds_result () =
  let db = Pipeline.of_xml_string "<r><e><k>v</k></e><e><k>w</k></e></r>" in
  List.iter
    (fun (r : Pipeline.snippet_result) ->
      (* snippet can never have more edges than the result *)
      check bool "within result" true
        (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet
        <= Result_tree.element_size r.Pipeline.result - 1))
    (Pipeline.run ~bound:10_000 db "v")

(* ------------------------------------------------------------------ *)
(* Multi-token values *)

let test_multi_token_key_coverage () =
  (* the key "Brook Brothers" is two tokens; its IList entry is one item
     covered by one attribute node *)
  let db =
    Pipeline.build
      (Document.of_document (Extract_datagen.Paper_example.document ()))
  in
  let results = Pipeline.run ~bound:6 db "texas apparel retailer" in
  let r = List.hd results in
  let rendered = Snippet_tree.render r.Pipeline.selection.Selector.snippet in
  check bool "full key shown" true (contains_substring rendered "Brook Brothers")

let test_multi_token_query_same_node () =
  (* both keywords match the same node: SLCA is that node *)
  let db = Pipeline.of_xml_string "<r><n>brook brothers</n><n>other</n></r>" in
  let results = Pipeline.run ~semantics:Engine.Slca db "brook brothers" in
  check int "one result" 1 (List.length results)

(* ------------------------------------------------------------------ *)
(* Value truncation *)

let test_render_truncates_long_values () =
  let long = String.make 100 'x' in
  let db = Pipeline.of_xml_string (Printf.sprintf "<r><c>%s</c><c>y</c></r>" long) in
  let result = Result_tree.full (Pipeline.document db) 0 in
  let snippet = Snippet_tree.create result in
  ignore (Snippet_tree.add snippet 1);
  let full = Snippet_tree.render snippet in
  check bool "untruncated by default" true (contains_substring full long);
  let cut = Snippet_tree.render ~max_value:10 snippet in
  check bool "truncated" false (contains_substring cut (String.make 11 'x'));
  check bool "ellipsis" true (contains_substring cut "\xe2\x80\xa6")

let test_truncation_exact_boundary () =
  let db = Pipeline.of_xml_string "<r><c>12345</c><c>y</c></r>" in
  let result = Result_tree.full (Pipeline.document db) 0 in
  let snippet = Snippet_tree.create result in
  ignore (Snippet_tree.add snippet 1);
  let s = Snippet_tree.render ~max_value:5 snippet in
  check bool "exact length untouched" true (contains_substring s "\"12345\"")

(* ------------------------------------------------------------------ *)
(* Unicode round trips through the whole stack *)

let test_unicode_end_to_end () =
  let db = Pipeline.of_xml_string "<r><name>caf\xc3\xa9 m\xc3\xbcnchen</name><name>plain</name></r>" in
  let results = Pipeline.run db "caf\xc3\xa9" in
  check int "utf8 keyword matches" 1 (List.length results);
  let r = List.hd results in
  check bool "value survives rendering" true
    (contains_substring (Snippet_tree.render r.Pipeline.selection.Selector.snippet) "caf\xc3\xa9")

let test_escaped_content_end_to_end () =
  let db = Pipeline.of_xml_string "<r><v>a &amp; b</v><v>c</v></r>" in
  let results = Pipeline.run ~semantics:Engine.Slca db "b" in
  check int "decoded text indexed" 1 (List.length results)

let suites =
  [
    ( "edge.documents",
      [
        Alcotest.test_case "single element" `Quick test_single_element_document;
        Alcotest.test_case "text-only root" `Quick test_text_only_root;
        Alcotest.test_case "attribute-shaped root" `Quick test_root_is_attribute_shaped;
        Alcotest.test_case "deep chain" `Quick test_deep_chain_document;
        Alcotest.test_case "identical siblings" `Quick test_identical_siblings;
      ] );
    ( "edge.queries",
      [
        Alcotest.test_case "structure only" `Quick test_query_only_structure;
        Alcotest.test_case "repeated keyword" `Quick test_query_repeated_keyword;
        Alcotest.test_case "numeric" `Quick test_query_numeric_keywords;
        Alcotest.test_case "many keywords" `Quick test_many_keywords_conjunctive;
      ] );
    ( "edge.bounds",
      [
        Alcotest.test_case "zero" `Quick test_bound_zero_everywhere;
        Alcotest.test_case "oversized" `Quick test_bound_exceeds_result;
      ] );
    ( "edge.values",
      [
        Alcotest.test_case "multi-token key" `Quick test_multi_token_key_coverage;
        Alcotest.test_case "multi-token query" `Quick test_multi_token_query_same_node;
        Alcotest.test_case "truncation" `Quick test_render_truncates_long_values;
        Alcotest.test_case "truncation boundary" `Quick test_truncation_exact_boundary;
      ] );
    ( "edge.unicode",
      [
        Alcotest.test_case "utf8 end to end" `Quick test_unicode_end_to_end;
        Alcotest.test_case "escaped content" `Quick test_escaped_content_end_to_end;
      ] );
  ]
