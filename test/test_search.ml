(* Unit tests for extract.search: queries, the reference LCA semantics,
   SLCA, ELCA, XSeek result construction, result trees and the engine
   facade. *)

open Extract_search
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Node_kind = Extract_store.Node_kind

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let ints = Alcotest.(list int)

let load = Document.load_string

(* Hand-checkable document (pre-order ids in comments):

   0 dept
   ├─ 1 group
   │   ├─ 2 person (3 name "ada" 4)     — matches ada
   │   └─ 5 person (6 name "alan" 7, 8 skill "logic" 9)
   └─ 10 group
       ├─ 11 person (12 name "ada" 13, 14 skill "logic" 15)
       └─ 16 note ("logic" 17)
*)
let dept =
  "<dept>\
   <group><person><name>ada</name></person>\
   <person><name>alan</name><skill>logic</skill></person></group>\
   <group><person><name>ada</name><skill>logic</skill></person>\
   <note>logic</note></group>\
   </dept>"

let lists_for _doc idx keywords = List.map (Inverted_index.lookup idx) keywords

let setup src =
  let d = load src in
  let idx = Inverted_index.build d in
  d, idx

(* ------------------------------------------------------------------ *)
(* Query *)

let test_query_of_string () =
  let q = Query.of_string "Texas, Apparel RETAILER" in
  check bool "normalized" true (Query.keywords q = [ "texas"; "apparel"; "retailer" ]);
  check int "size" 3 (Query.size q)

let test_query_dedup () =
  let q = Query.of_string "a b a" in
  check bool "dedup keeps first" true (Query.keywords q = [ "a"; "b" ])

let test_query_empty () =
  let q = Query.of_string "  ,,, " in
  check bool "empty" true (Query.is_empty q)

let test_query_mem () =
  let q = Query.of_string "texas apparel" in
  check bool "mem normalized" true (Query.mem q "TeXaS");
  check bool "not mem" false (Query.mem q "retailer")

let test_query_of_keywords () =
  let q = Query.of_keywords [ "Brook Brothers"; "suit" ] in
  check bool "multi-token split" true (Query.keywords q = [ "brook"; "brothers"; "suit" ])

(* ------------------------------------------------------------------ *)
(* Reference LCA semantics *)

let test_subtree_match_counts () =
  let d, idx = setup dept in
  let counts = Lca.subtree_match_counts d (Inverted_index.lookup idx "logic") in
  (* matches: skill 8, skill 14, note 16 *)
  check int "at match" 1 counts.(8);
  check int "group1" 1 counts.(1);
  check int "group2" 2 counts.(10);
  check int "root" 3 counts.(0);
  check int "non-ancestor" 0 counts.(2)

let test_covering_nodes () =
  let d, idx = setup dept in
  let cover = Lca.covering_nodes d (lists_for d idx [ "ada"; "logic" ]) in
  (* person 11 has both; group 10 and dept 0 contain both; group 1 has ada
     (via person 2) and logic (via skill 8) *)
  check ints "covering" [ 0; 1; 10; 11 ] cover

let test_slca_reference () =
  let d, idx = setup dept in
  let slcas = Lca.slca_reference d (lists_for d idx [ "ada"; "logic" ]) in
  check ints "slcas" [ 1; 11 ] slcas

let test_covering_empty_list () =
  let d, idx = setup dept in
  check ints "missing keyword" [] (Lca.covering_nodes d (lists_for d idx [ "ada"; "zzz" ]));
  check ints "no lists" [] (Lca.covering_nodes d [])

(* ------------------------------------------------------------------ *)
(* SLCA merge algorithm *)

let test_slca_two_keywords () =
  let d, idx = setup dept in
  let slcas = Slca.compute d (lists_for d idx [ "ada"; "logic" ]) in
  check ints "matches reference" [ 1; 11 ] slcas

let test_slca_single_keyword () =
  let d, idx = setup dept in
  let slcas = Slca.compute d (lists_for d idx [ "logic" ]) in
  (* single keyword: the match nodes themselves *)
  check ints "match nodes" [ 8; 14; 16 ] slcas

let test_slca_tag_keyword () =
  let d, idx = setup dept in
  let slcas = Slca.compute d (lists_for d idx [ "person"; "logic" ]) in
  (* persons containing logic: 5 and 11; note 16's logic has no person *)
  check ints "persons with logic" [ 5; 11 ] slcas

let test_slca_empty_keyword () =
  let d, idx = setup dept in
  check ints "conjunctive" [] (Slca.compute d (lists_for d idx [ "ada"; "nosuch" ]))

let test_slca_three_keywords () =
  let d, idx = setup dept in
  let slcas = Slca.compute d (lists_for d idx [ "ada"; "alan"; "logic" ]) in
  check ints "only group1" [ 1 ] slcas

let test_slca_root_result () =
  let d, idx = setup "<r><a>x</a><b>y</b></r>" in
  let slcas = Slca.compute d (lists_for d idx [ "x"; "y" ]) in
  check ints "root is the slca" [ 0 ] slcas

let test_slca_matches_reference_on_examples () =
  List.iter
    (fun (src, keywords) ->
      let d, idx = setup src in
      let lists = lists_for d idx keywords in
      check ints
        (Printf.sprintf "src=%s" (String.concat "," keywords))
        (Lca.slca_reference d lists) (Slca.compute d lists))
    [
      dept, [ "ada"; "logic" ];
      dept, [ "group"; "ada" ];
      dept, [ "logic"; "note" ];
      dept, [ "person"; "name" ];
      "<r><a><b>k1</b><c>k2</c></a><a><b>k1 k2</b></a></r>", [ "k1"; "k2" ];
      "<r><x>w</x><y><z>w v</z></y></r>", [ "w"; "v" ];
    ]

let test_closest_in () =
  let arr = [| 2; 5; 9 |] in
  check bool "inside" true (Slca.closest_in arr ~lo:4 ~hi:6 = Some 5);
  check bool "boundary" true (Slca.closest_in arr ~lo:9 ~hi:20 = Some 9);
  check bool "miss" true (Slca.closest_in arr ~lo:6 ~hi:8 = None)

(* ------------------------------------------------------------------ *)
(* ELCA *)

let test_elca_includes_slca () =
  let d, idx = setup dept in
  let slcas = Slca.compute d (lists_for d idx [ "ada"; "logic" ]) in
  let elcas = Elca.compute d (lists_for d idx [ "ada"; "logic" ]) in
  List.iter
    (fun s -> check bool (Printf.sprintf "slca %d is elca" s) true (List.mem s elcas))
    slcas

let test_elca_extra_witness () =
  (* dept contains an independent logic witness (note 16) plus an
     independent ada witness (person 2, inside group 1 which is covering —
     but group 1 is covering so it blocks). Check against the published
     definition by hand:
     - group 1 covers (ada via person2, logic via skill8): ELCA iff
       exclusive matches exist: person 2 not covering -> ada counts;
       person 5 not covering? person 5 subtree has logic only -> not
       covering; so logic via skill8 counts: group1 is ELCA.
     - person 11 covers both directly: ELCA.
     - group 10: children person 11 (covering, blocked) and note 16
       (logic). After blocking person 11, group 10 has logic but no ada:
       not an ELCA.
     - dept 0: children group 1 (covering, blocked), group 10 (covering?
       group 10 contains ada (12) and logic -> covering, blocked). Nothing
       left: not an ELCA. *)
  let d, idx = setup dept in
  let elcas = Elca.compute d (lists_for d idx [ "ada"; "logic" ]) in
  check ints "elcas" [ 1; 11 ] elcas

let test_elca_ancestor_witness () =
  (* <r><m>k1 k2</m><n>k1</n><o>k2</o></r>: m is ELCA; r has independent
     k1 (n) and k2 (o) outside m, so r is also an ELCA. *)
  let d, idx = setup "<r><m>k1 k2</m><n>k1</n><o>k2</o></r>" in
  let elcas = Elca.compute d (lists_for d idx [ "k1"; "k2" ]) in
  check ints "m and r" [ 0; 1 ] elcas

let test_elca_empty () =
  let d, idx = setup dept in
  check ints "missing keyword" [] (Elca.compute d (lists_for d idx [ "ada"; "zzz" ]))

(* ------------------------------------------------------------------ *)
(* Result trees *)

let test_result_full () =
  let d, _ = setup dept in
  let r = Result_tree.full d 1 in
  check int "root" 1 (Result_tree.root r);
  check int "size" 9 (Result_tree.size r);
  check bool "member" true (Result_tree.mem r 8);
  check bool "outside" false (Result_tree.mem r 11)

(* A result is a whole subtree: closed upward to its root, holding every
   child and the parent of each member, and nothing outside the root. *)
let test_result_upward_closure () =
  let d, _ = setup dept in
  let r = Result_tree.full d 1 in
  (* skill 8 lies under person 5 under group 1 *)
  check bool "match in" true (Result_tree.mem r 8);
  check bool "ancestor person5" true (Result_tree.mem r 5);
  check bool "root in" true (Result_tree.mem r 1);
  check bool "sibling not in" false (Result_tree.mem r 10)

let test_result_outside_root () =
  let d, idx = setup dept in
  (* person 5 spans nodes 5 to 9 *)
  let r = Result_tree.full d 5 in
  check bool "parent" false (Result_tree.mem r 1);
  check bool "preceding sibling's text" false (Result_tree.mem r 4);
  check bool "next group" false (Result_tree.mem r 10);
  check bool "matches outside dropped" true
    (Result_tree.restrict_matches r (Inverted_index.lookup idx "logic") = [ 8 ])

let test_result_children_and_parent () =
  let d, _ = setup dept in
  let r = Result_tree.full d 0 in
  check bool "children of root" true (Document.children d 0 = [ 1; 10 ]);
  check bool "children of group1" true (Document.children d 1 = [ 2; 5 ]);
  check bool "children are members" true
    (List.for_all (Result_tree.mem r) (Document.children d 0 @ Document.children d 1));
  check bool "parent of a member is a member" true
    (match Document.parent d 8 with Some p -> Result_tree.mem r p | None -> false)

let test_result_edge_count () =
  let d, _ = setup dept in
  let r = Result_tree.full d 1 in
  (* elements under group 1: group, person, name, person, name, skill = 6 *)
  check int "elements" 6 (Result_tree.element_size r)

let test_result_restrict_matches () =
  let d, idx = setup dept in
  let r = Result_tree.full d 1 in
  check bool "restricted" true
    (Result_tree.restrict_matches r (Inverted_index.lookup idx "logic") = [ 8 ])

let test_result_text () =
  let d, _ = setup "<r><a>one</a><b>two</b></r>" in
  let r = Result_tree.full d 0 in
  check string "text" "one two" (Result_tree.text_of r)

let test_result_to_xml () =
  let d, _ = setup "<r><a>one</a><b>two</b></r>" in
  let r = Result_tree.full d 0 in
  let xml = Result_tree.to_xml r in
  check bool "roundtrip" true (Extract_xml.Types.text_content xml = "onetwo")

(* ------------------------------------------------------------------ *)
(* XSeek *)

let shop =
  "<shop>\
   <item><sku>A1</sku><kind>chair</kind></item>\
   <item><sku>A2</sku><kind>table</kind></item>\
   </shop>"
(* ids: 0 shop, 1 item, 2 sku, 3 "A1", 4 kind, 5 "chair",
        6 item, 7 sku, 8 "A2", 9 kind, 10 "table" *)

let test_xseek_return_node () =
  let d = load shop in
  let kinds = Node_kind.of_document d in
  (* slca for "chair" alone is the kind node 4; return node = item 1 *)
  check int "entity lift" 1 (Xseek.return_node kinds 4);
  check int "entity itself" 1 (Xseek.return_node kinds 1);
  (* shop is a connection; nothing above: falls back to the node itself *)
  check int "no entity above root" 0 (Xseek.return_node kinds 0)

let test_xseek_results () =
  let d = load shop in
  let kinds = Node_kind.of_document d in
  let idx = Inverted_index.build d in
  let results = Engine.run idx kinds (Query.of_string "chair") in
  check int "one result" 1 (List.length results);
  let r = List.hd results in
  check int "rooted at item" 1 (Result_tree.root r);
  check int "full subtree" 3 (Result_tree.element_size r)

let test_xseek_dedupe () =
  (* two matches inside the same item must give one result *)
  let d = load shop in
  let kinds = Node_kind.of_document d in
  let idx = Inverted_index.build d in
  let results = Engine.run idx kinds (Query.of_string "a1 chair") in
  check int "single deduped result" 1 (List.length results)

let test_xseek_nested_outermost () =
  (* nested entities: slcas inside both parent and child entity collapse to
     the outermost return node *)
  let src =
    "<r><part><pid>p</pid><sub><sid>s1</sid></sub><sub><sid>s2</sid></sub></part>\
     <part><pid>q</pid><sub><sid>s3</sid></sub><sub><sid>s4</sid></sub></part></r>"
  in
  let d = load src in
  let kinds = Node_kind.of_document d in
  let idx = Inverted_index.build d in
  let results = Engine.run idx kinds (Query.of_string "sub") in
  (* keyword "sub" matches 4 sub entities; return nodes are the subs
     themselves (they are entities), none nested in another sub *)
  check int "four subs" 4 (List.length results)

(* ------------------------------------------------------------------ *)
(* Engine facade *)

let test_engine_defaults () =
  let d = load shop in
  let kinds = Node_kind.of_document d in
  let idx = Inverted_index.build d in
  let results = Engine.run idx kinds (Query.of_string "chair") in
  check int "xseek default" 1 (List.length results);
  check int "entity root" 1 (Result_tree.root (List.hd results))

let test_engine_slca_vs_xseek_roots () =
  let d = load shop in
  let kinds = Node_kind.of_document d in
  let idx = Inverted_index.build d in
  let slca = Engine.run ~semantics:Engine.Slca idx kinds (Query.of_string "chair") in
  check int "slca root is the kind node" 4 (Result_tree.root (List.hd slca))

let test_engine_limit () =
  let d = load shop in
  let kinds = Node_kind.of_document d in
  let idx = Inverted_index.build d in
  let results = Engine.run ~limit:1 idx kinds (Query.of_string "item") in
  check int "limited" 1 (List.length results)

let test_engine_empty_query () =
  let d = load shop in
  let kinds = Node_kind.of_document d in
  let idx = Inverted_index.build d in
  check int "no keywords" 0 (List.length (Engine.run idx kinds (Query.of_string " ")))

let test_engine_semantics_strings () =
  check bool "roundtrip" true
    (List.for_all
       (fun s -> Engine.semantics_of_string (Engine.string_of_semantics s) = Some s)
       Engine.all_semantics);
  check bool "unknown" true (Engine.semantics_of_string "bogus" = None)

let suites =
  [
    ( "search.query",
      [
        Alcotest.test_case "of_string" `Quick test_query_of_string;
        Alcotest.test_case "dedup" `Quick test_query_dedup;
        Alcotest.test_case "empty" `Quick test_query_empty;
        Alcotest.test_case "mem" `Quick test_query_mem;
        Alcotest.test_case "of_keywords" `Quick test_query_of_keywords;
      ] );
    ( "search.lca",
      [
        Alcotest.test_case "match counts" `Quick test_subtree_match_counts;
        Alcotest.test_case "covering nodes" `Quick test_covering_nodes;
        Alcotest.test_case "slca reference" `Quick test_slca_reference;
        Alcotest.test_case "empty lists" `Quick test_covering_empty_list;
      ] );
    ( "search.slca",
      [
        Alcotest.test_case "two keywords" `Quick test_slca_two_keywords;
        Alcotest.test_case "single keyword" `Quick test_slca_single_keyword;
        Alcotest.test_case "tag keyword" `Quick test_slca_tag_keyword;
        Alcotest.test_case "missing keyword" `Quick test_slca_empty_keyword;
        Alcotest.test_case "three keywords" `Quick test_slca_three_keywords;
        Alcotest.test_case "root result" `Quick test_slca_root_result;
        Alcotest.test_case "vs reference" `Quick test_slca_matches_reference_on_examples;
        Alcotest.test_case "closest_in" `Quick test_closest_in;
      ] );
    ( "search.elca",
      [
        Alcotest.test_case "contains slcas" `Quick test_elca_includes_slca;
        Alcotest.test_case "blocking" `Quick test_elca_extra_witness;
        Alcotest.test_case "ancestor witness" `Quick test_elca_ancestor_witness;
        Alcotest.test_case "missing keyword" `Quick test_elca_empty;
      ] );
    ( "search.result_tree",
      [
        Alcotest.test_case "full" `Quick test_result_full;
        Alcotest.test_case "upward closure" `Quick test_result_upward_closure;
        Alcotest.test_case "outside root" `Quick test_result_outside_root;
        Alcotest.test_case "children/parent" `Quick test_result_children_and_parent;
        Alcotest.test_case "edge count" `Quick test_result_edge_count;
        Alcotest.test_case "restrict matches" `Quick test_result_restrict_matches;
        Alcotest.test_case "text" `Quick test_result_text;
        Alcotest.test_case "to_xml" `Quick test_result_to_xml;
      ] );
    ( "search.xseek",
      [
        Alcotest.test_case "return node" `Quick test_xseek_return_node;
        Alcotest.test_case "results" `Quick test_xseek_results;
        Alcotest.test_case "dedupe" `Quick test_xseek_dedupe;
        Alcotest.test_case "nested outermost" `Quick test_xseek_nested_outermost;
      ] );
    ( "search.engine",
      [
        Alcotest.test_case "defaults" `Quick test_engine_defaults;
        Alcotest.test_case "slca roots" `Quick test_engine_slca_vs_xseek_roots;
        Alcotest.test_case "limit" `Quick test_engine_limit;
        Alcotest.test_case "empty query" `Quick test_engine_empty_query;
        Alcotest.test_case "semantics strings" `Quick test_engine_semantics_strings;
      ] );
  ]
