(* Unit tests for the extract.store substrate: document arena, Dewey
   labels, tokenizer, inverted index, dataguide, schema inference, node
   classification and key mining. *)

open Extract_store

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let load = Document.load_string

(* A small, fully hand-checkable document:
   ids (pre-order):   0=catalog 1=vendor 2="acme" 3=book 4=title 5="ocaml"
                      6=tag 7="lang" 8=tag 9="pl" 10=book 11=title
                      12="databases" 13=tag 14="db" *)
let small =
  "<catalog><vendor>acme</vendor>\
   <book><title>ocaml</title><tag>lang</tag><tag>pl</tag></book>\
   <book><title>databases</title><tag>db</tag></book></catalog>"

let doc () = load small

(* ------------------------------------------------------------------ *)
(* Document arena *)

let test_doc_counts () =
  let d = doc () in
  check int "nodes" 15 (Document.node_count d);
  check int "elements" 9 (Document.element_count d)

let test_doc_root () =
  let d = doc () in
  check int "root id" 0 (Document.root d);
  check string "root tag" "catalog" (Document.tag_name d 0);
  check bool "root parent" true (Document.parent d 0 = None);
  check int "root depth" 0 (Document.depth d 0)

let test_doc_tags_and_text () =
  let d = doc () in
  check string "vendor" "vendor" (Document.tag_name d 1);
  check string "vendor text" "acme" (Document.text d 2);
  check bool "text node kind" false (Document.is_element d 2);
  check bool "element kind" true (Document.is_element d 1)

let test_doc_tag_errors () =
  let d = doc () in
  Alcotest.check_raises "tag of text"
    (Invalid_argument "Document.tag_id: node 2 is a text node") (fun () ->
      ignore (Document.tag_id d 2));
  Alcotest.check_raises "text of element"
    (Invalid_argument "Document.text: node 1 is an element") (fun () ->
      ignore (Document.text d 1))

let test_doc_structure () =
  let d = doc () in
  check bool "children of root" true (Document.children d 0 = [ 1; 3; 10 ]);
  check bool "children of book1" true (Document.children d 3 = [ 4; 6; 8 ]);
  check bool "leaf children" true (Document.children d 2 = [])

let test_doc_subtree () =
  let d = doc () in
  check int "subtree of book1" 7 (Document.subtree_size d 3);
  check int "subtree last" 9 (Document.subtree_last d 3);
  check int "whole document" 15 (Document.subtree_size d 0)

let test_doc_depth () =
  let d = doc () in
  check int "book depth" 1 (Document.depth d 3);
  check int "title depth" 2 (Document.depth d 4);
  check int "text depth" 3 (Document.depth d 5)

let test_doc_ancestry () =
  let d = doc () in
  check bool "root ancestor of all" true (Document.is_ancestor_or_self d ~anc:0 ~desc:14);
  check bool "book1 ancestor of its tag" true (Document.is_ancestor_or_self d ~anc:3 ~desc:9);
  check bool "book1 not ancestor of book2" false
    (Document.is_ancestor_or_self d ~anc:3 ~desc:10);
  check bool "descendant not ancestor" false (Document.is_ancestor_or_self d ~anc:9 ~desc:3);
  check bool "ancestor-or-self" true (Document.is_ancestor_or_self d ~anc:3 ~desc:3)

let test_doc_lca () =
  let d = doc () in
  check int "lca within book" 3 (Document.lca d 5 9);
  check int "lca across books" 0 (Document.lca d 5 12);
  check int "lca with self" 4 (Document.lca d 4 4);
  check int "lca ancestor/descendant" 3 (Document.lca d 3 9)

let test_doc_ancestors () =
  let d = doc () in
  let rec ancestors n =
    match Document.parent d n with Some p -> p :: ancestors p | None -> []
  in
  check bool "ancestors nearest first" true (ancestors 5 = [ 4; 3; 0 ]);
  check bool "root has none" true (ancestors 0 = [])

let test_doc_ancestor_at_depth () =
  let d = doc () in
  check int "depth 0" 0 (Document.ancestor_at_depth d 5 0);
  check int "depth 1" 3 (Document.ancestor_at_depth d 5 1);
  check int "depth 3 = self" 5 (Document.ancestor_at_depth d 5 3)

let test_doc_text_access () =
  let d = doc () in
  check string "immediate" "ocaml" (Document.immediate_text d 4);
  check bool "only-text children" true (Document.has_only_text_children d 4);
  check bool "book has elements" false (Document.has_only_text_children d 3);
  check bool "text node no children" false (Document.has_only_text_children d 5)

let test_doc_xml_attributes_become_children () =
  let d = load {|<r><item id="i1" color="red">x</item></r>|} in
  (* r, item, id, "i1", color, "red", "x" *)
  check int "nodes" 7 (Document.node_count d);
  check string "attr child tag" "id" (Document.tag_name d 2);
  check string "attr value" "i1" (Document.immediate_text d 2)

let test_doc_roundtrip_to_xml () =
  let d = doc () in
  let xml = Document.to_xml d 0 in
  let d2 = Document.of_xml xml in
  check int "same node count" (Document.node_count d) (Document.node_count d2);
  check bool "same structure" true (Document.to_xml d2 0 = xml)

let test_doc_fold_subtree () =
  let d = doc () in
  let rec count n =
    let acc = ref 1 in
    Document.iter_children d n (fun c -> acc := !acc + count c);
    !acc
  in
  check int "fold over subtree" 7 (count 3)

let test_doc_dtd_carried () =
  let d = load "<!DOCTYPE r [<!ELEMENT r (a*)>]><r><a/></r>" in
  check bool "dtd present" true (Document.dtd d <> None)

(* ------------------------------------------------------------------ *)
(* Dewey labels *)

let test_dewey_labels () =
  let d = doc () in
  let dw = Dewey.of_document d in
  check bool "root label" true (Dewey.label dw 0 = [||]);
  check bool "vendor" true (Dewey.label dw 1 = [| 0 |]);
  check bool "book2" true (Dewey.label dw 10 = [| 2 |]);
  check bool "book1/tag2" true (Dewey.label dw 8 = [| 1; 2 |])

let test_dewey_order_is_preorder () =
  let d = doc () in
  let dw = Dewey.of_document d in
  for a = 0 to Document.node_count d - 1 do
    for b = 0 to Document.node_count d - 1 do
      let by_label = Dewey.compare_nodes dw a b in
      if compare a b <> 0 && by_label <> 0 && compare a b * by_label < 0 then
        Alcotest.fail "label order disagrees with pre-order"
    done
  done

let test_dewey_lca_agrees () =
  let d = doc () in
  let dw = Dewey.of_document d in
  for a = 0 to Document.node_count d - 1 do
    for b = 0 to Document.node_count d - 1 do
      check int
        (Printf.sprintf "lca %d %d" a b)
        (Document.lca d a b) (Dewey.lca dw a b)
    done
  done

(* ------------------------------------------------------------------ *)
(* Tokenizer *)

let test_tokenizer_basic () =
  check bool "split" true (Tokenizer.tokens "Brook Brothers" = [ "brook"; "brothers" ]);
  check bool "punctuation" true (Tokenizer.tokens "a,b;c-d" = [ "a"; "b"; "c"; "d" ]);
  check bool "digits kept" true (Tokenizer.tokens "year 1999!" = [ "year"; "1999" ]);
  check bool "empty" true (Tokenizer.tokens "  ,. " = []);
  check bool "duplicates kept" true (Tokenizer.tokens "a a" = [ "a"; "a" ])

let test_tokenizer_case () =
  check bool "lowercased" true (Tokenizer.tokens "TeXaS" = [ "texas" ])

let test_tokenizer_normalize () =
  check string "single" "texas" (Tokenizer.normalize "Texas");
  check string "concat" "brookbrothers" (Tokenizer.normalize "Brook Brothers");
  check string "none" "" (Tokenizer.normalize "---")

let test_tokenizer_utf8 () =
  check bool "utf8 word survives" true (Tokenizer.tokens "caf\xc3\xa9" = [ "caf\xc3\xa9" ])

(* ------------------------------------------------------------------ *)
(* Inverted index *)

let test_index_value_match () =
  let d = doc () in
  let idx = Inverted_index.build d in
  check bool "ocaml -> title node" true (Array.to_list (Inverted_index.lookup idx "ocaml") = [ 4 ]);
  check bool "acme -> vendor" true (Array.to_list (Inverted_index.lookup idx "acme") = [ 1 ])

let test_index_tag_match () =
  let d = doc () in
  let idx = Inverted_index.build d in
  check bool "book tag" true (Array.to_list (Inverted_index.lookup idx "book") = [ 3; 10 ]);
  check bool "tag elements" true (Array.to_list (Inverted_index.lookup idx "tag") = [ 6; 8; 13 ])

let test_index_case_insensitive () =
  let d = doc () in
  let idx = Inverted_index.build d in
  check bool "OCaml = ocaml" true (Array.to_list (Inverted_index.lookup idx "OCaml") = [ 4 ])

let test_index_missing () =
  let d = doc () in
  let idx = Inverted_index.build d in
  check bool "absent keyword" true (Array.to_list (Inverted_index.lookup idx "zzz") = []);
  check bool "contains" false (Inverted_index.keyword_count idx "zzz" > 0);
  check bool "contains present" true (Inverted_index.keyword_count idx "db" > 0)

let test_index_postings_sorted_unique () =
  let d = load "<r><a>x x</a><a>x</a></r>" in
  let idx = Inverted_index.build d in
  let l = Inverted_index.lookup idx "x" in
  check int "dedup within node" 2 (Array.length l);
  check bool "sorted" true (l.(0) < l.(1))

let test_index_match_kind () =
  let d = load "<r><city>city</city><name>Houston</name></r>" in
  let idx = Inverted_index.build d in
  check bool "tag+value" true
    (Inverted_index.match_kind idx ~keyword:"city" ~node:1 = Some `Both);
  check bool "value only" true
    (Inverted_index.match_kind idx ~keyword:"houston" ~node:3 = Some `Value);
  check bool "tag only" true
    (Inverted_index.match_kind idx ~keyword:"name" ~node:3 = Some `Tag);
  check bool "non-match" true (Inverted_index.match_kind idx ~keyword:"houston" ~node:1 = None)

let test_index_sizes () =
  let d = doc () in
  let idx = Inverted_index.build d in
  check bool "token count positive" true (Inverted_index.token_count idx > 0);
  check bool "postings >= tokens" true
    (Inverted_index.postings_size idx >= Inverted_index.token_count idx);
  check int "vocabulary size" (Inverted_index.token_count idx)
    (List.length (Inverted_index.vocabulary idx))

(* ------------------------------------------------------------------ *)
(* Dataguide *)

let test_guide_paths () =
  let d = doc () in
  let g = Dataguide.build d in
  (* /catalog /catalog/vendor /catalog/book /catalog/book/title /catalog/book/tag *)
  check int "path count" 5 (Dataguide.path_count g);
  check string "root path" "/catalog" (Dataguide.path_string g 0)

let test_guide_path_of_node () =
  let d = doc () in
  let g = Dataguide.build d in
  check bool "both books same path" true
    (Dataguide.path_of_node g 3 = Dataguide.path_of_node g 10);
  check bool "title and tag differ" true
    (Dataguide.path_of_node g 4 <> Dataguide.path_of_node g 6)

let test_guide_instance_counts () =
  let d = doc () in
  let g = Dataguide.build d in
  let book = Option.get (Dataguide.find_path g [ "catalog"; "book" ]) in
  check int "two books" 2 (Dataguide.instance_count g book);
  let tag = Option.get (Dataguide.find_path g [ "catalog"; "book"; "tag" ]) in
  check int "three tags" 3 (Dataguide.instance_count g tag);
  check bool "instances in doc order" true (Dataguide.instances g tag = [ 6; 8; 13 ])

let test_guide_find_path_misses () =
  let d = doc () in
  let g = Dataguide.build d in
  check bool "wrong root" true (Dataguide.find_path g [ "nope" ] = None);
  check bool "wrong leaf" true (Dataguide.find_path g [ "catalog"; "nope" ] = None);
  check bool "empty" true (Dataguide.find_path g [] = None)

let test_guide_parent_and_depth () =
  let d = doc () in
  let g = Dataguide.build d in
  let title = Option.get (Dataguide.find_path g [ "catalog"; "book"; "title" ]) in
  let book = Option.get (Dataguide.find_path g [ "catalog"; "book" ]) in
  check bool "parent path" true (Dataguide.parent_path g title = Some book);
  check bool "root parent" true (Dataguide.parent_path g 0 = None);
  check int "depth" 2 (Dataguide.path_depth g title);
  check string "tag name" "title" (Dataguide.path_tag_name g title)

let test_guide_text_node_error () =
  let d = doc () in
  let g = Dataguide.build d in
  Alcotest.check_raises "text node"
    (Invalid_argument "Dataguide.path_of_node: node 2 is a text node") (fun () ->
      ignore (Dataguide.path_of_node g 2))

(* ------------------------------------------------------------------ *)
(* Schema inference *)

let test_schema_star_from_data () =
  let d = doc () in
  let g = Dataguide.build d in
  let s = Schema_infer.infer g in
  let book = Option.get (Dataguide.find_path g [ "catalog"; "book" ]) in
  let tag = Option.get (Dataguide.find_path g [ "catalog"; "book"; "tag" ]) in
  let title = Option.get (Dataguide.find_path g [ "catalog"; "book"; "title" ]) in
  check bool "book starred (2 under catalog)" true (Schema_infer.is_starred s book);
  check bool "tag starred (2 under book1)" true (Schema_infer.is_starred s tag);
  check bool "title not starred" false (Schema_infer.is_starred s title);
  check bool "root never starred" false (Schema_infer.is_starred s 0);
  check bool "data source" true (Schema_infer.source s book = `Data)

let test_schema_dtd_overrides_data () =
  (* Data shows a single <a>, but the DTD says a*. *)
  let d = load "<!DOCTYPE r [<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>]><r><a>x</a></r>" in
  let g = Dataguide.build d in
  let s = Schema_infer.infer g in
  let a = Option.get (Dataguide.find_path g [ "r"; "a" ]) in
  check bool "a starred by dtd" true (Schema_infer.is_starred s a);
  check bool "dtd source" true (Schema_infer.source s a = `Dtd)

let test_schema_dtd_negative_override () =
  (* Data would not star <b> (one instance); DTD declares it plainly. *)
  let d = load "<!DOCTYPE r [<!ELEMENT r (b)> <!ELEMENT b (#PCDATA)>]><r><b>x</b></r>" in
  let g = Dataguide.build d in
  let s = Schema_infer.infer g in
  let b = Option.get (Dataguide.find_path g [ "r"; "b" ]) in
  check bool "b not starred" false (Schema_infer.is_starred s b)

let test_schema_starred_paths_list () =
  let d = doc () in
  let g = Dataguide.build d in
  let s = Schema_infer.infer g in
  check int "two starred paths" 2 (List.length (Schema_infer.starred_paths s))

(* ------------------------------------------------------------------ *)
(* Node classification *)

let classify src =
  let d = load src in
  Node_kind.of_document d

let test_kinds_small () =
  let k = classify small in
  let g = Node_kind.dataguide k in
  let path names = Option.get (Dataguide.find_path g names) in
  check bool "book entity" true
    (Node_kind.kind_of_path k (path [ "catalog"; "book" ]) = Node_kind.Entity);
  check bool "tag entity" true
    (Node_kind.kind_of_path k (path [ "catalog"; "book"; "tag" ]) = Node_kind.Entity);
  check bool "title attribute" true
    (Node_kind.kind_of_path k (path [ "catalog"; "book"; "title" ]) = Node_kind.Attribute);
  check bool "vendor attribute" true
    (Node_kind.kind_of_path k (path [ "catalog"; "vendor" ]) = Node_kind.Attribute);
  check bool "root connection" true (Node_kind.kind_of_path k 0 = Node_kind.Connection)

let test_kinds_connection () =
  let k = classify "<r><wrap><x>1</x></wrap><wrap2><x2>2</x2></wrap2></r>" in
  let g = Node_kind.dataguide k in
  let wrap = Option.get (Dataguide.find_path g [ "r"; "wrap" ]) in
  check bool "wrap is connection" true (Node_kind.kind_of_path k wrap = Node_kind.Connection)

let test_kinds_node_level () =
  let k = classify small in
  check bool "is_entity node" true (Node_kind.is_entity k 3);
  check bool "is_attribute node" true (Node_kind.is_attribute k 4);
  check bool "not entity" false (Node_kind.is_entity k 4)

let test_kinds_nearest_entity () =
  let k = classify small in
  check bool "title -> book" true (Node_kind.nearest_entity_ancestor k 4 = Some 3);
  check bool "book -> none (catalog is connection)" true
    (Node_kind.nearest_entity_ancestor k 3 = None)

let test_kinds_attribute_value () =
  let k = classify "<r><a><v>  padded  </v></a><a><v>x</v></a></r>" in
  check string "trimmed" "padded" (Node_kind.attribute_value k 2)

let test_kinds_entity_of_attribute () =
  let k = classify small in
  let g = Node_kind.dataguide k in
  let title = Option.get (Dataguide.find_path g [ "catalog"; "book"; "title" ]) in
  let book = Option.get (Dataguide.find_path g [ "catalog"; "book" ]) in
  check bool "title's entity is book" true (Node_kind.entity_of_attribute k title = Some book);
  check bool "entity arg rejected" true (Node_kind.entity_of_attribute k book = None)

let test_kinds_lists () =
  let k = classify small in
  check int "entity paths" 2 (List.length (Node_kind.entity_paths k))

let test_kinds_empty_element () =
  (* childless elements: never attributes (no text value) *)
  let k = classify "<r><e/><e/><solo/></r>" in
  let g = Node_kind.dataguide k in
  let solo = Option.get (Dataguide.find_path g [ "r"; "solo" ]) in
  let e = Option.get (Dataguide.find_path g [ "r"; "e" ]) in
  check bool "repeated childless is entity" true (Node_kind.kind_of_path k e = Node_kind.Entity);
  check bool "solo childless is attribute or connection" true
    (Node_kind.kind_of_path k solo <> Node_kind.Entity)

(* ------------------------------------------------------------------ *)
(* Key mining *)

let keyed_doc =
  "<shop>\
   <item><sku>A1</sku><color>red</color></item>\
   <item><sku>A2</sku><color>red</color></item>\
   <item><sku>A3</sku><color>blue</color></item>\
   </shop>"

let test_keys_unique_attribute () =
  let k = classify keyed_doc in
  let keys = Key_miner.mine k in
  let g = Node_kind.dataguide k in
  let item = Option.get (Dataguide.find_path g [ "shop"; "item" ]) in
  let sku = Option.get (Dataguide.find_path g [ "shop"; "item"; "sku" ]) in
  check bool "sku is the key" true (Key_miner.key_path keys item = Some sku);
  check bool "strict" true (Key_miner.strict_key_path keys item = Some sku)

let test_keys_instance_value () =
  let k = classify keyed_doc in
  let keys = Key_miner.mine k in
  (* first item instance is node 1 *)
  match Key_miner.key_of_instance keys 1 with
  | Some (_, v) -> check string "key value" "A1" v
  | None -> Alcotest.fail "expected a key"

let test_keys_no_unique () =
  let k = classify "<r><p><c>x</c></p><p><c>x</c></p><p><c>x</c></p></r>" in
  let keys = Key_miner.mine k in
  let g = Node_kind.dataguide k in
  let p = Option.get (Dataguide.find_path g [ "r"; "p" ]) in
  check bool "no strict key" true (Key_miner.strict_key_path keys p = None)

let test_keys_prefer_conventional_names () =
  (* Both "code" and "name" are unique; "name" is in the preferred list. *)
  let src =
    "<r>\
     <e><code>c1</code><name>n1</name></e>\
     <e><code>c2</code><name>n2</name></e>\
     </r>"
  in
  let k = classify src in
  let keys = Key_miner.mine k in
  let g = Node_kind.dataguide k in
  let e = Option.get (Dataguide.find_path g [ "r"; "e" ]) in
  let name = Option.get (Dataguide.find_path g [ "r"; "e"; "name" ]) in
  check bool "name preferred" true (Key_miner.key_path keys e = Some name)

let test_keys_coverage_required () =
  (* "id" is unique but present on only 1 of 3 instances; "label" is unique
     and total: label must win. *)
  let src =
    "<r>\
     <e><id>only</id><label>l1</label></e>\
     <e><label>l2</label></e>\
     <e><label>l3</label></e>\
     </r>"
  in
  let k = classify src in
  let keys = Key_miner.mine k in
  let g = Node_kind.dataguide k in
  let e = Option.get (Dataguide.find_path g [ "r"; "e" ]) in
  let label = Option.get (Dataguide.find_path g [ "r"; "e"; "label" ]) in
  check bool "total unique attribute wins" true (Key_miner.key_path keys e = Some label)

let test_keys_candidates_ranked () =
  let k = classify keyed_doc in
  let keys = Key_miner.mine k in
  let g = Node_kind.dataguide k in
  let item = Option.get (Dataguide.find_path g [ "shop"; "item" ]) in
  match Key_miner.candidates keys item with
  | best :: rest ->
    check bool "best is strict" true best.Key_miner.strict;
    List.iter
      (fun c -> check bool "rest no better" true (c.Key_miner.uniqueness <= best.Key_miner.uniqueness))
      rest
  | [] -> Alcotest.fail "expected candidates"

let test_keys_duplicated_attr_instances () =
  (* an entity instance with TWO sku children is not covered by sku *)
  let src =
    "<shop><item><sku>A1</sku><sku>A1b</sku></item><item><sku>A2</sku></item></shop>"
  in
  let k = classify src in
  let keys = Key_miner.mine k in
  let g = Node_kind.dataguide k in
  let item = Option.get (Dataguide.find_path g [ "shop"; "item" ]) in
  check bool "sku not strict (double on one instance)" true
    (Key_miner.strict_key_path keys item = None)

(* ------------------------------------------------------------------ *)
(* Doc stats *)

let test_stats_small () =
  let k = classify small in
  let s = Doc_stats.compute k in
  check int "nodes" 15 s.Doc_stats.nodes;
  check int "elements" 9 s.Doc_stats.elements;
  check int "text" 6 s.Doc_stats.text_nodes;
  check int "tags" 5 s.Doc_stats.distinct_tags;
  check int "paths" 5 s.Doc_stats.distinct_paths;
  check int "depth" 3 s.Doc_stats.max_depth;
  check int "entity paths" 2 s.Doc_stats.entity_paths;
  check int "entity instances" 5 s.Doc_stats.entity_instances

let test_stats_row_matches_header () =
  let k = classify small in
  let s = Doc_stats.compute k in
  check int "row width" (List.length Doc_stats.header) (List.length (Doc_stats.to_row s))

let suites =
  [
    ( "store.document",
      [
        Alcotest.test_case "counts" `Quick test_doc_counts;
        Alcotest.test_case "root" `Quick test_doc_root;
        Alcotest.test_case "tags and text" `Quick test_doc_tags_and_text;
        Alcotest.test_case "kind errors" `Quick test_doc_tag_errors;
        Alcotest.test_case "structure" `Quick test_doc_structure;
        Alcotest.test_case "subtree" `Quick test_doc_subtree;
        Alcotest.test_case "depth" `Quick test_doc_depth;
        Alcotest.test_case "ancestry" `Quick test_doc_ancestry;
        Alcotest.test_case "lca" `Quick test_doc_lca;
        Alcotest.test_case "ancestors" `Quick test_doc_ancestors;
        Alcotest.test_case "ancestor at depth" `Quick test_doc_ancestor_at_depth;
        Alcotest.test_case "text access" `Quick test_doc_text_access;
        Alcotest.test_case "xml attributes" `Quick test_doc_xml_attributes_become_children;
        Alcotest.test_case "roundtrip" `Quick test_doc_roundtrip_to_xml;
        Alcotest.test_case "fold subtree" `Quick test_doc_fold_subtree;
        Alcotest.test_case "dtd carried" `Quick test_doc_dtd_carried;
      ] );
    ( "store.dewey",
      [
        Alcotest.test_case "labels" `Quick test_dewey_labels;
        Alcotest.test_case "order = preorder" `Quick test_dewey_order_is_preorder;
        Alcotest.test_case "lca agrees" `Quick test_dewey_lca_agrees;
      ] );
    ( "store.tokenizer",
      [
        Alcotest.test_case "basics" `Quick test_tokenizer_basic;
        Alcotest.test_case "case folding" `Quick test_tokenizer_case;
        Alcotest.test_case "normalize" `Quick test_tokenizer_normalize;
        Alcotest.test_case "utf8" `Quick test_tokenizer_utf8;
      ] );
    ( "store.index",
      [
        Alcotest.test_case "value match" `Quick test_index_value_match;
        Alcotest.test_case "tag match" `Quick test_index_tag_match;
        Alcotest.test_case "case insensitive" `Quick test_index_case_insensitive;
        Alcotest.test_case "missing keyword" `Quick test_index_missing;
        Alcotest.test_case "postings sorted/unique" `Quick test_index_postings_sorted_unique;
        Alcotest.test_case "match kind" `Quick test_index_match_kind;
        Alcotest.test_case "sizes" `Quick test_index_sizes;
      ] );
    ( "store.dataguide",
      [
        Alcotest.test_case "paths" `Quick test_guide_paths;
        Alcotest.test_case "path of node" `Quick test_guide_path_of_node;
        Alcotest.test_case "instance counts" `Quick test_guide_instance_counts;
        Alcotest.test_case "find misses" `Quick test_guide_find_path_misses;
        Alcotest.test_case "parent/depth" `Quick test_guide_parent_and_depth;
        Alcotest.test_case "text node error" `Quick test_guide_text_node_error;
      ] );
    ( "store.schema_infer",
      [
        Alcotest.test_case "star from data" `Quick test_schema_star_from_data;
        Alcotest.test_case "dtd overrides" `Quick test_schema_dtd_overrides_data;
        Alcotest.test_case "dtd negative" `Quick test_schema_dtd_negative_override;
        Alcotest.test_case "starred list" `Quick test_schema_starred_paths_list;
      ] );
    ( "store.node_kind",
      [
        Alcotest.test_case "small doc" `Quick test_kinds_small;
        Alcotest.test_case "connection" `Quick test_kinds_connection;
        Alcotest.test_case "node level" `Quick test_kinds_node_level;
        Alcotest.test_case "nearest entity" `Quick test_kinds_nearest_entity;
        Alcotest.test_case "attribute value" `Quick test_kinds_attribute_value;
        Alcotest.test_case "entity of attribute" `Quick test_kinds_entity_of_attribute;
        Alcotest.test_case "lists" `Quick test_kinds_lists;
        Alcotest.test_case "empty element" `Quick test_kinds_empty_element;
      ] );
    ( "store.key_miner",
      [
        Alcotest.test_case "unique attribute" `Quick test_keys_unique_attribute;
        Alcotest.test_case "instance value" `Quick test_keys_instance_value;
        Alcotest.test_case "no unique" `Quick test_keys_no_unique;
        Alcotest.test_case "preferred names" `Quick test_keys_prefer_conventional_names;
        Alcotest.test_case "coverage required" `Quick test_keys_coverage_required;
        Alcotest.test_case "candidates ranked" `Quick test_keys_candidates_ranked;
        Alcotest.test_case "duplicated instances" `Quick test_keys_duplicated_attr_instances;
      ] );
    ( "store.doc_stats",
      [
        Alcotest.test_case "small doc" `Quick test_stats_small;
        Alcotest.test_case "row width" `Quick test_stats_row_matches_header;
      ] );
  ]
