(* Unit tests for the extract.xml substrate: lexer, parser, printer,
   content models and DTD. Trees come from the tests' fold of the
   parser's events (Tree_fold); the limits also run through the store's
   builder, Document.load_string. *)

open Extract_xml
module Document = Extract_store.Document

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let parse ?limits src = Tree_fold.parse_root ?limits src

let child_elements (e : Types.element) =
  List.filter_map (function Types.Element c -> Some c | Types.Text _ -> None) e.children

let immediate_text (e : Types.element) =
  String.concat ""
    (List.filter_map (function Types.Text s -> Some s | Types.Element _ -> None) e.children)

let root_of s =
  match parse s with
  | Types.Element e -> e
  | Types.Text _ -> Alcotest.fail "expected an element"

(* ------------------------------------------------------------------ *)
(* Parser: well-formed input *)

let test_parse_minimal () =
  let e = root_of "<a/>" in
  check string "tag" "a" e.Types.tag;
  check int "no children" 0 (List.length e.Types.children)

let test_parse_nested () =
  let e = root_of "<a><b><c/></b><d/></a>" in
  check int "two children" 2 (List.length (child_elements e));
  let b = Option.get (Types.find_child e "b") in
  check int "b has c" 1 (List.length (child_elements b))

let test_parse_text () =
  let e = root_of "<a>hello world</a>" in
  check string "text" "hello world" (immediate_text e)

let test_parse_mixed_whitespace_dropped () =
  let e = root_of "<a>\n  <b/>\n  <c/>\n</a>" in
  check int "whitespace-only text dropped" 2 (List.length e.Types.children)

let test_parse_attributes () =
  let e = root_of {|<a x="1" y='two'/>|} in
  check bool "x" true (Types.attr e "x" = Some "1");
  check bool "y" true (Types.attr e "y" = Some "two");
  check bool "absent" true (Types.attr e "z" = None)

let test_parse_entities () =
  let e = root_of "<a>&lt;tag&gt; &amp; &quot;quoted&apos;</a>" in
  check string "decoded" "<tag> & \"quoted'" (immediate_text e)

let test_parse_char_refs () =
  let e = root_of "<a>&#65;&#x42;&#x43a;</a>" in
  (* A, B, Cyrillic ka (UTF-8: D0 BA) *)
  check string "char refs" "AB\xd0\xba" (immediate_text e)

let test_parse_cdata () =
  let e = root_of "<a><![CDATA[<not><parsed> & raw]]></a>" in
  check string "cdata" "<not><parsed> & raw" (immediate_text e)

let test_parse_adjacent_text_merged () =
  let e = root_of "<a>one <![CDATA[two]]> three</a>" in
  check int "single text node" 1 (List.length e.Types.children);
  check string "merged" "one two three" (immediate_text e)

let test_parse_comments_dropped () =
  let e = root_of "<a><!-- a comment --><b/><!-- another --></a>" in
  check int "only b" 1 (List.length e.Types.children)

let test_parse_pi_dropped () =
  let e = root_of "<a><?php echo ?><b/></a>" in
  check int "only b" 1 (List.length e.Types.children)

let test_parse_prolog_doctype () =
  let doc =
    Tree_fold.parse_document
      "<?xml version=\"1.0\"?>\n<!DOCTYPE r [<!ELEMENT r (a*)>]>\n<r><a/></r>"
  in
  check string "root" "r" doc.Types.root.Types.tag;
  check bool "dtd captured" true (doc.Types.dtd <> None)

let test_parse_doctype_system () =
  let doc = Tree_fold.parse_document {|<!DOCTYPE r SYSTEM "r.dtd"><r/>|} in
  check bool "no internal subset" true (doc.Types.dtd = None);
  check string "root" "r" doc.Types.root.Types.tag

let test_parse_bom () =
  let doc = Tree_fold.parse_document "\xEF\xBB\xBF<r/>" in
  check string "root after BOM" "r" doc.Types.root.Types.tag

let test_parse_utf8_content () =
  let e = root_of "<a>caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac</a>" in
  check string "utf8 preserved" "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac" (immediate_text e)

let test_parse_deep_nesting () =
  let depth = 500 in
  let buf = Buffer.create 4096 in
  for i = 0 to depth do
    Buffer.add_string buf (Printf.sprintf "<n%d>" i)
  done;
  for i = depth downto 0 do
    Buffer.add_string buf (Printf.sprintf "</n%d>" i)
  done;
  let e = root_of (Buffer.contents buf) in
  check string "deep root" "n0" e.Types.tag

(* ------------------------------------------------------------------ *)
(* Parser: resource limits *)

let nested_doc depth =
  let buf = Buffer.create (8 * depth) in
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  Buffer.contents buf

(* Both ways to parse: the tests' tree fold and the store's builder. *)
let parsers =
  [
    "tree fold", (fun ?limits src -> ignore (parse ?limits src));
    ( "load_string",
      fun ?limits src ->
        ignore
          (match limits with
          | None -> Document.load_string src
          | Some limits -> Document.Internal.load_string_with ~limits src) );
  ]

let names_limit limit msg = String.split_on_char ' ' msg |> List.exists (fun w -> w = limit)

let expect_ok what ?limits input =
  List.iter
    (fun (via, run) ->
      match run ?limits input with
      | () -> ()
      | exception Error.Parse_error (_, msg) -> Alcotest.failf "%s via %s rejected: %s" what via msg)
    parsers

let expect_limit_error what ~limit ?limits input =
  List.iter
    (fun (via, run) ->
      match run ?limits input with
      | () -> Alcotest.failf "%s via %s: expected Parse_error" what via
      | exception Error.Parse_error (_, msg) ->
        check bool (Printf.sprintf "%s via %s: message names %s (%S)" what via limit msg) true
          (names_limit limit msg))
    parsers

let test_limits_max_depth () =
  let limits = { Parser.default_limits with Parser.max_depth = 10 } in
  expect_ok "depth 10" ~limits (nested_doc 10);
  expect_limit_error "depth 11" ~limit:"max_depth" ~limits (nested_doc 11);
  (* the default limit, 512 *)
  expect_ok "depth 512" (nested_doc 512);
  expect_limit_error "depth 513" ~limit:"max_depth" (nested_doc 513)

let test_limits_adversarial_depth_no_overflow () =
  (* a 100k-deep document must yield a clean positioned error, not a
     stack overflow: the default limit cuts it off at depth 512 *)
  expect_limit_error "depth 100000" ~limit:"max_depth" (nested_doc 100_000)

let test_limits_max_nodes () =
  let limits = { Parser.default_limits with Parser.max_nodes = 3 } in
  (* root + two children = 3 nodes: fine; text nodes count too *)
  expect_ok "3 nodes" ~limits "<a><b/><c/></a>";
  expect_ok "3 nodes with text" ~limits "<a><b/>t</a>";
  expect_limit_error "4 nodes" ~limit:"max_nodes" ~limits "<a><b/><c/><d/></a>";
  expect_limit_error "4 nodes with text" ~limit:"max_nodes" ~limits "<a><b/>t<c/></a>"

let test_limits_max_token_len () =
  let limits = { Parser.default_limits with Parser.max_token_len = 8 } in
  expect_ok "8-byte text" ~limits "<a>12345678</a>";
  expect_ok "8 bytes merged" ~limits "<a>12&amp;4<![CDATA[56]]>78</a>";
  expect_limit_error "long text" ~limit:"max_token_len" ~limits "<a>123456789</a>";
  expect_limit_error "long merged text" ~limit:"max_token_len" ~limits "<a>1234<!--c-->56789</a>";
  expect_limit_error "long cdata" ~limit:"max_token_len" ~limits "<a>12<![CDATA[3456789]]></a>";
  expect_limit_error "long tag name" ~limit:"max_token_len" ~limits "<abcdefghij/>";
  expect_limit_error "long attribute value" ~limit:"max_token_len" ~limits "<a b=\"123456789\"/>";
  (* the default limit, 1 MB *)
  let text n = "<a>" ^ String.make n 'x' ^ "</a>" in
  expect_ok "1 MB text" (text 1_000_000);
  expect_limit_error "1 MB + 1 text" ~limit:"max_token_len" (text 1_000_001)

let test_limits_unlimited () =
  let limits = { Parser.max_depth = max_int; max_nodes = max_int; max_token_len = max_int } in
  expect_ok "depth 600, unlimited" ~limits (nested_doc 600)

(* ------------------------------------------------------------------ *)
(* Parser: malformed input *)

let fails input =
  match parse input with
  | exception Error.Parse_error _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "expected a parse error on %S" input)

let test_parse_errors () =
  fails "";
  fails "<a>";
  fails "<a></b>";
  fails "<a><b></a></b>";
  fails "<a x=1/>";
  fails "<a x=\"1\" x=\"2\"/>";
  fails "<a>&unknown;</a>";
  fails "<a>&#xZZ;</a>";
  fails "<a/><b/>";
  fails "text only";
  fails "<a attr=\"<\"/>";
  fails "<1tag/>"

(* Positions are derived from the byte offset when an error is raised:
   lines and columns count from 1, and the column restarts after each
   newline. The DOCTYPE subset is parsed on its own, so its positions
   count from the subset's first byte. *)
let test_parse_error_position () =
  let expect what run src ~line ~column ~offset =
    match run src with
    | () -> Alcotest.failf "%s: expected Parse_error" what
    | exception Error.Parse_error (pos, _) ->
      check (Alcotest.triple int int int) what (line, column, offset)
        (pos.Error.line, pos.Error.column, pos.Error.offset)
  in
  let tree src = ignore (parse src) and store src = ignore (Document.load_string src) in
  List.iter
    (fun (via, run) ->
      expect (via ^ ": line 1") run "<a><b></c></a>" ~line:1 ~column:11 ~offset:10;
      expect (via ^ ": after a newline") run "<a>\n<b></c></a>" ~line:2 ~column:8 ~offset:11;
      expect (via ^ ": end of input") run "<a>\n  <b>text" ~line:2 ~column:10 ~offset:13)
    [ "tree fold", tree; "load_string", store ];
  expect "load_string: DOCTYPE subset" store
    "<!DOCTYPE r [\n<!ELEMENT r (a*)>\n<!ELEMENT a (#PCDATA>\n]>\n<r/>" ~line:3 ~column:21
    ~offset:39

(* ------------------------------------------------------------------ *)
(* Printer: escaping and round trips *)

let test_escape_text () =
  check string "text escape" "<t>a &amp; b &lt;c&gt;</t>"
    (Printer.to_string ~indent:None (Types.element "t" [ Types.Text "a & b <c>" ]))

let test_escape_attr () =
  check string "attr escape" {|<t a="&quot;x&apos;"/>|}
    (Printer.to_string ~indent:None (Types.element ~attrs:[ "a", "\"x'" ] "t" []))

let test_print_parse_roundtrip () =
  let original = root_of {|<shop loc="x&amp;y"><item>caf&#233;</item><empty/></shop>|} in
  let printed = Printer.to_string ~indent:None (Types.Element original) in
  let reparsed = root_of printed in
  check bool "roundtrip equal" true (original = reparsed)

let test_pretty_print_reparses () =
  let original = root_of "<a><b>text</b><c><d>deep</d></c></a>" in
  let printed = Printer.to_string ~indent:(Some 2) (Types.Element original) in
  let reparsed = root_of printed in
  check bool "pretty roundtrip" true (original = reparsed)

let test_document_to_string_has_decl () =
  let doc = Tree_fold.parse_document "<r><a/></r>" in
  let s = Printer.document_to_string doc in
  check bool "xml decl" true (String.length s > 5 && String.sub s 0 5 = "<?xml")

(* ------------------------------------------------------------------ *)
(* Types helpers *)

let test_types_text_content () =
  let e = parse "<a>x<b>y<c>z</c></b>w</a>" in
  check string "all text" "xyzw" (Types.text_content e)

let test_types_counts () =
  let e = parse "<a><b>t</b><c/></a>" in
  check int "nodes" 4 (Types.count_nodes e);
  check int "elements" 3 (Types.count_elements e)

let test_types_find_children () =
  let e = root_of "<a><b i=\"1\"/><c/><b i=\"2\"/></a>" in
  check int "two b" 2 (List.length (Types.find_children e "b"));
  check bool "first b" true ((Option.get (Types.find_child e "b")) |> fun b -> Types.attr b "i" = Some "1")

let test_types_leaf () =
  match Types.leaf "name" "value" with
  | Types.Element e ->
    check string "tag" "name" e.Types.tag;
    check string "value" "value" (immediate_text e)
  | Types.Text _ -> Alcotest.fail "leaf should be an element"

(* ------------------------------------------------------------------ *)
(* Content models *)

let model_of s =
  let dtd = Dtd.parse (Printf.sprintf "<!ELEMENT e %s>" s) in
  Option.get (Dtd.element_model dtd "e")

let test_cm_star () =
  let m = model_of "(a*)" in
  check bool "a repeats" true (Content_model.may_repeat m "a");
  check bool "b absent" false (Content_model.may_repeat m "b")

let test_cm_plus_opt () =
  let m = model_of "(a+, b?)" in
  check bool "a repeats" true (Content_model.may_repeat m "a");
  check bool "b does not" false (Content_model.may_repeat m "b")

let test_cm_seq_twice () =
  let m = model_of "(a, b, a)" in
  check bool "a occurs twice in sequence" true (Content_model.may_repeat m "a");
  check bool "b once" false (Content_model.may_repeat m "b")

let test_cm_choice () =
  let m = model_of "(a | b)" in
  check bool "a choice once" false (Content_model.may_repeat m "a");
  let m2 = model_of "(a | b)*" in
  check bool "starred choice repeats" true (Content_model.may_repeat m2 "a")

let test_cm_nested_star () =
  let m = model_of "((a, b)*, c)" in
  check bool "a under inner star" true (Content_model.may_repeat m "a");
  check bool "c once" false (Content_model.may_repeat m "c")

let test_cm_mixed () =
  let m = model_of "(#PCDATA | em | strong)*" in
  check bool "mixed repeats" true (Content_model.may_repeat m "em");
  check bool "undeclared child" false (Content_model.may_repeat m "x")

let test_cm_pcdata () =
  let m = model_of "(#PCDATA)" in
  check bool "pcdata repeats no child" false (Content_model.may_repeat m "a");
  check string "pcdata prints back" "(#PCDATA)" (Content_model.to_string m)

let test_cm_empty_any () =
  let e = model_of "EMPTY" in
  check bool "empty no repeat" false (Content_model.may_repeat e "a");
  let a = model_of "ANY" in
  check bool "any repeats anything" true (Content_model.may_repeat a "whatever")

let test_cm_to_string_roundtrip () =
  List.iter
    (fun s ->
      let m = model_of s in
      let printed = Content_model.to_string m in
      let m2 = model_of printed in
      check bool
        (Printf.sprintf "reparse %s" s)
        true
        (Content_model.to_string m2 = printed))
    [ "(a*)"; "(a, b?)"; "(a | b | c)+"; "(#PCDATA)"; "EMPTY"; "ANY"; "((a, b)*, c)" ]

(* ------------------------------------------------------------------ *)
(* DTD *)

let sample_dtd =
  {|
  <!-- retailer schema -->
  <!ELEMENT retailers (retailer*)>
  <!ELEMENT retailer (name, product, store*)>
  <!ELEMENT store (name, state, city, merchandises)>
  <!ELEMENT merchandises (clothes*)>
  <!ELEMENT clothes (category?, situation?, fitting?)>
  <!ELEMENT name (#PCDATA)>
  <!ATTLIST store sid ID #REQUIRED open (yes|no) "yes">
  <!ENTITY copy "(c)">
|}

let test_dtd_element_names () =
  let dtd = Dtd.parse sample_dtd in
  check bool "declaration order" true
    (Dtd.element_names dtd
    = [ "retailers"; "retailer"; "store"; "merchandises"; "clothes"; "name" ])

let test_dtd_star_child () =
  let dtd = Dtd.parse sample_dtd in
  check bool "retailer starred" true
    (Dtd.is_star_child dtd ~parent:"retailers" ~child:"retailer" = Some true);
  check bool "name not starred" true
    (Dtd.is_star_child dtd ~parent:"retailer" ~child:"name" = Some false);
  check bool "unknown parent" true
    (Dtd.is_star_child dtd ~parent:"nothere" ~child:"x" = None)

(* ATTLIST declarations are syntax-checked and skipped: nothing reads
   them, and the element models around them stay intact. *)
let test_dtd_attlist () =
  let dtd = Dtd.parse sample_dtd in
  check bool "store's model intact" true
    (Option.map Content_model.to_string (Dtd.element_model dtd "store")
    = Some "(name, state, city, merchandises)");
  check bool "model after the ATTLIST" true (Dtd.element_model dtd "name" = Some Content_model.Pcdata);
  List.iter
    (fun bad ->
      match Dtd.parse bad with
      | exception Error.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected a parse error on %S" bad)
    [ "<!ATTLIST store sid ID>"; "<!ATTLIST store sid ID \"unterminated>"; "<!ATTLIST store" ]

let test_dtd_empty () =
  let dtd = Dtd.parse " <!-- nothing declared --> " in
  check bool "empty subset declares nothing" true (Dtd.element_model dtd "x" = None);
  check bool "no element names" true (Dtd.element_names dtd = [])

let test_dtd_through_document () =
  let doc =
    Tree_fold.parse_document "<!DOCTYPE r [<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>]><r><a>1</a></r>"
  in
  let dtd = Dtd.parse (Option.value ~default:"" doc.Types.dtd) in
  check bool "a starred under r" true (Dtd.is_star_child dtd ~parent:"r" ~child:"a" = Some true)

let test_dtd_malformed () =
  (match Dtd.parse "<!ELEMENT broken" with
  | exception Error.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error");
  match Dtd.parse "%param;" with
  | exception Error.Parse_error _ -> ()
  | _ -> Alcotest.fail "parameter entities should be rejected"

let suites =
  [
    ( "xml.parser",
      [
        Alcotest.test_case "minimal" `Quick test_parse_minimal;
        Alcotest.test_case "nested" `Quick test_parse_nested;
        Alcotest.test_case "text" `Quick test_parse_text;
        Alcotest.test_case "whitespace dropped" `Quick test_parse_mixed_whitespace_dropped;
        Alcotest.test_case "attributes" `Quick test_parse_attributes;
        Alcotest.test_case "entities" `Quick test_parse_entities;
        Alcotest.test_case "char refs" `Quick test_parse_char_refs;
        Alcotest.test_case "cdata" `Quick test_parse_cdata;
        Alcotest.test_case "adjacent text merged" `Quick test_parse_adjacent_text_merged;
        Alcotest.test_case "comments dropped" `Quick test_parse_comments_dropped;
        Alcotest.test_case "pi dropped" `Quick test_parse_pi_dropped;
        Alcotest.test_case "prolog + doctype" `Quick test_parse_prolog_doctype;
        Alcotest.test_case "doctype SYSTEM" `Quick test_parse_doctype_system;
        Alcotest.test_case "BOM" `Quick test_parse_bom;
        Alcotest.test_case "utf8 content" `Quick test_parse_utf8_content;
        Alcotest.test_case "deep nesting" `Quick test_parse_deep_nesting;
        Alcotest.test_case "malformed inputs" `Quick test_parse_errors;
        Alcotest.test_case "error position" `Quick test_parse_error_position;
      ] );
    ( "xml.limits",
      [
        Alcotest.test_case "max_depth" `Quick test_limits_max_depth;
        Alcotest.test_case "adversarial depth" `Quick test_limits_adversarial_depth_no_overflow;
        Alcotest.test_case "max_nodes" `Quick test_limits_max_nodes;
        Alcotest.test_case "max_token_len" `Quick test_limits_max_token_len;
        Alcotest.test_case "unlimited" `Quick test_limits_unlimited;
      ] );
    ( "xml.printer",
      [
        Alcotest.test_case "escape text" `Quick test_escape_text;
        Alcotest.test_case "escape attr" `Quick test_escape_attr;
        Alcotest.test_case "roundtrip compact" `Quick test_print_parse_roundtrip;
        Alcotest.test_case "roundtrip pretty" `Quick test_pretty_print_reparses;
        Alcotest.test_case "document serialization" `Quick test_document_to_string_has_decl;
      ] );
    ( "xml.types",
      [
        Alcotest.test_case "text content" `Quick test_types_text_content;
        Alcotest.test_case "counts" `Quick test_types_counts;
        Alcotest.test_case "find children" `Quick test_types_find_children;
        Alcotest.test_case "leaf" `Quick test_types_leaf;
      ] );
    ( "xml.content_model",
      [
        Alcotest.test_case "star" `Quick test_cm_star;
        Alcotest.test_case "plus/opt" `Quick test_cm_plus_opt;
        Alcotest.test_case "sequence repeat" `Quick test_cm_seq_twice;
        Alcotest.test_case "choice" `Quick test_cm_choice;
        Alcotest.test_case "nested star" `Quick test_cm_nested_star;
        Alcotest.test_case "mixed" `Quick test_cm_mixed;
        Alcotest.test_case "pcdata" `Quick test_cm_pcdata;
        Alcotest.test_case "empty/any" `Quick test_cm_empty_any;
        Alcotest.test_case "print/reparse" `Quick test_cm_to_string_roundtrip;
      ] );
    ( "xml.dtd",
      [
        Alcotest.test_case "element names" `Quick test_dtd_element_names;
        Alcotest.test_case "star child" `Quick test_dtd_star_child;
        Alcotest.test_case "attlist" `Quick test_dtd_attlist;
        Alcotest.test_case "empty" `Quick test_dtd_empty;
        Alcotest.test_case "via document" `Quick test_dtd_through_document;
        Alcotest.test_case "malformed" `Quick test_dtd_malformed;
      ] );
  ]
