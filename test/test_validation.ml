(* Tests for the DTD validator (derivative-based content-model matching)
   and multi-document corpora. *)

module Dtd = Extract_xml.Dtd
module Types = Extract_xml.Types
module Document = Extract_store.Document
open Extract_snippet

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let model_of s = Option.get (Dtd.element_model (Dtd.parse (Printf.sprintf "<!ELEMENT e %s>" s)) "e")

(* ------------------------------------------------------------------ *)
(* Content-model matching (derivatives) *)

let test_match_sequence () =
  let m = model_of "(a, b, c)" in
  check bool "exact" true (Validator.matches_model m [ "a"; "b"; "c" ]);
  check bool "missing" false (Validator.matches_model m [ "a"; "b" ]);
  check bool "extra" false (Validator.matches_model m [ "a"; "b"; "c"; "c" ]);
  check bool "order" false (Validator.matches_model m [ "b"; "a"; "c" ])

let test_match_star_plus_opt () =
  let star = model_of "(a*)" in
  check bool "star empty" true (Validator.matches_model star []);
  check bool "star many" true (Validator.matches_model star [ "a"; "a"; "a" ]);
  check bool "star wrong" false (Validator.matches_model star [ "b" ]);
  let plus = model_of "(a+)" in
  check bool "plus empty" false (Validator.matches_model plus []);
  check bool "plus one" true (Validator.matches_model plus [ "a" ]);
  let opt = model_of "(a?)" in
  check bool "opt empty" true (Validator.matches_model opt []);
  check bool "opt one" true (Validator.matches_model opt [ "a" ]);
  check bool "opt two" false (Validator.matches_model opt [ "a"; "a" ])

let test_match_choice_nesting () =
  let m = model_of "((a | b)+, c?)" in
  check bool "mixed choice" true (Validator.matches_model m [ "a"; "b"; "a" ]);
  check bool "with c" true (Validator.matches_model m [ "b"; "c" ]);
  check bool "c alone" false (Validator.matches_model m [ "c" ]);
  check bool "c first" false (Validator.matches_model m [ "c"; "a" ])

let test_match_paper_schema () =
  let m = model_of "(name, product, store*)" in
  check bool "no store" true (Validator.matches_model m [ "name"; "product" ]);
  check bool "many stores" true
    (Validator.matches_model m [ "name"; "product"; "store"; "store"; "store" ]);
  check bool "missing product" false (Validator.matches_model m [ "name"; "store" ])

let test_match_ambiguous_model () =
  (* (a?, a) needs backtracking-free matching: "a" alone must match via the
     optional branch being empty *)
  let m = model_of "(a?, a)" in
  check bool "one a" true (Validator.matches_model m [ "a" ]);
  check bool "two a" true (Validator.matches_model m [ "a"; "a" ]);
  check bool "none" false (Validator.matches_model m []);
  check bool "three" false (Validator.matches_model m [ "a"; "a"; "a" ])

let test_match_empty_any_mixed () =
  check bool "EMPTY" true (Validator.matches_model (model_of "EMPTY") []);
  check bool "EMPTY nonempty" false (Validator.matches_model (model_of "EMPTY") [ "a" ]);
  check bool "ANY" true (Validator.matches_model (model_of "ANY") [ "x"; "y" ]);
  let mixed = model_of "(#PCDATA | em)*" in
  check bool "mixed ok" true (Validator.matches_model mixed [ "em"; "em" ]);
  check bool "mixed bad" false (Validator.matches_model mixed [ "strong" ])

(* ------------------------------------------------------------------ *)
(* Document validation *)

let root_of s = (Tree_fold.parse_document s).Types.root

let library_dtd =
  Dtd.parse
    "<!ELEMENT lib (book*)> <!ELEMENT book (title, author+)>\
     <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>"

let test_validate_ok () =
  let root = root_of "<lib><book><title>t</title><author>a</author></book></lib>" in
  check bool "valid" true (Validator.is_valid library_dtd root);
  check int "no violations" 0 (List.length (Validator.validate library_dtd root))

let test_validate_bad_children () =
  let root = root_of "<lib><book><author>a</author></book></lib>" in
  match Validator.validate library_dtd root with
  | [ { Validator.element = "book"; kind = Validator.Unexpected_children [ "author" ] } ] -> ()
  | other -> Alcotest.failf "unexpected violations (%d)" (List.length other)

let test_validate_text_in_element_content () =
  let root = root_of "<lib>stray text</lib>" in
  check bool "text flagged" true
    (List.exists
       (fun v -> v.Validator.kind = Validator.Unexpected_text)
       (Validator.validate library_dtd root))

let test_validate_pcdata_with_children () =
  let root = root_of "<lib><book><title><b>no</b></title><author>a</author></book></lib>" in
  check bool "pcdata violation" true
    (List.exists
       (fun v -> v.Validator.element = "title")
       (Validator.validate library_dtd root))

let test_validate_strict_undeclared () =
  let root = root_of "<lib><mystery/></lib>" in
  check bool "lenient ignores" true
    (List.for_all
       (fun v -> v.Validator.kind <> Validator.Undeclared_element)
       (Validator.validate library_dtd root));
  check bool "strict flags" true
    (List.exists
       (fun v -> v.Validator.kind = Validator.Undeclared_element)
       (Validator.validate ~strict:true library_dtd root))

let test_generators_validate_against_their_dtds () =
  List.iter
    (fun (name, doc) ->
      match doc.Types.dtd with
      | None -> Alcotest.failf "%s lost its dtd" name
      | Some subset ->
        let dtd = Dtd.parse subset in
        let violations = Validator.validate dtd doc.Types.root in
        if violations <> [] then
          Alcotest.failf "%s: %d violation(s), first: %s" name (List.length violations)
            (Format.asprintf "%a" Validator.pp_violation (List.hd violations)))
    [
      "paper", Extract_datagen.Paper_example.document ();
      "retail", Extract_datagen.Retail.generate Extract_datagen.Retail.default;
      "auction", Extract_datagen.Auction.generate Extract_datagen.Auction.default;
    ]

(* ------------------------------------------------------------------ *)
(* Corpus *)

let corpus () =
  let movie_db =
    Pipeline.build (Document.of_document (Extract_datagen.Movies.sized 15))
  in
  let retail_db =
    Pipeline.build
      (Document.of_document
         (Extract_datagen.Retail.generate
            { Extract_datagen.Retail.default with Extract_datagen.Retail.retailers = 2 }))
  in
  Corpus.of_list [ "movies", movie_db; "retail", retail_db ]

let test_corpus_names_and_find () =
  let c = corpus () in
  check bool "names sorted" true (Corpus.names c = [ "movies"; "retail" ]);
  check int "size" 2 (List.length (Corpus.names c));
  check bool "find hit" true (Corpus.find c "movies" <> None);
  check bool "find miss" true (Corpus.find c "nope" = None)

let test_corpus_add_replaces () =
  let c = corpus () in
  let db = Option.get (Corpus.find c "movies") in
  let c2 = Corpus.add c ~name:"movies" db in
  check int "still two" 2 (List.length (Corpus.names c2))

let test_corpus_run_merges () =
  let c = corpus () in
  (* "drama" only exists in movies; "store" only in retail *)
  let drama = Corpus.run ~bound:4 c "drama" in
  check bool "drama hits movies only" true
    (drama <> [] && List.for_all (fun h -> h.Corpus.source = "movies") drama);
  let store = Corpus.run ~bound:4 c "store" in
  check bool "store hits retail only" true
    (store <> [] && List.for_all (fun h -> h.Corpus.source = "retail") store)

let test_corpus_scores_sorted () =
  let c = corpus () in
  let hits = Corpus.run ~bound:4 c "drama movie" in
  let scores = List.map (fun h -> h.Corpus.score) hits in
  check bool "descending" true (List.sort (fun a b -> compare b a) scores = scores)

let test_corpus_limit () =
  let c = corpus () in
  check bool "limit respected" true (List.length (Corpus.run ~limit:3 c "movie") <= 3)

let test_corpus_empty () =
  check int "empty corpus, no hits" 0 (List.length (Corpus.run Corpus.empty "anything"))

let suites =
  [
    ( "xml.validator.models",
      [
        Alcotest.test_case "sequence" `Quick test_match_sequence;
        Alcotest.test_case "star/plus/opt" `Quick test_match_star_plus_opt;
        Alcotest.test_case "choice nesting" `Quick test_match_choice_nesting;
        Alcotest.test_case "paper schema" `Quick test_match_paper_schema;
        Alcotest.test_case "ambiguous model" `Quick test_match_ambiguous_model;
        Alcotest.test_case "empty/any/mixed" `Quick test_match_empty_any_mixed;
      ] );
    ( "xml.validator.documents",
      [
        Alcotest.test_case "valid" `Quick test_validate_ok;
        Alcotest.test_case "bad children" `Quick test_validate_bad_children;
        Alcotest.test_case "stray text" `Quick test_validate_text_in_element_content;
        Alcotest.test_case "pcdata children" `Quick test_validate_pcdata_with_children;
        Alcotest.test_case "strict mode" `Quick test_validate_strict_undeclared;
        Alcotest.test_case "generators validate" `Quick test_generators_validate_against_their_dtds;
      ] );
    ( "snippet.corpus",
      [
        Alcotest.test_case "names/find" `Quick test_corpus_names_and_find;
        Alcotest.test_case "add replaces" `Quick test_corpus_add_replaces;
        Alcotest.test_case "merging" `Quick test_corpus_run_merges;
        Alcotest.test_case "scores sorted" `Quick test_corpus_scores_sorted;
        Alcotest.test_case "limit" `Quick test_corpus_limit;
        Alcotest.test_case "empty" `Quick test_corpus_empty;
      ] );
  ]
