(* Tests for the invariant verifier (lib/check): every bundled generator
   must come out clean under [Check.all], and seeded corruptions —
   injected through the [Internal] back doors — must be caught.
   Posting-list edge cases (empty, single, duplicates, out-of-range) ride
   along, since [check_index] is their specification. *)

module Codec = Extract_store.Codec
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Packed_postings = Extract_store.Packed_postings
module Persist = Extract_store.Persist
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Selector = Extract_snippet.Selector
module Datagen = Extract_datagen
module Check = Extract_check.Check

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let issues_to_string issues = String.concat "; " (List.map Check.issue_to_string issues)

let check_clean what issues =
  Alcotest.(check string) what "" (issues_to_string issues)

let check_flagged what issues = check bool what true (issues <> [])

let has_issue_about substring issues =
  List.exists
    (fun i ->
      let s = Check.issue_to_string i in
      let n = String.length substring in
      let rec scan k = k + n <= String.length s && (String.sub s k n = substring || scan (k + 1)) in
      scan 0)
    issues

(* ------------------------------------------------------------------ *)
(* Every bundled generator passes the full fsck *)

let bundled_databases () =
  [
    "paper", Pipeline.build (Document.of_document (Datagen.Paper_example.document ()));
    "retail", Pipeline.build (Document.of_document (Datagen.Retail.generate Datagen.Retail.default));
    "movies", Pipeline.build (Document.of_document (Datagen.Movies.generate Datagen.Movies.default));
    "auction", Pipeline.build (Document.of_document (Datagen.Auction.generate Datagen.Auction.default));
    "bib", Pipeline.build (Document.of_document (Datagen.Bib.generate Datagen.Bib.default));
    "courses", Pipeline.build (Document.of_document (Datagen.Courses.generate Datagen.Courses.default));
  ]

let test_all_generators_clean () =
  List.iter (fun (name, db) -> check_clean name (Check.all db)) (bundled_databases ())

let test_probe_queries_nonempty () =
  List.iter
    (fun (name, db) ->
      check bool (name ^ " has probe queries") true (Check.probe_queries db <> []))
    (bundled_databases ())

(* ------------------------------------------------------------------ *)
(* Seeded document corruptions *)

let small_doc () =
  Document.load_string
    "<catalog><vendor>acme</vendor>\
     <book><title>ocaml</title><tag>lang</tag></book>\
     <book><title>databases</title></book></catalog>"

let copy_doc_repr (r : Document.Internal.repr) =
  {
    r with
    Document.Internal.tag = Array.copy r.Document.Internal.tag;
    parent = Array.copy r.Document.Internal.parent;
    depth = Array.copy r.Document.Internal.depth;
    size = Array.copy r.Document.Internal.size;
  }

let test_clean_document_passes () =
  check_clean "small document" (Check.check_document (small_doc ()))

(* Swapping two subtree-size entries breaks the interval nesting that the
   Dewey labels are derived from: document order is no longer consistent. *)
let test_swapped_sizes_detected () =
  let r = copy_doc_repr (Document.Internal.to_repr (small_doc ())) in
  let sizes = r.Document.Internal.size in
  let tmp = sizes.(1) in
  sizes.(1) <- sizes.(2);
  sizes.(2) <- tmp;
  let issues = Check.check_document (Document.Internal.of_repr r) in
  check_flagged "swapped sizes flagged" issues

(* Re-parenting a node to a later id corrupts the pre-order (its Dewey
   label would sort after its children's). *)
let test_swapped_parents_detected () =
  let r = copy_doc_repr (Document.Internal.to_repr (small_doc ())) in
  let parents = r.Document.Internal.parent in
  parents.(1) <- Array.length parents - 1;
  let issues = Check.check_document (Document.Internal.of_repr r) in
  check_flagged "bad parent flagged" issues

let test_corrupt_depth_detected () =
  let r = copy_doc_repr (Document.Internal.to_repr (small_doc ())) in
  r.Document.Internal.depth.(1) <- r.Document.Internal.depth.(1) + 1;
  let issues = Check.check_document (Document.Internal.of_repr r) in
  check_flagged "bad depth flagged" issues

(* ------------------------------------------------------------------ *)
(* Posting-list edge cases and seeded index corruptions *)

let index_of_doc doc = Inverted_index.build doc

(* LEB128 over the value's 63 bits, the way [Codec.read_varint] reads
   it back. Unlike [Codec.write_varint] it takes a negative number,
   which is how a gap that goes down looks on the wire. *)
let rec add_varint buf v =
  if v >= 0 && v < 0x80 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
    add_varint buf (v lsr 7)
  end

(* first id, then gaps: both persisted list layouts *)
let add_gaps buf list =
  Array.iteri (fun i v -> add_varint buf (if i = 0 then v else v - list.(i - 1))) list

(* A one-block list, sorted or not, in {!Packed_postings}' wire form:
   count, block count, skip table, offset table, data. A damaged
   snapshot is the only way such a list reaches memory, so the seeded
   corruptions below are decoded from these bytes. *)
let packed_of_list list =
  let n = Array.length list in
  assert (n <= Codec.block_size);
  let data = Buffer.create 16 in
  add_gaps data list;
  let buf = Buffer.create 32 in
  add_varint buf n;
  if n = 0 then begin
    add_varint buf 0;
    add_varint buf 0
  end
  else begin
    add_varint buf 1;
    add_varint buf list.(0);
    add_varint buf 0;
    add_varint buf (Buffer.length data)
  end;
  add_varint buf (Buffer.length data);
  Buffer.add_buffer buf data;
  Packed_postings.decode (Codec.reader (Buffer.contents buf))

(* [f] edits the decoded lists of [doc]'s index in place; the edited
   index is checked *)
let with_postings doc f =
  let idx = index_of_doc doc in
  let tokens = Inverted_index.Internal.token_names idx in
  let postings =
    Array.map Packed_postings.to_array (Inverted_index.Internal.packed_lists idx)
  in
  f tokens postings;
  Check.check_index
    (Inverted_index.Internal.of_packed ~doc ~tokens
       ~packed:(Array.map packed_of_list postings)
       ~tag_tokens:(Inverted_index.Internal.tag_token_pairs idx))

let test_clean_index_passes () =
  check_clean "small index" (Check.check_index (index_of_doc (small_doc ())))

let test_lookup_empty_and_single () =
  let idx = index_of_doc (small_doc ()) in
  (* missing keyword: the empty posting list, not an exception *)
  check int "missing keyword" 0 (Array.length (Inverted_index.lookup idx "zzzzz"));
  (* "acme" occurs exactly once (under vendor) *)
  check int "single posting" 1 (Array.length (Inverted_index.lookup idx "acme"))

let test_shuffled_postings_detected () =
  let doc = small_doc () in
  let issues =
    with_postings doc (fun _ postings ->
        (* reverse the longest posting list ("book" has two) *)
        let longest = ref 0 in
        Array.iteri
          (fun i l -> if Array.length l > Array.length postings.(!longest) then longest := i)
          postings;
        let l = postings.(!longest) in
        let n = Array.length l in
        for k = 0 to (n / 2) - 1 do
          let tmp = l.(k) in
          l.(k) <- l.(n - 1 - k);
          l.(n - 1 - k) <- tmp
        done)
  in
  check_flagged "shuffled postings flagged" issues;
  check bool "mentions ordering" true (has_issue_about "ascending" issues)

let test_duplicate_postings_detected () =
  let doc = small_doc () in
  let issues =
    with_postings doc (fun _ postings ->
        let longest = ref 0 in
        Array.iteri
          (fun i l -> if Array.length l > Array.length postings.(!longest) then longest := i)
          postings;
        let l = postings.(!longest) in
        l.(1) <- l.(0))
  in
  check_flagged "duplicate posting flagged" issues

let test_out_of_range_posting_detected () =
  let doc = small_doc () in
  let issues =
    with_postings doc (fun _ postings ->
        let l = postings.(0) in
        l.(Array.length l - 1) <- Document.node_count doc + 5)
  in
  check_flagged "out-of-range posting flagged" issues;
  check bool "mentions the arena" true (has_issue_about "outside the arena" issues)

let test_empty_posting_list_detected () =
  let doc = small_doc () in
  let issues =
    with_postings doc (fun _ postings -> postings.(0) <- [||])
  in
  check_flagged "empty posting list flagged" issues

let test_phantom_posting_detected () =
  (* a structurally valid element that does not match the token *)
  let doc = small_doc () in
  let issues =
    with_postings doc (fun tokens postings ->
        (* find the token "acme" (posting = the vendor element, node 1)
           and point it at the root instead *)
        let acme = ref (-1) in
        Array.iteri (fun i t -> if t = "acme" then acme := i) tokens;
        check bool "acme is indexed" true (!acme >= 0);
        postings.(!acme) <- [| 0 |])
  in
  check_flagged "phantom posting flagged" issues

(* ------------------------------------------------------------------ *)
(* Snippet / selection corruptions *)

let retail_db () =
  Pipeline.build (Document.of_document (Datagen.Retail.generate Datagen.Retail.default))

let first_result db query =
  match Pipeline.search db query with
  | r :: _ -> r
  | [] -> Alcotest.fail ("no results for " ^ query)

let test_clean_selection_passes () =
  let db = retail_db () in
  let result = first_result db "apparel retailer" in
  let s = Pipeline.snippet_of ~bound:10 db result (Query.of_string "apparel retailer") in
  check_clean "selection" (Check.check_selection s.Pipeline.selection)

let test_over_budget_snippet_detected () =
  let db = retail_db () in
  let result = first_result db "apparel retailer" in
  let s = Pipeline.snippet_of ~bound:10 db result (Query.of_string "apparel retailer") in
  let sel = s.Pipeline.selection in
  check bool "snippet uses some budget" true
    (Extract_snippet.Snippet_tree.edge_count sel.Selector.snippet > 0);
  (* shrink the recorded bound below the snippet's actual edge count *)
  let corrupted = { sel with Selector.bound = 0 } in
  let issues = Check.check_selection corrupted in
  check_flagged "over-budget snippet flagged" issues;
  check bool "mentions the bound" true (has_issue_about "over the bound" issues)

let test_check_query_clean () =
  let db = retail_db () in
  check_clean "check_query" (Check.check_query db "apparel retailer")

let test_degraded_selection_skips_cost_check () =
  let db = retail_db () in
  let result = first_result db "apparel retailer" in
  let s = Pipeline.snippet_of ~bound:10 db result (Query.of_string "apparel retailer") in
  (* a degraded selection carries no coverage accounting; the cost-sum
     invariant would misfire, the structural checks must still run *)
  let degraded_sel = { s.Pipeline.selection with Selector.covered = [] } in
  check_flagged "strict check flags missing accounting"
    (Check.check_selection degraded_sel);
  check_clean "degraded check accepts it"
    (Check.check_selection ~degraded:true degraded_sel);
  (* but a degraded selection over the bound is still an issue *)
  let over = { degraded_sel with Selector.bound = 0 } in
  check_flagged "degraded over-budget still flagged"
    (Check.check_selection ~degraded:true over)

let test_degraded_pipeline_run_passes_observer () =
  Check.install_pipeline_observer ();
  Fun.protect
    ~finally:(fun () -> Pipeline.set_observer None)
    (fun () ->
      let db = retail_db () in
      let deadline = Extract_util.Deadline.of_ms_opt (Some 0) in
      let results = Pipeline.run ~bound:10 ~deadline db "apparel retailer" in
      check bool "degraded run survives observer" true
        (results <> [] && List.for_all (fun r -> r.Pipeline.degraded) results))

(* ------------------------------------------------------------------ *)
(* Persisted pair validation (check --index) *)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let in_temp_pair f =
  let arena = Filename.temp_file "extract_arena" ".bin" in
  let index = Filename.temp_file "extract_index" ".idx" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove arena;
      Sys.remove index)
    (fun () -> f arena index)

let test_check_pair_matching () =
  let db = retail_db () in
  in_temp_pair (fun arena index ->
      Extract_store.Persist.save arena (Pipeline.document db);
      Extract_store.Persist.save_index index (Pipeline.index db);
      check_clean "matching pair" (Check.check_pair ~arena ~index))

let test_check_pair_mismatched () =
  let db_a = retail_db () in
  let db_b =
    Pipeline.build (Document.of_document (Datagen.Movies.generate Datagen.Movies.default))
  in
  in_temp_pair (fun arena index ->
      Extract_store.Persist.save arena (Pipeline.document db_a);
      Extract_store.Persist.save_index index (Pipeline.index db_b);
      let issues = Check.check_pair ~arena ~index in
      check_flagged "mismatched pair flagged" issues;
      check bool "mentions fingerprint" true (has_issue_about "fingerprint" issues))

let test_check_pair_corrupt_index () =
  let db = retail_db () in
  in_temp_pair (fun arena index ->
      Extract_store.Persist.save arena (Pipeline.document db);
      Extract_store.Persist.save_index index (Pipeline.index db);
      let ic = open_in_bin index in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let bytes = Bytes.of_string data in
      let pos = Bytes.length bytes - 2 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff));
      write_file index (Bytes.to_string bytes);
      check_flagged "corrupt index flagged" (Check.check_pair ~arena ~index))

let test_check_pair_xml_arena () =
  (* the arena side may be plain XML: it is parsed, fingerprinted, and
     still compared against the index *)
  let db = retail_db () in
  in_temp_pair (fun arena index ->
      write_file arena "<a><b>one two</b></a>";
      Extract_store.Persist.save_index index (Pipeline.index db);
      let issues = Check.check_pair ~arena ~index in
      check_flagged "xml arena vs foreign index flagged" issues)

(* A sealed index whose seal is intact but whose list goes down: the
   load refuses it as corrupt, like any other damaged artifact, and
   check --index reports it. *)
let test_unsorted_index_is_corrupt () =
  let doc = small_doc () in
  let index_with list =
    let payload = Buffer.create 64 in
    let add_string s =
      add_varint payload (String.length s);
      Buffer.add_string payload s
    in
    add_string (Persist.fingerprint doc);
    add_varint payload 1;
    add_string "book";
    add_varint payload 1;
    add_varint payload (Array.length list);
    add_gaps payload list;
    add_varint payload 0;
    Persist.Envelope.seal ~magic:Persist.index_magic (Buffer.contents payload)
  in
  List.iter
    (fun (label, list) ->
      in_temp_pair (fun arena index ->
          Persist.save arena doc;
          write_file index (index_with list);
          check bool (label ^ ": load_index raises Corrupt") true
            (match Persist.load_index index ~doc with
            | _ -> false
            | exception Codec.Corrupt _ -> true);
          check bool (label ^ ": check_pair reports it") true
            (has_issue_about "not strictly ascending" (Check.check_pair ~arena ~index))))
    [
      "descending", [| 5; 2 |];
      (* a zero gap as the first entry of the second block *)
      "duplicate across blocks", Array.init (Codec.block_size + 1) (fun i -> min i (Codec.block_size - 1));
    ]

(* ------------------------------------------------------------------ *)
(* Pipeline observer (the EXTRACT_CHECK seam) *)

let test_observer_clean_run () =
  Check.install_pipeline_observer ();
  Fun.protect
    ~finally:(fun () -> Pipeline.set_observer None)
    (fun () ->
      let db = retail_db () in
      let results = Pipeline.run ~bound:10 db "apparel retailer" in
      check bool "observer run produced results" true (results <> []))

let test_observer_catches_corruption () =
  Check.install_pipeline_observer ();
  Fun.protect
    ~finally:(fun () -> Pipeline.set_observer None)
    (fun () ->
      (* depth is recorded but never drives a builder's control flow, so
         the corrupt arena survives Pipeline.build long enough for the
         post-build observer hook to flag it *)
      let r = copy_doc_repr (Document.Internal.to_repr (small_doc ())) in
      r.Document.Internal.depth.(1) <- r.Document.Internal.depth.(1) + 1;
      let corrupt = Document.Internal.of_repr r in
      match Pipeline.build corrupt with
      | _ -> Alcotest.fail "observer accepted a corrupt arena"
      | exception Check.Violation issues -> check_flagged "violation issues" issues)

let suites =
  [
    ( "check.document",
      [
        Alcotest.test_case "clean document passes" `Quick test_clean_document_passes;
        Alcotest.test_case "swapped sizes detected" `Quick test_swapped_sizes_detected;
        Alcotest.test_case "swapped parents detected" `Quick test_swapped_parents_detected;
        Alcotest.test_case "corrupt depth detected" `Quick test_corrupt_depth_detected;
      ] );
    ( "check.index",
      [
        Alcotest.test_case "clean index passes" `Quick test_clean_index_passes;
        Alcotest.test_case "lookup: empty and single" `Quick test_lookup_empty_and_single;
        Alcotest.test_case "shuffled postings detected" `Quick test_shuffled_postings_detected;
        Alcotest.test_case "duplicate postings detected" `Quick test_duplicate_postings_detected;
        Alcotest.test_case "out-of-range posting detected" `Quick test_out_of_range_posting_detected;
        Alcotest.test_case "empty posting list detected" `Quick test_empty_posting_list_detected;
        Alcotest.test_case "phantom posting detected" `Quick test_phantom_posting_detected;
      ] );
    ( "check.snippet",
      [
        Alcotest.test_case "clean selection passes" `Quick test_clean_selection_passes;
        Alcotest.test_case "over-budget snippet detected" `Quick test_over_budget_snippet_detected;
        Alcotest.test_case "check_query clean" `Quick test_check_query_clean;
        Alcotest.test_case "degraded skips cost check" `Quick test_degraded_selection_skips_cost_check;
        Alcotest.test_case "degraded run under observer" `Quick test_degraded_pipeline_run_passes_observer;
      ] );
    ( "check.persist",
      [
        Alcotest.test_case "matching pair" `Quick test_check_pair_matching;
        Alcotest.test_case "mismatched pair" `Quick test_check_pair_mismatched;
        Alcotest.test_case "corrupt index" `Quick test_check_pair_corrupt_index;
        Alcotest.test_case "xml arena" `Quick test_check_pair_xml_arena;
        Alcotest.test_case "unsorted index" `Quick test_unsorted_index_is_corrupt;
      ] );
    ( "check.all",
      [
        Alcotest.test_case "all bundled generators clean" `Slow test_all_generators_clean;
        Alcotest.test_case "probe queries nonempty" `Slow test_probe_queries_nonempty;
      ] );
    ( "check.observer",
      [
        Alcotest.test_case "clean run under observer" `Quick test_observer_clean_run;
        Alcotest.test_case "observer catches corruption" `Quick test_observer_catches_corruption;
      ] );
  ]
