(* Tests for the query hot-path overhaul: the shared per-query evaluation
   context, limit pushdown, memoized feature analysis and the completion
   index. *)

module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Node_kind = Extract_store.Node_kind
module Engine = Extract_search.Engine
module Eval_ctx = Extract_search.Eval_ctx
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Feature = Extract_snippet.Feature
module Selector = Extract_snippet.Selector
module Snippet_tree = Extract_snippet.Snippet_tree

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let retail_db =
  lazy
    (Pipeline.build
       (Document.of_document (Extract_datagen.Retail.generate Extract_datagen.Retail.default)))

let render (r : Pipeline.snippet_result) =
  Snippet_tree.render r.Pipeline.selection.Selector.snippet

(* ------------------------------------------------------------------ *)
(* Evaluation context *)

let test_ctx_resolves_each_keyword_once () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let q = Query.of_string "apparel retailer" in
  let resolved = Extract_obs.Registry.counter "extract_posting_lists_resolved_total" in
  let before = Extract_obs.Registry.counter_value resolved in
  let ctx = Eval_ctx.make idx q in
  (* resolve-once: every later read of a keyword's list gets the array
     the context decoded, not a fresh decode *)
  List.iter
    (fun kw ->
      check bool ("same array " ^ kw) true (Eval_ctx.postings ctx kw == Eval_ctx.postings ctx kw);
      check bool ("the index's list " ^ kw) true
        (Eval_ctx.postings ctx kw = Inverted_index.lookup idx kw))
    (Query.keywords q);
  check int "one resolution per keyword" (Query.size q)
    (Extract_obs.Registry.counter_value resolved - before);
  check int "one list per keyword" (Query.size q) (List.length (Eval_ctx.lists ctx))

let test_run_ctx_equals_run () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let kinds = Pipeline.kinds db in
  let q = Query.of_string "apparel store" in
  let fingerprint r = Result_tree.root r, Result_tree.size r in
  List.iter
    (fun semantics ->
      let direct = Engine.run ~semantics idx kinds q in
      let via_ctx = Engine.run_ctx ~semantics (Eval_ctx.make idx q) kinds in
      check bool
        (Engine.string_of_semantics semantics)
        true
        (List.map fingerprint direct = List.map fingerprint via_ctx))
    Engine.all_semantics

(* ------------------------------------------------------------------ *)
(* Limit pushdown *)

let test_limit_is_prefix_of_unlimited () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let kinds = Pipeline.kinds db in
  let q = Query.of_string "apparel store" in
  let fingerprint r = Result_tree.root r, Result_tree.size r in
  List.iter
    (fun semantics ->
      let all = Engine.run ~semantics idx kinds q in
      List.iter
        (fun k ->
          let limited = Engine.run ~semantics ~limit:k idx kinds q in
          let expected = List.filteri (fun i _ -> i < k) all in
          check bool
            (Printf.sprintf "%s limit %d" (Engine.string_of_semantics semantics) k)
            true
            (List.map fingerprint limited = List.map fingerprint expected))
        [ 0; 1; 3; 1000 ])
    Engine.all_semantics

(* ------------------------------------------------------------------ *)
(* Feature analysis memoization *)

let test_differentiated_analyzes_once_per_result () =
  let db = Lazy.force retail_db in
  let q = "apparel store" in
  let results = Pipeline.search db q in
  check bool "query has several results" true (List.length results > 1);
  let before = Feature.analyze_calls () in
  let out = Pipeline.run_differentiated ~bound:8 db q in
  let after = Feature.analyze_calls () in
  check int "one analysis per result" (List.length results) (after - before);
  check int "all results snippeted" (List.length results) (List.length out)

(* ------------------------------------------------------------------ *)
(* Completion index *)

let test_complete_equals_naive_scan () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let naive ?(limit = 10) prefix =
    let prefix = Extract_store.Tokenizer.normalize prefix in
    Inverted_index.vocabulary idx
    |> List.filter (fun tok ->
           String.length tok >= String.length prefix
           && String.sub tok 0 (String.length prefix) = prefix)
    |> List.map (fun tok -> tok, Array.length (Inverted_index.lookup idx tok))
    |> List.sort (fun (ta, ca) (tb, cb) -> if ca <> cb then compare cb ca else compare ta tb)
    |> List.filteri (fun i _ -> i < limit)
  in
  List.iter
    (fun prefix ->
      check bool ("prefix " ^ prefix) true
        (Inverted_index.complete idx prefix = naive prefix))
    [ "s"; "st"; "store"; "a"; "re"; "z"; "nosuch"; "STORE" ];
  check bool "limit respected" true
    (Inverted_index.complete idx ~limit:2 "s" = naive ~limit:2 "s")

let suites =
  [
    ( "hotpath.eval_ctx",
      [
        Alcotest.test_case "each keyword is resolved once per query" `Quick
          test_ctx_resolves_each_keyword_once;
        Alcotest.test_case "run_ctx = run" `Quick test_run_ctx_equals_run;
      ] );
    ( "hotpath.limit",
      [
        Alcotest.test_case "limit = prefix of unlimited" `Quick test_limit_is_prefix_of_unlimited;
      ] );
    ( "hotpath.analysis",
      [
        Alcotest.test_case "analyze once per result" `Quick
          test_differentiated_analyzes_once_per_result;
      ] );
    ( "hotpath.complete",
      [
        Alcotest.test_case "complete = naive scan" `Quick test_complete_equals_naive_scan;
      ] );
  ]
