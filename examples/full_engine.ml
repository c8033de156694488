(* A complete XML keyword search engine assembled from the library's
   pieces, the way the demo paper frames it (§4: "a full-fledged XML
   keyword search engine with functionalities from query result
   construction, ranking, to providing result snippets"):

   1. load and analyze a database (entities, keys, index);
   2. execute a keyword query (XSeek semantics);
   3. rank the results (XRank-style scores);
   4. generate snippets, differentiated across results;
   5. emit the result page as HTML next to a terminal rendition.

   Run with: dune exec examples/full_engine.exe *)

module Pipeline = Extract_snippet.Pipeline
module Ranker = Extract_search.Ranker
module Eval_ctx = Extract_search.Eval_ctx
module Query = Extract_search.Query
module Snippet_tree = Extract_snippet.Snippet_tree
module Selector = Extract_snippet.Selector

let () =
  let query = "jeans store" in
  let bound = 6 in

  (* 1. offline *)
  let doc =
    Extract_store.Document.of_document
      (Extract_datagen.Retail.generate Extract_datagen.Retail.default)
  in
  let db = Pipeline.build doc in

  (* 2-4. online: differentiated snippets, then rank the results *)
  let snippets = Pipeline.run_differentiated ~bound db query in
  let ranker = Ranker.make (Eval_ctx.make (Pipeline.index db) (Query.of_string query)) in
  let ranked =
    List.map
      (fun (r : Pipeline.snippet_result) -> Ranker.score ranker r.Pipeline.result, r)
      snippets
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare b a)
  in

  Printf.printf "Query %S — %d results, ranked:\n\n" query (List.length ranked);
  List.iteri
    (fun i (score, (r : Pipeline.snippet_result)) ->
      if i < 3 then begin
        Printf.printf "#%d (score %.2f)\n" (i + 1) score;
        print_endline (Snippet_tree.render r.Pipeline.selection.Selector.snippet);
        print_newline ()
      end)
    ranked;

  (* 5. the web page of Fig. 5 *)
  let out = Filename.concat (Filename.get_temp_dir_name ()) "extract_full_engine.html" in
  Extract_snippet.Html_view.write_page ~path:out ~title:"eXtract — full engine" ~query
    ~bound
    (List.map snd ranked);
  Printf.printf "HTML result page: %s\n" out
