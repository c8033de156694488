(* A cross-constructor oracle. An analyzed database can be built from its
   document, mapped from a v2 snapshot or decoded from a v1 bundle; all
   three must answer every query alike. One property draws a bundled
   generator (or a catalog with mixed content), a query from that
   corpus's seeded workload and an engine, and compares the ranked top
   five (root, exact score, rendered snippet) and the unranked search
   roots across the three builds. *)

module Document = Extract_store.Document
module Engine = Extract_search.Engine
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Selector = Extract_snippet.Selector
module Snippet_tree = Extract_snippet.Snippet_tree
module Datagen = Extract_datagen
module Types = Extract_xml.Types

type corpus = {
  name : string;
  builds : (string * Pipeline.t) list; (* constructor name, database *)
  queries : string array;
}

let through_file suffix save load db =
  let path = Filename.temp_file "extract_oracle" suffix in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      save path db;
      load path)

let corpus name doc =
  let built = Pipeline.build doc in
  let spec = { Datagen.Workload.default with seed = 17; queries = 12 } in
  {
    name;
    builds =
      [
        "build", built;
        "snapshot", through_file ".snap" Pipeline.save_snapshot Pipeline.load_snapshot built;
        "bundle", through_file ".xtr" Pipeline.save Pipeline.load built;
      ];
    queries = Array.of_list (Datagen.Workload.generate spec (Pipeline.kinds built));
  }

(* A catalog whose element lists the builder must sort: each product
   repeats its attribute values in its own text, and text follows its
   child elements, so a product is posted after its descendants. *)
let mixed_catalog () =
  let colours = [| "red"; "blue"; "green" |] and brands = [| "acme"; "zenith" |] in
  Types.element "catalog"
    (List.init 24 (fun i ->
         let colour = colours.(i mod 3) and brand = brands.(i mod 2) in
         Types.element "product"
           ~attrs:[ "colour", colour; "brand", brand ]
           [
             Types.text (colour ^ " shirt");
             Types.element "name" [ Types.text (Printf.sprintf "%s %s tee" brand colour) ];
             Types.text (Printf.sprintf "sold by %s in %s" brand colour);
             Types.element "review"
               [
                 Types.text "great fit";
                 Types.element "stars" [ Types.text (string_of_int (1 + (i mod 5))) ];
                 Types.text (Printf.sprintf "great %s" colour);
               ];
           ]))

(* every generator in lib/datagen at its default size, and the catalog *)
let corpora =
  Array.map
    (fun (name, generate) -> lazy (corpus name (generate ())))
    [|
      "paper", (fun () -> Document.of_document (Datagen.Paper_example.document ()));
      "retail", (fun () -> Document.of_document (Datagen.Retail.generate Datagen.Retail.default));
      "movies", (fun () -> Document.of_document (Datagen.Movies.generate Datagen.Movies.default));
      "auction", (fun () -> Document.of_document (Datagen.Auction.generate Datagen.Auction.default));
      "bib", (fun () -> Document.of_document (Datagen.Bib.generate Datagen.Bib.default));
      "courses", (fun () -> Document.of_document (Datagen.Courses.generate Datagen.Courses.default));
      "nested", (fun () -> Document.of_document (Datagen.Nested.generate Datagen.Nested.default));
      "mixed", (fun () -> Document.of_xml (mixed_catalog ()));
    |]

let semantics = [| Engine.Xseek; Engine.Slca; Engine.Elca |]

(* Scores print as hex floats, so equal answers mean bit-equal scores. *)
let answer semantics db query =
  let ranked =
    Pipeline.run_ranked ~semantics ~limit:5 db query
    |> List.map (fun (score, s) ->
           ( Result_tree.root s.Pipeline.result,
             Printf.sprintf "%h" score,
             Snippet_tree.render s.Pipeline.selection.Selector.snippet ))
  in
  ranked, List.map Result_tree.root (Pipeline.search ~semantics db query)

let show_answer (ranked, roots) =
  String.concat "; "
    (List.map (fun (root, score, snippet) -> Printf.sprintf "%d %s %S" root score snippet) ranked)
  ^ " | roots "
  ^ String.concat "," (List.map string_of_int roots)

let arb_case =
  QCheck.make
    ~print:(fun (c, q, s) -> Printf.sprintf "corpus %d, query %d, engine %d" c q s)
    QCheck.Gen.(
      triple (int_bound (Array.length corpora - 1)) (int_bound 1000)
        (int_bound (Array.length semantics - 1)))

let prop_constructors_agree =
  QCheck.Test.make ~count:200 ~name:"build = snapshot = bundle" arb_case (fun (c, q, s) ->
      let corpus = Lazy.force corpora.(c) in
      let n = Array.length corpus.queries in
      if n = 0 then QCheck.Test.fail_reportf "%s: the workload drew no query" corpus.name;
      let query = corpus.queries.(q mod n) in
      let semantics = semantics.(s) in
      let answers = List.map (fun (how, db) -> how, answer semantics db query) corpus.builds in
      let reference = snd (List.hd answers) in
      List.iter
        (fun (how, a) ->
          if a <> reference then
            QCheck.Test.fail_reportf "%s %S under %s: %s answers\n  %s\nbuild answers\n  %s"
              corpus.name query
              (Engine.string_of_semantics semantics)
              how (show_answer a) (show_answer reference))
        answers;
      true)

let suites =
  [ "oracle.constructors", List.map QCheck_alcotest.to_alcotest [ prop_constructors_agree ] ]
