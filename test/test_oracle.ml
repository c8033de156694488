(* A cross-constructor oracle. An analyzed database can be built from its
   document or mapped from a snapshot; both must answer every query
   alike. One property draws a bundled generator (or a catalog with
   mixed content), a query from that corpus's seeded workload and an
   engine, and compares the ranked top five (root, exact score, rendered
   snippet) and the unranked search roots across the builds. A snapshot
   adopts the analysis it stores instead of deriving it, so a second
   test compares every build's analysis with the in-memory build's, with
   the comparator [extract check] uses. The live store is a backend of
   its own, checked by a third property below. *)

module Document = Extract_store.Document
module Engine = Extract_search.Engine
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Selector = Extract_snippet.Selector
module Snippet_tree = Extract_snippet.Snippet_tree
module Datagen = Extract_datagen
module Types = Extract_xml.Types
module Check = Extract_check.Check

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
             Types.Text (colour ^ " shirt");
             Types.element "name" [ Types.Text (Printf.sprintf "%s %s tee" brand colour) ];
             Types.Text (Printf.sprintf "sold by %s in %s" brand colour);
             Types.element "review"
               [
                 Types.Text "great fit";
                 Types.element "stars" [ Types.Text (string_of_int (1 + (i mod 5))) ];
                 Types.Text (Printf.sprintf "great %s" colour);
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
      "nested", (fun () -> Document.of_document (Nested.generate Nested.default));
      "mixed", (fun () -> Document.of_xml (mixed_catalog ()));
    |]

let semantics = Array.of_list Engine.all_semantics

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
  QCheck.Test.make ~count:200 ~name:"build = snapshot" arb_case (fun (c, q, s) ->
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

let test_analyses_agree () =
  Array.iter
    (fun corpus ->
      let corpus = Lazy.force corpus in
      let derived = Pipeline.keys (List.assoc "build" corpus.builds) in
      List.iter
        (fun (how, db) ->
          match Check.check_analysis ~derived (Pipeline.keys db) with
          | [] -> ()
          | issues ->
            Alcotest.failf "%s: the %s analysis differs from the build's:\n%s" corpus.name how
              (String.concat "\n" (List.map Check.issue_to_string issues)))
        corpus.builds)
    corpora

(* ------------------------------------------------------------------ *)
(* The live store as a backend. A drawn history of adds (a name already
   present is replaced), removes and compactions runs against a fresh
   store; the running store, the directory reopened and the directory
   reopened read-only must then answer alike, and again after a final
   compaction. Scores use each segment's own statistics (the base's and
   every delta's), so the flat build is compared by the one rule that
   survives that divergence: which members have hits. *)

module Live_corpus = Extract_snippet.Live_corpus

type op =
  | Add of int * int (* name slot, member body *)
  | Remove of int (* name slot *)
  | Compact

let show_op = function
  | Add (n, b) -> Printf.sprintf "add m%d.xml=%d" n b
  | Remove n -> Printf.sprintf "remove m%d.xml" n
  | Compact -> "compact"

(* The root's element children in [k] contiguous groups, each group one
   member document under a copy of the root's tag. *)
let member_bodies doc k =
  let root = Document.root doc in
  let children =
    Array.of_list (List.filter (Document.is_element doc) (Document.children doc root))
  in
  let n = Array.length children in
  let k = max 1 (min k n) in
  Array.init k (fun j ->
      let lo = j * n / k and hi = (j + 1) * n / k in
      Extract_xml.Printer.to_string ~indent:None
        (Types.element (Document.tag_name doc root)
           (List.init (hi - lo) (fun i -> Document.to_xml doc children.(lo + i)))))

let member_name slot = Printf.sprintf "m%d.xml" slot

(* Apply one operation to the store and to the model of its visible
   members (name, body), in the store's order. *)
let apply lc bodies visible = function
  | Add (slot, body) ->
    let name = member_name slot and body = body mod Array.length bodies in
    Live_corpus.add lc ~name ~xml:bodies.(body);
    List.remove_assoc name visible @ [ name, body ]
  | Remove slot ->
    let name = member_name slot in
    ignore (Live_corpus.remove lc name);
    List.remove_assoc name visible
  | Compact ->
    ignore (Live_corpus.compact lc);
    visible

let live_answer semantics lc query =
  Live_corpus.run ~semantics ~limit:5 lc query
  |> List.map (fun (h : Live_corpus.hit) ->
         ( h.Live_corpus.source,
           Printf.sprintf "%h" h.Live_corpus.score,
           Snippet_tree.render h.Live_corpus.snippet.Pipeline.selection.Selector.snippet ))

let show_live_answer a =
  String.concat "; " (List.map (fun (source, score, snippet) -> Printf.sprintf "%s %s %S" source score snippet) a)

let hit_members semantics lc query =
  Live_corpus.run ~semantics lc query
  |> List.map (fun (h : Live_corpus.hit) -> h.Live_corpus.source)
  |> List.sort_uniq String.compare

(* The members a flat build over the visible members finds results in;
   a result at the synthetic root is no member's. *)
let flat_members semantics bodies visible query =
  let flat =
    Pipeline.of_xml_string
      ("<corpus>" ^ String.concat "" (List.map (fun (_, b) -> bodies.(b)) visible) ^ "</corpus>")
  in
  let doc = Pipeline.document flat in
  let roots = List.filter (Document.is_element doc) (Document.children doc (Document.root doc)) in
  let named = List.combine (List.map fst visible) roots in
  Pipeline.search ~semantics flat query
  |> List.filter_map (fun r ->
         let root = Result_tree.root r in
         List.find_opt (fun (_, m) -> m <= root && root <= Document.subtree_last doc m) named
         |> Option.map fst)
  |> List.sort_uniq String.compare

let with_temp_dir f =
  let dir = Filename.temp_file "extract_oracle_live" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let arb_live =
  let op =
    QCheck.Gen.(
      frequency
        [
          5, map2 (fun n b -> Add (n, b)) (int_bound 4) (int_bound 1000);
          2, map (fun n -> Remove n) (int_bound 4);
          2, pure Compact;
        ])
  in
  QCheck.make
    ~print:(fun ((c, k), (ops, (q, s))) ->
      Printf.sprintf "corpus %d in %d member(s), query %d, engine %d: %s" c k q s
        (String.concat ", " (List.map show_op ops)))
    QCheck.Gen.(
      pair
        (pair (int_bound (Array.length corpora - 1)) (int_range 2 6))
        (pair (list_size (int_range 4 12) op)
           (pair (int_bound 1000) (int_bound (Array.length semantics - 1)))))

let prop_live_agrees =
  QCheck.Test.make ~count:50 ~name:"running = reopened = read-only, hit members = flat"
    arb_live (fun ((c, k), (ops, (q, s))) ->
      let corpus = Lazy.force corpora.(c) in
      let bodies = member_bodies (Pipeline.document (List.assoc "build" corpus.builds)) k in
      let n = Array.length corpus.queries in
      if n = 0 then QCheck.Test.fail_reportf "%s: the workload drew no query" corpus.name;
      let queries = List.init 3 (fun i -> corpus.queries.((q + i) mod n)) in
      let semantics = semantics.(s) in
      let answers lc = List.map (fun query -> query, live_answer semantics lc query) queries in
      let agree stage reference how lc =
        List.iter2
          (fun (query, want) (_, got) ->
            if got <> want then
              QCheck.Test.fail_reportf "%s %S under %s, %s: %s answers\n  %s\nrunning store answers\n  %s"
                corpus.name query
                (Engine.string_of_semantics semantics)
                stage how (show_live_answer got) (show_live_answer want))
          reference (answers lc)
      in
      let members_agree stage lc visible =
        List.iter
          (fun query ->
            let live = hit_members semantics lc query
            and flat = flat_members semantics bodies visible query in
            if live <> flat then
              QCheck.Test.fail_reportf "%s %S under %s, %s: members with hits [%s], flat build [%s]"
                corpus.name query
                (Engine.string_of_semantics semantics)
                stage (String.concat " " live) (String.concat " " flat))
          queries
      in
      (* the running store's answers against both reopenings *)
      let reopened_agree stage dir lc =
        let reference = answers lc in
        Live_corpus.close lc;
        let again = Live_corpus.open_dir dir in
        agree stage reference "reopened" again;
        let read_only = Live_corpus.open_dir ~read_only:true dir in
        agree stage reference "reopened read-only" read_only;
        Live_corpus.close read_only;
        again
      in
      with_temp_dir (fun dir ->
          let lc = Live_corpus.open_dir dir in
          let visible = List.fold_left (apply lc bodies) [] ops in
          members_agree "after the history" lc visible;
          let lc = reopened_agree "after the history" dir lc in
          ignore (Live_corpus.compact lc);
          members_agree "after a final compaction" lc visible;
          let lc = reopened_agree "after a final compaction" dir lc in
          Live_corpus.close lc;
          (match Check.check_live dir with
          | [], _ -> ()
          | issues, _ ->
            QCheck.Test.fail_reportf "check after the final compaction:\n%s"
              (String.concat "\n" (List.map Check.issue_to_string issues)));
          true))

let suites =
  [
    ( "oracle.constructors",
      List.map QCheck_alcotest.to_alcotest [ prop_constructors_agree ]
      @ [ Alcotest.test_case "snapshot analysis = build analysis" `Quick test_analyses_agree ] );
    "oracle.live", List.map QCheck_alcotest.to_alcotest [ prop_live_agrees ];
  ]
