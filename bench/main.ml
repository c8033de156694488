(* eXtract benchmark harness.

   Each experiment (E1..E10) regenerates one table/figure of the evaluation
   reconstructed in DESIGN.md §6. Every experiment has a Bechamel kernel
   (Test.make / Test.make_indexed); OLS estimates over the monotonic clock
   give the reported times. Non-timing tables (dataset statistics, snippet
   quality, ranking quality) are computed directly.

   Run with: dune exec bench/main.exe            (full run)
             dune exec bench/main.exe -- quick   (lower measurement quota) *)

open Bechamel
open Toolkit
module Table = Extract_util.Table
module Document = Extract_store.Document
module Doc_stats = Extract_store.Doc_stats
module Node_kind = Extract_store.Node_kind
module Inverted_index = Extract_store.Inverted_index
module Dataguide = Extract_store.Dataguide
module Key_miner = Extract_store.Key_miner
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Feature = Extract_snippet.Feature
module Ilist = Extract_snippet.Ilist
module Selector = Extract_snippet.Selector
module Optimal = Extract_snippet.Optimal
module Snippet_tree = Extract_snippet.Snippet_tree
module Text_baseline = Extract_snippet.Text_baseline
module Naive_baseline = Extract_snippet.Naive_baseline
module Datagen = Extract_datagen
module Registry = Extract_obs.Registry

let quick = Array.exists (fun a -> a = "quick") Sys.argv

(* --json: run only the hotpath experiment (E20) and write its results to
   BENCH_hotpath.json — machine-readable, so successive PRs can track the
   perf trajectory; validated by test/bench_json.t. *)
let json_mode = Array.exists (fun a -> a = "--json") Sys.argv

(* --floor=PATH: compare the measured end-to-end mean against a checked-in
   floor file (bench/hotpath_floor.json) and exit 1 on a >3x regression.
   CI runs the quick --json workload under this gate. *)
let floor_path =
  Array.fold_left
    (fun acc a ->
      let prefix = "--floor=" in
      let plen = String.length prefix in
      if String.length a > plen && String.sub a 0 plen = prefix then
        Some (String.sub a plen (String.length a - plen))
      else acc)
    None Sys.argv

let quota_seconds = if quick then 0.05 else 0.25

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)

(* OLS estimate (ns/run) of the monotonic clock for each test in a grouped
   Bechamel benchmark. *)
let bechamel_run (tests : Test.t) : (string * float) list =
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second quota_seconds)
      ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> acc)
    results []

let ns_to_string ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let lookup_ns results name =
  match List.assoc_opt name results with
  | Some ns -> ns
  | None -> nan

(* Direct wall-clock timing for macro steps (document builds, component
   breakdowns) where Bechamel's repetition model is too heavy. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  x, (t1 -. t0) *. 1e9

(* Total accessors: the bench harness builds its own inputs, so an empty
   list or a missing option is a harness bug — fail with a message instead
   of a bare Failure from the partial stdlib accessors. *)
let hd_exn = function
  | x :: _ -> x
  | [] -> invalid_arg "bench: empty list"

let nth_exn l k =
  match List.nth_opt l k with
  | Some x -> x
  | None -> invalid_arg "bench: list index out of range"

let get_exn = function
  | Some x -> x
  | None -> invalid_arg "bench: unexpected None"

let time_median ~repeat f =
  let samples =
    List.init repeat (fun _ ->
        let _, ns = time_once f in
        ns)
    |> List.sort Float.compare
  in
  nth_exn samples (List.length samples / 2)

let mean xs =
  if xs = [] then 0.0 else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)

(* ------------------------------------------------------------------ *)
(* Shared data                                                         *)

let datasets =
  lazy
    [
      "retail", Pipeline.build (Document.of_document (Datagen.Retail.generate Datagen.Retail.default));
      "movies", Pipeline.build (Document.of_document (Datagen.Movies.generate Datagen.Movies.default));
      "auction", Pipeline.build (Document.of_document (Datagen.Auction.generate Datagen.Auction.default));
      "bib", Pipeline.build (Document.of_document (Datagen.Bib.generate Datagen.Bib.default));
      "courses", Pipeline.build (Document.of_document (Datagen.Courses.generate Datagen.Courses.default));
    ]

let workload_for db ~n ~seed =
  Datagen.Workload.generate
    { Datagen.Workload.default with Datagen.Workload.queries = n; seed }
    (Pipeline.kinds db)

(* The largest result of a query, as the representative snippet workload. *)
let biggest_result db query =
  match
    Pipeline.search db query
    |> List.sort (fun a b -> Int.compare (Result_tree.size b) (Result_tree.size a))
  with
  | r :: _ -> Some r
  | [] -> None

(* ================================================================== *)
(* E1 — dataset statistics (Table 1)                                   *)

let e1 () =
  let t = Table.create ("dataset" :: Doc_stats.header) in
  List.iter
    (fun (name, db) ->
      let stats = Doc_stats.compute (Pipeline.kinds db) in
      Table.add_row t (name :: Doc_stats.to_row stats))
    (Lazy.force datasets);
  Table.print ~title:"E1 (Table 1) — dataset statistics" t

(* Bechamel kernel for E1: the Data Analyzer (classification) itself. *)
let e1_kernel =
  Test.make ~name:"e1_data_analyzer"
    (Staged.stage (fun () ->
         let _, db = hd_exn (Lazy.force datasets) in
         Node_kind.of_document (Pipeline.document db)))

(* ================================================================== *)
(* E2 (Fig. A) — snippet generation time vs query result size          *)

let e2_sizes = if quick then [ 5; 20; 80 ] else [ 5; 10; 20; 40; 80; 160 ]

let e2_scenarios =
  lazy
    (List.map
       (fun clothes_per_store ->
         let cfg =
           { Datagen.Retail.default with Datagen.Retail.retailers = 2; clothes_per_store }
         in
         let db = Pipeline.build (Document.of_document (Datagen.Retail.generate cfg)) in
         let result = get_exn (biggest_result db "apparel retailer") in
         clothes_per_store, db, result)
       e2_sizes)

let e2_kernel =
  Test.make_indexed ~name:"e2_snippet_vs_result_size" ~fmt:"%s:%d"
    ~args:(List.init (List.length e2_sizes) Fun.id) (fun i ->
      Staged.stage (fun () ->
          let _, db, result = nth_exn (Lazy.force e2_scenarios) i in
          Pipeline.snippet_of ~bound:10 db result (Query.of_string "apparel retailer")))

let e2 results =
  let t = Table.create [ "clothes/store"; "result nodes"; "result elements"; "snippet time" ] in
  List.iteri
    (fun i (cps, _, result) ->
      let ns = lookup_ns results (Printf.sprintf "e2_snippet_vs_result_size:%d" i) in
      Table.add_row t
        [
          string_of_int cps;
          string_of_int (Result_tree.size result);
          string_of_int (Result_tree.element_size result);
          ns_to_string ns;
        ])
    (Lazy.force e2_scenarios);
  Table.print ~title:"E2 (Fig. A) — snippet generation time vs result size (bound 10)" t

(* ================================================================== *)
(* E3 (Fig. B) — snippet generation time vs size bound                 *)

let e3_bounds = if quick then [ 4; 16; 64 ] else [ 2; 4; 8; 16; 32; 64 ]

let e3_setup =
  lazy
    (let _, db, result = nth_exn (Lazy.force e2_scenarios) (List.length e2_sizes - 1) in
     db, result)

let e3_kernel =
  Test.make_indexed ~name:"e3_snippet_vs_bound" ~fmt:"%s:%d" ~args:e3_bounds (fun bound ->
      Staged.stage (fun () ->
          let db, result = Lazy.force e3_setup in
          Pipeline.snippet_of ~bound db result (Query.of_string "apparel retailer")))

let e3 results =
  let db, result = Lazy.force e3_setup in
  let query = Query.of_string "apparel retailer" in
  let t = Table.create [ "bound (edges)"; "covered items"; "edges used"; "time" ] in
  List.iter
    (fun bound ->
      let out = Pipeline.snippet_of ~bound db result query in
      let ns = lookup_ns results (Printf.sprintf "e3_snippet_vs_bound:%d" bound) in
      Table.add_row t
        [
          string_of_int bound;
          Printf.sprintf "%d/%d" (Selector.covered_count out.Pipeline.selection)
            (Ilist.length out.Pipeline.ilist);
          string_of_int (Snippet_tree.edge_count out.Pipeline.selection.Selector.snippet);
          ns_to_string ns;
        ])
    e3_bounds;
  Table.print
    ~title:
      (Printf.sprintf
         "E3 (Fig. B) — time and coverage vs snippet size bound (result: %d nodes)"
         (Result_tree.size result))
    t

(* ================================================================== *)
(* E4 (Fig. C) — feature analysis time vs number of distinct features  *)

let e4_pools = if quick then [ 2; 8 ] else [ 2; 4; 6; 8; 11 ]

let e4_scenarios =
  lazy
    (List.map
       (fun category_pool ->
         let cfg =
           {
             Datagen.Retail.default with
             Datagen.Retail.retailers = 1;
             stores_per_retailer = 12;
             clothes_per_store = 40;
             category_pool;
             city_pool = min category_pool 6;
             value_skew = 0.3;
           }
         in
         let db = Pipeline.build (Document.of_document (Datagen.Retail.generate cfg)) in
         let result = get_exn (biggest_result db "apparel retailer") in
         let kinds = Pipeline.kinds db in
         category_pool, kinds, result)
       e4_pools)

let e4_kernel =
  Test.make_indexed ~name:"e4_features" ~fmt:"%s:%d"
    ~args:(List.init (List.length e4_pools) Fun.id) (fun i ->
      Staged.stage (fun () ->
          let _, kinds, result = nth_exn (Lazy.force e4_scenarios) i in
          Feature.analyze kinds result))

let e4 results =
  let t =
    Table.create [ "category pool"; "distinct features"; "feature types"; "dominant"; "time" ]
  in
  List.iteri
    (fun i (pool, kinds, result) ->
      let a = Feature.analyze kinds result in
      let ns = lookup_ns results (Printf.sprintf "e4_features:%d" i) in
      Table.add_row t
        [
          string_of_int pool;
          string_of_int (Feature.feature_count a);
          string_of_int (Feature.type_count a);
          string_of_int (List.length (Feature.dominant a));
          ns_to_string ns;
        ])
    (Lazy.force e4_scenarios);
  Table.print ~title:"E4 (Fig. C) — dominant-feature identification vs distinct features" t

(* ================================================================== *)
(* E5 (Fig. D) — greedy vs optimal instance selection                  *)

let e5_bounds = if quick then [ 4; 8 ] else [ 2; 4; 6; 8; 10; 12 ]

let e5_setup =
  lazy
    (let cfg =
       {
         Datagen.Retail.default with
         Datagen.Retail.retailers = 2;
         stores_per_retailer = 3;
         clothes_per_store = 3;
       }
     in
     let db = Pipeline.build (Document.of_document (Datagen.Retail.generate cfg)) in
     let result = get_exn (biggest_result db "apparel retailer") in
     let ilist = Pipeline.ilist_of db result (Query.of_string "apparel retailer") in
     result, ilist)

let e5_greedy_kernel =
  Test.make ~name:"e5_greedy"
    (Staged.stage (fun () ->
         let result, ilist = Lazy.force e5_setup in
         Selector.greedy ~bound:8 result ilist))

let e5_optimal_kernel =
  Test.make ~name:"e5_optimal"
    (Staged.stage (fun () ->
         let result, ilist = Lazy.force e5_setup in
         Optimal.solve ~max_steps:200_000 ~bound:8 result ilist))

let e5 results =
  let result, ilist = Lazy.force e5_setup in
  let t =
    Table.create
      [ "bound"; "strict-prefix"; "greedy covered"; "optimal covered"; "ratio";
        "optimal exact"; "steps" ]
  in
  List.iter
    (fun bound ->
      let strict = Selector.greedy ~skip_overflow:false ~bound result ilist in
      let g = Selector.greedy ~bound result ilist in
      let o = Optimal.solve ~max_steps:2_000_000 ~bound result ilist in
      let gc = Selector.covered_count g and oc = Selector.covered_count o.Optimal.selection in
      Table.add_row t
        [
          string_of_int bound;
          string_of_int (Selector.covered_count strict);
          string_of_int gc;
          string_of_int oc;
          (if oc = 0 then "1.00" else Printf.sprintf "%.2f" (float_of_int gc /. float_of_int oc));
          (if o.Optimal.exact then "yes" else "no");
          string_of_int o.Optimal.steps;
        ])
    e5_bounds;
  Table.print
    ~title:
      (Printf.sprintf
         "E5 (Fig. D) — greedy vs exact selection (IList %d items; greedy %s, optimal %s at bound 8)"
         (Ilist.length ilist)
         (ns_to_string (lookup_ns results "e5_greedy"))
         (ns_to_string (lookup_ns results "e5_optimal")))
    t

(* ================================================================== *)
(* E6 (Fig. E) — component time breakdown (the Fig. 4 architecture)    *)

let e6 () =
  let t =
    Table.create
      [ "dataset"; "parse+load"; "classify"; "mine keys"; "build index"; "search"; "ilist";
        "select" ]
  in
  let repeat = if quick then 3 else 7 in
  List.iter
    (fun (name, gen) ->
      let xml = Extract_xml.Printer.document_to_string (gen ()) in
      let parse_ns = time_median ~repeat (fun () -> Document.load_string xml) in
      let doc = Document.load_string xml in
      let classify_ns = time_median ~repeat (fun () -> Node_kind.of_document doc) in
      let kinds = Node_kind.of_document doc in
      let keys_ns = time_median ~repeat (fun () -> Key_miner.mine kinds) in
      let keys = Key_miner.mine kinds in
      let index_ns = time_median ~repeat (fun () -> Inverted_index.build doc) in
      let index = Inverted_index.build doc in
      let queries = Datagen.Workload.generate Datagen.Workload.default kinds in
      let query = Query.of_string (hd_exn queries) in
      let search_ns = time_median ~repeat (fun () -> Engine.run index kinds query) in
      match Engine.run index kinds query with
      | [] -> ()
      | result :: _ ->
        let ilist_ns =
          time_median ~repeat (fun () -> Ilist.build kinds keys index result query)
        in
        let ilist = Ilist.build kinds keys index result query in
        let select_ns = time_median ~repeat (fun () -> Selector.greedy ~bound:10 result ilist) in
        Table.add_row t
          (name
          :: List.map ns_to_string
               [ parse_ns; classify_ns; keys_ns; index_ns; search_ns; ilist_ns; select_ns ]))
    [
      "retail", (fun () -> Datagen.Retail.generate Datagen.Retail.default);
      "movies", (fun () -> Datagen.Movies.generate Datagen.Movies.default);
      "auction", (fun () -> Datagen.Auction.generate Datagen.Auction.default);
      "bib", (fun () -> Datagen.Bib.generate Datagen.Bib.default);
      "courses", (fun () -> Datagen.Courses.generate Datagen.Courses.default);
    ];
  Table.print ~title:"E6 (Fig. E) — per-component time breakdown (medians)" t

let e6_kernel =
  Test.make ~name:"e6_full_pipeline"
    (Staged.stage (fun () ->
         let _, db = hd_exn (Lazy.force datasets) in
         Pipeline.run ~bound:10 ~limit:3 db "apparel retailer"))

(* ================================================================== *)
(* E7 (Fig. F) — index build vs document size                          *)

let e7_sizes = if quick then [ 500; 2000 ] else [ 500; 1000; 2000; 4000; 8000 ]

let e7 () =
  let t =
    Table.create
      [ "target clothes"; "doc nodes"; "build time"; "tokens"; "postings"; "ns/node" ]
  in
  let repeat = if quick then 3 else 5 in
  List.iter
    (fun n ->
      let doc = Document.of_document (Datagen.Retail.scaled n) in
      let build_ns = time_median ~repeat (fun () -> Inverted_index.build doc) in
      let idx = Inverted_index.build doc in
      Table.add_row t
        [
          string_of_int n;
          string_of_int (Document.node_count doc);
          ns_to_string build_ns;
          string_of_int (Inverted_index.token_count idx);
          string_of_int (Inverted_index.postings_size idx);
          Printf.sprintf "%.0f" (build_ns /. float_of_int (Document.node_count doc));
        ])
    e7_sizes;
  Table.print ~title:"E7 (Fig. F) — index build cost vs document size" t

let e7_kernel =
  Test.make ~name:"e7_index_build"
    (Staged.stage
       (let doc = lazy (Document.of_document (Datagen.Retail.scaled 1000)) in
        fun () -> Inverted_index.build (Lazy.force doc)))

(* ================================================================== *)
(* E8 (Table 2) — snippet quality vs baselines                         *)

type quality = {
  mutable n : int;
  mutable kw : float;       (* query keyword coverage *)
  mutable entities : float; (* entity-name coverage *)
  mutable key : float;      (* result key shown *)
  mutable features : float; (* top-3 dominant feature coverage *)
  mutable ilist : float;    (* overall IList coverage, the optimized metric *)
  mutable weighted : float; (* rank-weighted IList coverage (DCG-style) *)
}

let fresh_quality () =
  { n = 0; kw = 0.0; entities = 0.0; key = 0.0; features = 0.0; ilist = 0.0; weighted = 0.0 }

let quality_row name q =
  [
    name;
    pct (q.kw /. float_of_int (max q.n 1));
    pct (q.entities /. float_of_int (max q.n 1));
    pct (q.key /. float_of_int (max q.n 1));
    pct (q.features /. float_of_int (max q.n 1));
    pct (q.ilist /. float_of_int (max q.n 1));
    pct (q.weighted /. float_of_int (max q.n 1));
  ]

(* Coverage is computed by the library itself (Extract_snippet.Metrics),
   so the benches score exactly what the public API reports. *)
let tree_snippet_tokens db snippet = Extract_snippet.Metrics.snippet_tokens db snippet

let accumulate_quality q ~tokens ~ilist =
  let c = Extract_snippet.Metrics.coverage ~tokens ilist in
  q.n <- q.n + 1;
  q.kw <- q.kw +. c.Extract_snippet.Metrics.keywords;
  q.entities <- q.entities +. c.Extract_snippet.Metrics.entity_names;
  q.key <- q.key +. c.Extract_snippet.Metrics.result_key;
  q.features <- q.features +. c.Extract_snippet.Metrics.features;
  q.ilist <- q.ilist +. c.Extract_snippet.Metrics.all_items;
  q.weighted <- q.weighted +. c.Extract_snippet.Metrics.rank_weighted

let e8_bound = 6

let e8 () =
  let extract_q = fresh_quality () in
  let text_q = fresh_quality () in
  let naive_q = fresh_quality () in
  List.iter
    (fun (_, db) ->
      let queries = workload_for db ~n:(if quick then 4 else 12) ~seed:5 in
      List.iter
        (fun qs ->
          let query = Query.of_string qs in
          List.iter
            (fun (r : Pipeline.snippet_result) ->
              (* small results fit in any snippet and say nothing about
                 selection quality; evaluate on results that must be cut *)
              if Result_tree.element_size r.Pipeline.result - 1 > 2 * e8_bound then begin
              let ilist = r.Pipeline.ilist in
              accumulate_quality extract_q
                ~tokens:(tree_snippet_tokens db r.Pipeline.selection.Selector.snippet)
                ~ilist;
              let text =
                Text_baseline.generate
                  ~window_tokens:(Text_baseline.window_for_bound e8_bound)
                  r.Pipeline.result query
              in
              accumulate_quality text_q ~tokens:text.Text_baseline.window ~ilist;
              let naive = Naive_baseline.generate ~bound:e8_bound r.Pipeline.result in
              accumulate_quality naive_q ~tokens:(tree_snippet_tokens db naive) ~ilist
              end)
            (Pipeline.run ~bound:e8_bound ~limit:3 db qs))
        queries)
    (Lazy.force datasets);
  let t =
    Table.create
      [ "system"; "keywords"; "entity names"; "result key"; "top-3 features";
        "all IList items"; "rank-weighted" ]
  in
  Table.add_row t (quality_row "eXtract" extract_q);
  Table.add_row t (quality_row "text window (Google Desktop)" text_q);
  Table.add_row t (quality_row "naive truncation" naive_q);
  Table.print
    ~title:
      (Printf.sprintf
         "E8 (Table 2) — information captured within equal budget (bound %d / %d tokens; %d results)"
         e8_bound
         (Text_baseline.window_for_bound e8_bound)
         extract_q.n)
    t

let e8_kernel =
  Test.make ~name:"e8_quality_eval"
    (Staged.stage (fun () ->
         let _, db = hd_exn (Lazy.force datasets) in
         match Pipeline.run ~bound:e8_bound ~limit:1 db "apparel retailer" with
         | [ r ] -> ignore (tree_snippet_tokens db r.Pipeline.selection.Selector.snippet)
         | _ -> ()))

(* ================================================================== *)
(* E9 (Fig. G) — orthogonality: snippets on three engines              *)

let e9_kernel =
  Test.make_indexed ~name:"e9_engine" ~fmt:"%s:%d"
    ~args:(List.init (List.length Engine.all_semantics) Fun.id) (fun i ->
      Staged.stage (fun () ->
          let semantics = nth_exn Engine.all_semantics i in
          let _, db = hd_exn (Lazy.force datasets) in
          Pipeline.run ~semantics ~bound:8 ~limit:5 db "apparel retailer"))

let e9 results =
  let t =
    Table.create
      [ "engine"; "results"; "mean result nodes"; "mean covered"; "query+snippet time" ]
  in
  let _, db = hd_exn (Lazy.force datasets) in
  List.iteri
    (fun i semantics ->
      let out = Pipeline.run ~semantics ~bound:8 db "apparel retailer" in
      let sizes =
        List.map
          (fun (r : Pipeline.snippet_result) -> float_of_int (Result_tree.size r.Pipeline.result))
          out
      in
      let covered =
        List.map
          (fun (r : Pipeline.snippet_result) ->
            float_of_int (Selector.covered_count r.Pipeline.selection))
          out
      in
      Table.add_row t
        [
          Engine.string_of_semantics semantics;
          string_of_int (List.length out);
          Printf.sprintf "%.0f" (mean sizes);
          Printf.sprintf "%.1f" (mean covered);
          ns_to_string (lookup_ns results (Printf.sprintf "e9_engine:%d" i));
        ])
    Engine.all_semantics;
  Table.print ~title:"E9 (Fig. G) — snippet generation on top of four search engines" t

(* ================================================================== *)
(* E10 (Table 3) — dominance score vs raw frequency ranking            *)

(* Ground truth: a feature "strongly leads" its type when its dominance
   score is at least 1.5 (share 1.5x the type average) and the type has at
   least two values. The paper's argument is that raw frequency misses such
   leaders in low-occurrence types (Houston vs children, §2.3). *)
let e10 () =
  let k = 5 in
  let ds_recall = ref [] and freq_recall = ref [] in
  let type_div_ds = ref [] and type_div_fr = ref [] in
  List.iter
    (fun (_, db) ->
      let queries = workload_for db ~n:(if quick then 4 else 30) ~seed:41 in
      List.iter
        (fun qs ->
          List.iter
            (fun (r : Pipeline.snippet_result) ->
              if Result_tree.element_size r.Pipeline.result >= 20 then begin
              let analysis = Feature.analyze (Pipeline.kinds db) r.Pipeline.result in
              let all = Feature.all analysis in
              let truth =
                List.filter
                  (fun ((_ : Feature.t), (s : Feature.stats)) ->
                    s.Feature.domain_size >= 2 && s.Feature.score >= 1.5)
                  all
                |> List.map fst
              in
              if truth <> [] then begin
                let top_by f =
                  List.sort (fun a b -> Float.compare (f b) (f a)) all
                  |> List.filteri (fun i _ -> i < k)
                  |> List.map fst
                in
                let top_ds = top_by (fun ((_ : Feature.t), (s : Feature.stats)) -> s.Feature.score) in
                let top_freq =
                  top_by (fun ((_ : Feature.t), (s : Feature.stats)) ->
                      float_of_int s.Feature.occurrences)
                in
                let recall top =
                  float_of_int (List.length (List.filter (fun f -> List.mem f top) truth))
                  /. float_of_int (min k (List.length truth))
                in
                let diversity top =
                  List.map (fun (f : Feature.t) -> f.Feature.entity, f.Feature.attribute) top
                  |> List.sort_uniq (fun (ea, aa) (eb, ab) ->
                         let c = String.compare ea eb in
                         if c <> 0 then c else String.compare aa ab)
                  |> List.length |> float_of_int
                in
                ds_recall := recall top_ds :: !ds_recall;
                freq_recall := recall top_freq :: !freq_recall;
                type_div_ds := diversity top_ds :: !type_div_ds;
                type_div_fr := diversity top_freq :: !type_div_fr
              end
              end)
            (Pipeline.run ~bound:8 ~limit:2 db qs))
        queries)
    (Lazy.force datasets);
  let t = Table.create [ "ranking"; "recall@5 of type leaders"; "feature types in top-5" ] in
  Table.add_row t
    [
      "dominance score (eXtract)";
      pct (mean !ds_recall);
      Printf.sprintf "%.1f" (mean !type_div_ds);
    ];
  Table.add_row t
    [ "raw frequency"; pct (mean !freq_recall); Printf.sprintf "%.1f" (mean !type_div_fr) ];
  Table.print
    ~title:
      (Printf.sprintf "E10 (Table 3) — feature ranking quality (%d results with leaders)"
         (List.length !ds_recall))
    t

let e10_kernel =
  Test.make ~name:"e10_rankings"
    (Staged.stage (fun () ->
         let _, db = hd_exn (Lazy.force datasets) in
         match Pipeline.search ~limit:1 db "apparel retailer" with
         | [ r ] -> ignore (Feature.dominant (Feature.analyze (Pipeline.kinds db) r))
         | _ -> ()))


(* ================================================================== *)
(* E11 (Table 4) — goal ablation: what each IList goal contributes     *)

(* Snippets built under ablated configurations, measured against the full
   configuration's IList (the reference information-need). *)
let e11_configs =
  [
    "full (paper)", Extract_snippet.Config.default;
    "no entity names",
    { Extract_snippet.Config.default with Extract_snippet.Config.include_entity_names = false };
    "no result key",
    { Extract_snippet.Config.default with Extract_snippet.Config.include_result_key = false };
    "no features",
    { Extract_snippet.Config.default with Extract_snippet.Config.include_features = false };
    "keywords only", Extract_snippet.Config.keywords_only;
  ]

let e11 () =
  let per_config = List.map (fun (name, _) -> name, fresh_quality ()) e11_configs in
  List.iter
    (fun (_, db) ->
      let queries = workload_for db ~n:(if quick then 4 else 10) ~seed:5 in
      List.iter
        (fun qs ->
          let query = Query.of_string qs in
          List.iter
            (fun result ->
              if Result_tree.element_size result - 1 > 2 * e8_bound then begin
                let reference = Pipeline.ilist_of db result query in
                List.iter2
                  (fun (_, config) (_, q) ->
                    let out = Pipeline.snippet_of ~config ~bound:e8_bound db result query in
                    accumulate_quality q
                      ~tokens:(tree_snippet_tokens db out.Pipeline.selection.Selector.snippet)
                      ~ilist:reference)
                  e11_configs per_config
              end)
            (Pipeline.search ~limit:3 db qs))
        queries)
    (Lazy.force datasets);
  let t =
    Table.create
      [ "configuration"; "keywords"; "entity names"; "result key"; "top-3 features";
        "all IList items"; "rank-weighted" ]
  in
  List.iter (fun (name, q) -> Table.add_row t (quality_row name q)) per_config;
  Table.print
    ~title:
      (Printf.sprintf
         "E11 (Table 4) — goal ablation vs the full IList targets (bound %d; %d results)"
         e8_bound
         (snd (hd_exn per_config)).n)
    t

let e11_kernel =
  Test.make ~name:"e11_ablation"
    (Staged.stage (fun () ->
         let _, db = hd_exn (Lazy.force datasets) in
         Pipeline.run ~config:Extract_snippet.Config.keywords_only ~bound:e8_bound ~limit:1 db
           "apparel retailer"))

(* ================================================================== *)
(* E12 (Table 5) — feature-ordering ablation                           *)

(* For each ordering, what do the features that actually reach the snippet
   look like: how many fit, how query-related (affinity), how
   distinguishing (cross-result distinctiveness)? *)
let e12_bound = 12

(* Purpose-built queries over the retail data: the retailer's name token
   plus the rarest city among its stores. The result is the full retailer
   subtree (large), and only a minority of its stores are "hot", so
   affinity and distinctiveness genuinely vary across orderings. *)
let e12_queries db ~n =
  let doc = Pipeline.document db in
  let guide = Pipeline.dataguide db in
  match Dataguide.find_path guide [ "retailers"; "retailer" ] with
  | None -> []
  | Some retailer_path ->
    Dataguide.instances guide retailer_path
    |> List.filter_map (fun retailer ->
           let child_value tag node =
             Document.children doc node
             |> List.find_map (fun c ->
                    if Document.is_element doc c && Document.tag_name doc c = tag then
                      Some (String.trim (Document.immediate_text doc c))
                    else None)
           in
           match child_value "name" retailer with
           | None -> None
           | Some name -> begin
             let name_token =
               match Extract_store.Tokenizer.tokens name with
               | t :: _ -> t
               | [] -> ""
             in
             (* city histogram over this retailer's stores *)
             let cities = Hashtbl.create 8 in
             Document.iter_children doc retailer (fun store ->
                 if Document.is_element doc store && Document.tag_name doc store = "store"
                 then
                   match child_value "city" store with
                   | Some city ->
                     Hashtbl.replace cities city
                       (1 + Option.value ~default:0 (Hashtbl.find_opt cities city))
                   | None -> ());
             let rarest =
               Hashtbl.fold
                 (fun city count best ->
                   match best with
                   | Some (_, c) when c <= count -> best
                   | _ -> Some (city, count))
                 cities None
             in
             ignore name_token;
             (* "<city> apparel": every retailer with a store in that city
                yields one large result, so several results compete and
                cross-result distinctiveness varies too *)
             match rarest with
             | Some (city, _) -> Some (Printf.sprintf "%s apparel" city)
             | None -> None
           end)
    |> List.sort_uniq String.compare
    |> List.filteri (fun i _ -> i < n)

let e12 () =
  let orderings =
    [
      "dominance (paper)", `Config Extract_snippet.Config.By_dominance;
      "raw frequency", `Config Extract_snippet.Config.By_frequency;
      "query-biased", `Config Extract_snippet.Config.Query_biased;
      "differentiated", `Differentiated;
    ]
  in
  let t =
    Table.create [ "ordering"; "features in snippet"; "mean affinity"; "mean distinctiveness" ]
  in
  List.iter
    (fun (name, mode) ->
      let counts = ref [] and affinities = ref [] and distinct = ref [] in
      List.iter
        (fun (_, db) ->
          let queries = e12_queries db ~n:(if quick then 3 else 8) in
          List.iter
            (fun qs ->
              let query = Query.of_string qs in
              let snippet_results =
                match mode with
                | `Config order ->
                  let config =
                    { Extract_snippet.Config.default with Extract_snippet.Config.feature_order = order }
                  in
                  Pipeline.run ~config ~bound:e12_bound ~limit:2 db qs
                | `Differentiated ->
                  Pipeline.run_differentiated ~bound:e12_bound ~limit:2 db qs
              in
              let all_results = Pipeline.search db qs in
              let analyses = List.map (Feature.analyze (Pipeline.kinds db)) all_results in
              let differ = Extract_snippet.Differentiator.make analyses in
              List.iter
                (fun (r : Pipeline.snippet_result) ->
                  if Result_tree.element_size r.Pipeline.result - 1 > 2 * e12_bound then begin
                    let analysis = Feature.analyze (Pipeline.kinds db) r.Pipeline.result in
                    let bias =
                      Extract_snippet.Query_bias.make (Pipeline.kinds db) (Pipeline.index db)
                        r.Pipeline.result query
                    in
                    let covered_features =
                      List.filter_map
                        (fun (c : Selector.covered) ->
                          match c.Selector.entry.Ilist.item with
                          | Ilist.Dominant_feature (f, _) -> Some f
                          | _ -> None)
                        r.Pipeline.selection.Selector.covered
                    in
                    counts := float_of_int (List.length covered_features) :: !counts;
                    List.iter
                      (fun f ->
                        affinities := Extract_snippet.Query_bias.affinity bias analysis f :: !affinities;
                        distinct := Extract_snippet.Differentiator.distinctiveness differ f :: !distinct)
                      covered_features
                  end)
                snippet_results)
            queries)
        [ hd_exn (Lazy.force datasets) ];
      Table.add_row t
        [
          name;
          Printf.sprintf "%.2f" (mean !counts);
          Printf.sprintf "%.2f" (mean !affinities);
          Printf.sprintf "%.2f" (mean !distinct);
        ])
    orderings;
  Table.print
    ~title:
      (Printf.sprintf "E12 (Table 5) — feature-ordering ablation (bound %d, city+product queries)" e12_bound)
    t

let e12_kernel =
  Test.make ~name:"e12_orderings"
    (Staged.stage (fun () ->
         let _, db = hd_exn (Lazy.force datasets) in
         Pipeline.run_differentiated ~bound:e8_bound ~limit:1 db "apparel retailer"))

(* ================================================================== *)
(* E14 (Table 6) — simulated user study                                *)

(* The demo's claim (§3/§4): "the user can easily judge whether a query
   result is of his/her interest by looking at the concise yet informative
   snippets". Reconstruction: for queries with several results, a simulated
   user wants one specific result and half-remembers it — their information
   need is the target's key value plus two of its attribute values. Shown
   only the snippets of all results (as token sets), the user picks the one
   overlapping their need most (ties -> earlier result, a pessimistic tie
   break for every system alike). Accuracy@1 per snippet system. *)

let e14_need rng db target =
  let doc = Pipeline.document db in
  let keys = Pipeline.keys db in
  let kinds = Pipeline.kinds db in
  let root = Result_tree.root target in
  let key_tokens =
    match Key_miner.key_of_instance keys root with
    | Some (_, v) -> Extract_store.Tokenizer.tokens v
    | None -> []
  in
  let attribute_values =
    Result_tree.members target
    |> Array.to_list
    |> List.filter (fun n ->
           Document.is_element doc n && Extract_store.Node_kind.is_attribute kinds n)
    |> List.map (fun n -> Extract_store.Node_kind.attribute_value kinds n)
    |> List.filter (fun v -> v <> "")
  in
  let sampled =
    match attribute_values with
    | [] -> []
    | vs ->
      let arr = Array.of_list vs in
      Extract_util.Prng.sample rng arr 2
  in
  key_tokens @ List.concat_map Extract_store.Tokenizer.tokens sampled

let e14_pick need snippets_tokens =
  (* index of the snippet with the largest overlap; earlier wins ties *)
  let overlap tokens = List.length (List.filter (fun t -> List.mem t tokens) need) in
  let best = ref 0 and best_score = ref (-1) in
  List.iteri
    (fun i tokens ->
      let s = overlap tokens in
      if s > !best_score then begin
        best := i;
        best_score := s
      end)
    snippets_tokens;
  !best

let e14 () =
  let rng = Extract_util.Prng.create 2026 in
  let trials = ref 0 in
  let correct_extract = ref 0 and correct_text = ref 0 and correct_naive = ref 0 in
  List.iter
    (fun (_, db) ->
      let queries =
        workload_for db ~n:(if quick then 8 else 40) ~seed:77 @ e12_queries db ~n:6
      in
      List.iter
        (fun qs ->
          let query = Query.of_string qs in
          let results = Pipeline.run ~bound:e8_bound ~limit:6 db qs in
          (* the task is only meaningful when the snippets must select:
             every candidate result has to exceed the budget *)
          let all_need_cutting =
            List.for_all
              (fun (r : Pipeline.snippet_result) ->
                Result_tree.element_size r.Pipeline.result - 1 > 2 * e8_bound)
              results
          in
          if List.length results >= 3 && all_need_cutting then begin
            let target_index = Extract_util.Prng.int rng (List.length results) in
            let target = (nth_exn results target_index).Pipeline.result in
            let need = e14_need rng db target in
            if need <> [] then begin
              incr trials;
              let extract_tokens =
                List.map
                  (fun (r : Pipeline.snippet_result) ->
                    tree_snippet_tokens db r.Pipeline.selection.Selector.snippet)
                  results
              in
              let text_tokens =
                List.map
                  (fun (r : Pipeline.snippet_result) ->
                    (Text_baseline.generate
                       ~window_tokens:(Text_baseline.window_for_bound e8_bound)
                       r.Pipeline.result query)
                      .Text_baseline.window)
                  results
              in
              let naive_tokens =
                List.map
                  (fun (r : Pipeline.snippet_result) ->
                    tree_snippet_tokens db
                      (Naive_baseline.generate ~bound:e8_bound r.Pipeline.result))
                  results
              in
              if e14_pick need extract_tokens = target_index then incr correct_extract;
              if e14_pick need text_tokens = target_index then incr correct_text;
              if e14_pick need naive_tokens = target_index then incr correct_naive
            end
          end)
        queries)
    (Lazy.force datasets);
  let t = Table.create [ "system"; "accuracy@1"; "trials" ] in
  let row name correct =
    [ name; pct (float_of_int correct /. float_of_int (max 1 !trials)); string_of_int !trials ]
  in
  Table.add_row t (row "eXtract" !correct_extract);
  Table.add_row t (row "text window (Google Desktop)" !correct_text);
  Table.add_row t (row "naive truncation" !correct_naive);
  Table.print
    ~title:
      (Printf.sprintf
         "E14 (Table 6) — simulated user study: pick the intended result from snippets (bound %d)"
         e8_bound)
    t

let e14_kernel =
  Test.make ~name:"e14_user_pick"
    (Staged.stage (fun () ->
         let _, db = hd_exn (Lazy.force datasets) in
         let results = Pipeline.run ~bound:e8_bound ~limit:4 db "apparel retailer" in
         let tokens =
           List.map
             (fun (r : Pipeline.snippet_result) ->
               tree_snippet_tokens db r.Pipeline.selection.Selector.snippet)
             results
         in
         e14_pick [ "brook"; "houston" ] tokens))


(* ================================================================== *)
(* E15 (Fig. I) — ingest: the parser's event pass and the arena build   *)

(* What every XML build pays: one fold over the parser's events with a
   no-op callback (the scanner alone), and Document.load_string, which
   folds the same events into the arena. *)
let e15_sizes = if quick then [ 1000 ] else [ 1000; 4000; 16000 ]

let e15 () =
  let t =
    Table.create
      [ "target clothes"; "xml bytes"; "event pass"; "MB/s"; "words/B"; "load_string"; "MB/s";
        "words/B" ]
  in
  let repeat = if quick then 3 else 5 in
  List.iter
    (fun n ->
      let xml = Extract_xml.Printer.document_to_string (Datagen.Retail.scaled n) in
      let bytes = float_of_int (String.length xml) in
      let cells f =
        let ns = time_median ~repeat f in
        let before = Gc.minor_words () in
        ignore (f ());
        let words = Gc.minor_words () -. before in
        [ ns_to_string ns; Printf.sprintf "%.0f" (bytes /. ns *. 1e3);
          Printf.sprintf "%.2f" (words /. bytes) ]
      in
      Table.add_row t
        ((string_of_int n :: string_of_int (String.length xml)
         :: cells (fun () -> Extract_xml.Parser.fold_document xml ~init:() ~f:(fun () _ -> ())))
        @ cells (fun () -> Document.load_string xml)))
    e15_sizes;
  Table.print ~title:"E15 (Fig. I) — ingest: parser event pass and Document.load_string" t

let e15_kernel =
  Test.make ~name:"e15_load_string"
    (Staged.stage
       (let xml =
          lazy (Extract_xml.Printer.document_to_string (Datagen.Retail.scaled 1000))
        in
        fun () -> Document.load_string (Lazy.force xml)))


(* ================================================================== *)
(* E16 (Fig. J) — SLCA: indexed merge vs exhaustive subtree counting    *)

(* The point of the Xu–Papakonstantinou merge: cost follows the posting
   lists, not the document. The exhaustive reference scans every node per
   keyword. Selective queries on large documents separate the two. *)
let e16_sizes = if quick then [ 2000 ] else [ 2000; 8000; 32000 ]

let e16 () =
  let t =
    Table.create
      [ "target clothes"; "doc nodes"; "postings"; "merge"; "exhaustive"; "speedup" ]
  in
  let repeat = if quick then 3 else 5 in
  List.iter
    (fun n ->
      let doc = Document.of_document (Datagen.Retail.scaled n) in
      let idx = Inverted_index.build doc in
      (* a selective conjunctive query: one store name token + its city *)
      let lists =
        [ Inverted_index.lookup idx "galleria"; Inverted_index.lookup idx "apparel" ]
      in
      let postings = List.fold_left (fun acc l -> acc + Array.length l) 0 lists in
      let merge_ns =
        time_median ~repeat (fun () -> Extract_search.Slca.compute doc lists)
      in
      let scan_ns =
        time_median ~repeat (fun () -> Extract_search.Lca.slca_reference doc lists)
      in
      Table.add_row t
        [
          string_of_int n;
          string_of_int (Document.node_count doc);
          string_of_int postings;
          ns_to_string merge_ns;
          ns_to_string scan_ns;
          Printf.sprintf "%.1fx" (scan_ns /. merge_ns);
        ])
    e16_sizes;
  Table.print
    ~title:"E16 (Fig. J) — SLCA computation: indexed-lookup merge vs exhaustive scan"
    t

let e16_kernel =
  Test.make ~name:"e16_slca_merge"
    (Staged.stage
       (let setup =
          lazy
            (let doc = Document.of_document (Datagen.Retail.scaled 2000) in
             let idx = Inverted_index.build doc in
             doc, [ Inverted_index.lookup idx "galleria"; Inverted_index.lookup idx "apparel" ])
        in
        fun () ->
          let doc, lists = Lazy.force setup in
          Extract_search.Slca.compute doc lists))


(* ================================================================== *)
(* E17 (Fig. K) — demo-server page throughput, cache on vs off         *)

let e17 () =
  let corpus =
    Extract_snippet.Corpus.of_list
      [ "retail", snd (hd_exn (Lazy.force datasets)) ]
  in
  (* a small rotating workload: 8 distinct targets, requested repeatedly *)
  let targets =
    List.init 8 (fun i ->
        Printf.sprintf "/search?data=retail&q=apparel+retailer&bound=%d" (4 + i))
  in
  let requests = if quick then 64 else 400 in
  let run_with ~cache_size =
    let server = Extract_server.Demo_server.create ~cache_size corpus in
    let t0 = Unix.gettimeofday () in
    for i = 0 to requests - 1 do
      let target = nth_exn targets (i mod List.length targets) in
      let r = Extract_server.Demo_server.handle server target in
      assert (r.Extract_server.Demo_server.status = 200)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let hits, misses = Extract_server.Demo_server.cache_stats server in
    float_of_int requests /. dt, hits, misses
  in
  (* cache_size 1 with 8 rotating targets never hits: the "off" case *)
  let cold_rps, cold_hits, _ = run_with ~cache_size:1 in
  let warm_rps, warm_hits, warm_misses = run_with ~cache_size:64 in
  let t = Table.create [ "configuration"; "requests/s"; "cache hits"; "cache misses" ] in
  Table.add_row t
    [ "cache disabled (capacity 1)"; Printf.sprintf "%.0f" cold_rps; string_of_int cold_hits; string_of_int requests ];
  Table.add_row t
    [ "page cache (capacity 64)"; Printf.sprintf "%.0f" warm_rps; string_of_int warm_hits; string_of_int warm_misses ];
  Table.print
    ~title:(Printf.sprintf "E17 (Fig. K) — demo-server throughput over %d requests" requests)
    t

let e17_kernel =
  Test.make ~name:"e17_server_handle"
    (Staged.stage
       (let server =
          lazy
            (Extract_server.Demo_server.create
               (Extract_snippet.Corpus.of_list
                  [ "retail", snd (hd_exn (Lazy.force datasets)) ]))
        in
        fun () ->
          Extract_server.Demo_server.handle (Lazy.force server)
            "/search?data=retail&q=apparel+retailer&bound=6"))


(* ================================================================== *)
(* E20 (hotpath) — query hot-path: interval vs linear match restriction,
   limit pushdown, explain overhead and end-to-end latency              *)

type hotpath_measurements = {
  hp_clothes : int;
  hp_nodes : int;
  hp_query : string;
  hp_results : int;
  hp_postings : int;
  hp_linear_ns : float;
  hp_interval_ns : float;
  hp_limit : int;
  hp_full_ns : float;
  hp_limited_ns : float;
  hp_plain_ns : float;
  hp_explain_ns : float;
  hp_e2e_samples : int;
  hp_e2e_mean_ns : float;
  hp_e2e_p50_ns : float;
  hp_e2e_p95_ns : float;
  hp_e2e_p99_ns : float;
}

let hotpath_measure () =
  let clothes = if quick then 2000 else 8000 in
  let doc = Document.of_document (Datagen.Retail.scaled clothes) in
  let db = Pipeline.build doc in
  let query_string = "store apparel" in
  let query = Query.of_string query_string in
  let index = Pipeline.index db in
  let lists = List.map (Inverted_index.lookup index) (Query.keywords query) in
  let postings = List.fold_left (fun acc l -> acc + Array.length l) 0 lists in
  let repeat = if quick then 3 else 7 in
  (* match restriction, old vs new: the pre-overhaul implementation
     filtered the entire posting list per result by membership; the
     current one binary-searches the result's subtree interval *)
  let results = Pipeline.search ~limit:50 db query_string in
  let linear_restrict r arr = Array.to_list arr |> List.filter (Result_tree.mem r) in
  let sweep restrict () =
    List.iter (fun r -> List.iter (fun arr -> ignore (restrict r arr)) lists) results
  in
  let linear_ns = time_median ~repeat (sweep linear_restrict) in
  let interval_ns = time_median ~repeat (sweep Result_tree.restrict_matches) in
  (* limit pushdown: top-10 without materializing every result subtree;
     warm both paths once so first-touch effects don't skew the medians *)
  let limit = 10 in
  let kinds = Pipeline.kinds db in
  ignore (Engine.run index kinds query);
  ignore (Engine.run ~limit index kinds query);
  let full_ns = time_median ~repeat (fun () -> Engine.run index kinds query) in
  let limited_ns = time_median ~repeat (fun () -> Engine.run ~limit index kinds query) in
  (* explain overhead: the same uncached run with ambient capture on and
     the bundle assembled, vs the plain pipeline — the price of --explain *)
  ignore (Pipeline.run ~bound:10 ~limit db query_string);
  ignore (Extract_snippet.Explain.run ~bound:10 ~limit db query_string);
  let plain_ns =
    time_median ~repeat (fun () -> Pipeline.run ~bound:10 ~limit db query_string)
  in
  let explain_ns =
    time_median ~repeat (fun () ->
        Extract_snippet.Explain.run ~bound:10 ~limit db query_string)
  in
  (* end-to-end tail latency: repeated uncached full runs recorded into an
     obs histogram, so the JSON reports p50/p95/p99, not just a mean *)
  let e2e_hist =
    Registry.histogram ~help:"Bench end-to-end run latency in seconds"
      ~labels:[ "experiment", "hotpath" ] "bench_e2e_seconds"
  in
  let e2e_samples = if quick then 40 else 150 in
  ignore (Pipeline.run ~bound:10 ~limit db query_string);
  for _ = 1 to e2e_samples do
    let _, ns = time_once (fun () -> Pipeline.run ~bound:10 ~limit db query_string) in
    Registry.observe e2e_hist (ns /. 1e9)
  done;
  let e2e_count = Registry.histogram_count e2e_hist in
  let e2e_mean_ns =
    if e2e_count = 0 then 0.0
    else Registry.histogram_sum e2e_hist /. float_of_int e2e_count *. 1e9
  in
  let pct q = Registry.percentile e2e_hist q *. 1e9 in
  {
    hp_clothes = clothes;
    hp_nodes = Document.node_count doc;
    hp_query = query_string;
    hp_results = List.length results;
    hp_postings = postings;
    hp_linear_ns = linear_ns;
    hp_interval_ns = interval_ns;
    hp_limit = limit;
    hp_full_ns = full_ns;
    hp_limited_ns = limited_ns;
    hp_plain_ns = plain_ns;
    hp_explain_ns = explain_ns;
    hp_e2e_samples = e2e_count;
    hp_e2e_mean_ns = e2e_mean_ns;
    hp_e2e_p50_ns = pct 0.5;
    hp_e2e_p95_ns = pct 0.95;
    hp_e2e_p99_ns = pct 0.99;
  }

let hotpath_json m =
  let b = Buffer.create 1024 in
  let speedup num den = if den > 0.0 then num /. den else 0.0 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"experiment\": \"hotpath\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"mode\": %S,\n" (if quick then "quick" else "full"));
  Buffer.add_string b
    (Printf.sprintf
       "  \"dataset\": { \"name\": \"retail\", \"target_clothes\": %d, \"nodes\": %d },\n"
       m.hp_clothes m.hp_nodes);
  Buffer.add_string b (Printf.sprintf "  \"query\": %S,\n" m.hp_query);
  Buffer.add_string b
    (Printf.sprintf
       "  \"restriction\": { \"results\": %d, \"postings\": %d, \"linear_ns\": %.0f, \
        \"interval_ns\": %.0f, \"speedup\": %.2f },\n"
       m.hp_results m.hp_postings m.hp_linear_ns m.hp_interval_ns
       (speedup m.hp_linear_ns m.hp_interval_ns));
  Buffer.add_string b
    (Printf.sprintf
       "  \"limit_pushdown\": { \"limit\": %d, \"full_ns\": %.0f, \"limited_ns\": %.0f, \
        \"speedup\": %.2f },\n"
       m.hp_limit m.hp_full_ns m.hp_limited_ns (speedup m.hp_full_ns m.hp_limited_ns));
  Buffer.add_string b
    (Printf.sprintf
       "  \"explain\": { \"plain_ns\": %.0f, \"explain_ns\": %.0f, \"overhead\": %.2f },\n"
       m.hp_plain_ns m.hp_explain_ns (speedup m.hp_explain_ns m.hp_plain_ns));
  Buffer.add_string b
    (Printf.sprintf
       "  \"latency\": { \"samples\": %d, \"e2e_mean_ns\": %.0f, \"e2e_p50_ns\": %.0f, \
        \"e2e_p95_ns\": %.0f, \"e2e_p99_ns\": %.0f }\n"
       m.hp_e2e_samples m.hp_e2e_mean_ns m.hp_e2e_p50_ns m.hp_e2e_p95_ns m.hp_e2e_p99_ns);
  Buffer.add_string b "}\n";
  Buffer.contents b

let e20 () =
  let m = hotpath_measure () in
  let t = Table.create [ "hot-path stage"; "before"; "after"; "speedup" ] in
  Table.add_row t
    [
      Printf.sprintf "match restriction (%d results x %d postings)" m.hp_results
        m.hp_postings;
      ns_to_string m.hp_linear_ns;
      ns_to_string m.hp_interval_ns;
      Printf.sprintf "%.1fx" (m.hp_linear_ns /. m.hp_interval_ns);
    ];
  Table.add_row t
    [
      Printf.sprintf "search, limit %d pushdown" m.hp_limit;
      ns_to_string m.hp_full_ns;
      ns_to_string m.hp_limited_ns;
      Printf.sprintf "%.1fx" (m.hp_full_ns /. m.hp_limited_ns);
    ];
  Table.add_row t
    [
      "explain bundle (plain vs --explain)";
      ns_to_string m.hp_plain_ns;
      ns_to_string m.hp_explain_ns;
      Printf.sprintf "%.2fx" (m.hp_explain_ns /. m.hp_plain_ns);
    ];
  Table.print
    ~title:
      (Printf.sprintf "E20 — query hot-path overhaul (retail scaled %d, %d nodes)"
         m.hp_clothes m.hp_nodes)
    t;
  m

(* Pull one numeric value out of a floor file without a JSON parser:
   locate the quoted key, skip separators, take the longest number
   literal. *)
let parse_floor_key name contents =
  let key = Printf.sprintf "%S" name in
  let klen = String.length key in
  let n = String.length contents in
  let rec find i =
    if i + klen > n then None
    else if String.sub contents i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let i = ref start in
    while !i < n && (contents.[!i] = ':' || contents.[!i] = ' ') do
      incr i
    done;
    let j = ref !i in
    while
      !j < n
      && (match contents.[!j] with '0' .. '9' | '.' | 'e' | '+' | '-' -> true | _ -> false)
    do
      incr j
    done;
    if !j > !i then float_of_string_opt (String.sub contents !i (!j - !i)) else None

let floor_gate m =
  match floor_path with
  | None -> ()
  | Some path ->
    let contents =
      match In_channel.with_open_bin path In_channel.input_all with
      | c -> Some c
      | exception Sys_error msg ->
        Printf.eprintf "floor gate: cannot read %s: %s\n" path msg;
        None
    in
    (match Option.bind contents (parse_floor_key "e2e_mean_ns") with
    | None ->
      Printf.eprintf "floor gate: no \"e2e_mean_ns\" value in %s\n" path;
      exit 1
    | Some floor_mean ->
      let limit = 3.0 *. floor_mean in
      Printf.printf "floor gate: e2e mean %.0f ns, floor %.0f ns, limit (3x) %.0f ns\n"
        m.hp_e2e_mean_ns floor_mean limit;
      if m.hp_e2e_mean_ns > limit then begin
        print_endline "floor gate: FAILED — e2e mean regressed more than 3x over the floor";
        exit 1
      end
      else print_endline "floor gate: ok")

let hotpath_json_main () =
  print_endline "eXtract hotpath benchmark (E20)";
  let m = hotpath_measure () in
  let out = open_out "BENCH_hotpath.json" in
  output_string out (hotpath_json m);
  close_out out;
  print_endline "wrote BENCH_hotpath.json";
  floor_gate m

(* ================================================================== *)

let main () =
  print_endline "eXtract benchmark harness (see DESIGN.md section 6, EXPERIMENTS.md)";
  Printf.printf "mode: %s (quota %.2fs per kernel)\n\n"
    (if quick then "quick" else "full")
    quota_seconds;
  (* force all scenario setup before timing *)
  ignore (Lazy.force datasets);
  ignore (Lazy.force e2_scenarios);
  ignore (Lazy.force e3_setup);
  ignore (Lazy.force e4_scenarios);
  ignore (Lazy.force e5_setup);
  let grouped =
    Test.make_grouped ~name:"extract" ~fmt:"%s/%s"
      [
        e1_kernel; e2_kernel; e3_kernel; e4_kernel; e5_greedy_kernel; e5_optimal_kernel;
        e6_kernel; e7_kernel; e8_kernel; e9_kernel; e10_kernel; e11_kernel; e12_kernel;
        e14_kernel; e15_kernel; e16_kernel; e17_kernel;
      ]
  in
  let results =
    bechamel_run grouped
    |> List.map (fun (name, ns) ->
           let prefix = "extract/" in
           let plain =
             if String.length name > String.length prefix
                && String.sub name 0 (String.length prefix) = prefix
             then String.sub name (String.length prefix) (String.length name - String.length prefix)
             else name
           in
           plain, ns)
  in
  e1 ();
  e2 results;
  e3 results;
  e4 results;
  e5 results;
  e6 ();
  e7 ();
  e8 ();
  e9 results;
  e10 ();
  e11 ();
  e12 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  ignore (e20 ());
  print_endline "done."

(* ================================================================== *)
(* E22 — index scale-out (EXPERIMENTS.md): block-compressed postings
   vs what plain arrays would take, a cold start from XML vs from a
   snapshot, and one sharded query's time per shard count. [index] mode
   runs only this experiment, writes BENCH_index.json and applies the
   two-ratio floor gate CI pins via bench/index_floor.json. *)

let index_mode = Array.exists (fun a -> a = "index") Sys.argv

module Shard_set = Extract_snippet.Shard_set

type index_metrics = {
  ix_clothes : int;
  ix_nodes : int;
  ix_tokens : int;
  ix_plain_bytes : int;
  ix_packed_bytes : int;
  ix_ratio : float;
  ix_pack_ns : float;
  ix_xml_file_bytes : int;
  ix_snapshot_file_bytes : int;
  ix_xml_build_ns : float;
  ix_snapshot_load_ns : float;
  ix_speedup : float;
  ix_shards : (int * float) list; (* shard count, ns per sharded query *)
}

let index_measure () =
  (* ten times the default corpus (8 x 10 x 12 = 960 clothes) *)
  let clothes = if quick then 2_400 else 9_600 in
  let corpus = Datagen.Retail.scaled ~seed:7 clothes in
  let doc = Document.of_document corpus in
  let db = Pipeline.build doc in
  let idx = Pipeline.index db in
  (* every list is packed when the index is built; the baseline is what
     int arrays would take, and pack_ns packs every list again from its
     decoded array *)
  let plain_bytes = Inverted_index.int_array_bytes idx in
  let packed_bytes = Inverted_index.postings_bytes idx in
  let arrays = List.map (Inverted_index.lookup idx) (Inverted_index.vocabulary idx) in
  let _, pack_ns =
    time_once (fun () -> List.map Extract_store.Packed_postings.of_array arrays)
  in
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let xml = tmp "extract_bench_e22.xml" in
  let snap = tmp "extract_bench_e22.snap" in
  Extract_xml.Printer.write_file xml corpus;
  Pipeline.save_snapshot snap db;
  let file_size path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  (* cold start = file -> analyzed, queryable database, what a user
     waits for: the XML is parsed, analyzed and indexed, the snapshot is
     mapped and its stored analysis adopted *)
  let xml_file_bytes = file_size xml in
  let snapshot_file_bytes = file_size snap in
  (* medians: a snapshot load is sub-millisecond, a single sample is all
     jitter *)
  let xml_build_ns = time_median ~repeat:5 (fun () -> Pipeline.of_file xml) in
  let snapshot_load_ns = time_median ~repeat:5 (fun () -> Pipeline.load_snapshot snap) in
  let query = "store apparel" in
  let shard_runs =
    List.map
      (fun k ->
        let t = Shard_set.split ~shards:k doc in
        k, time_median ~repeat:3 (fun () -> Shard_set.run ~limit:10 t query))
      [ 1; 2; 4 ]
  in
  Sys.remove xml;
  Sys.remove snap;
  {
    ix_clothes = clothes;
    ix_nodes = Document.node_count doc;
    ix_tokens = Inverted_index.token_count idx;
    ix_plain_bytes = plain_bytes;
    ix_packed_bytes = packed_bytes;
    ix_ratio = float_of_int plain_bytes /. float_of_int (max 1 packed_bytes);
    ix_pack_ns = pack_ns;
    ix_xml_file_bytes = xml_file_bytes;
    ix_snapshot_file_bytes = snapshot_file_bytes;
    ix_xml_build_ns = xml_build_ns;
    ix_snapshot_load_ns = snapshot_load_ns;
    ix_speedup = xml_build_ns /. Float.max 1.0 snapshot_load_ns;
    ix_shards = shard_runs;
  }

let index_json m =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"experiment\": \"index\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"mode\": %S,\n" (if quick then "quick" else "full"));
  Buffer.add_string b
    (Printf.sprintf
       "  \"dataset\": { \"name\": \"retail\", \"clothes\": %d, \"nodes\": %d, \"tokens\": %d },\n"
       m.ix_clothes m.ix_nodes m.ix_tokens);
  Buffer.add_string b
    (Printf.sprintf
       "  \"compression\": { \"plain_postings_bytes\": %d, \"packed_postings_bytes\": %d, \
        \"ratio\": %.2f, \"pack_ns\": %.0f },\n"
       m.ix_plain_bytes m.ix_packed_bytes m.ix_ratio m.ix_pack_ns);
  Buffer.add_string b
    (Printf.sprintf
       "  \"files\": { \"xml_bytes\": %d, \"snapshot_bytes\": %d },\n"
       m.ix_xml_file_bytes m.ix_snapshot_file_bytes);
  Buffer.add_string b
    (Printf.sprintf
       "  \"coldstart\": { \"xml_build_ns\": %.0f, \"snapshot_load_ns\": %.0f, \"speedup\": %.1f },\n"
       m.ix_xml_build_ns m.ix_snapshot_load_ns m.ix_speedup);
  Buffer.add_string b "  \"shards\": [\n";
  List.iteri
    (fun i (k, run_ns) ->
      Buffer.add_string b
        (Printf.sprintf "    { \"shards\": %d, \"run_ns\": %.0f }%s\n" k run_ns
           (if i = List.length m.ix_shards - 1 then "" else ",")))
    m.ix_shards;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

(* The index gate pins floors, not ceilings: the measured compression
   ratio and cold-start speedup must stay at or above the checked-in
   minima. *)
let index_floor_gate m =
  match floor_path with
  | None -> ()
  | Some path ->
    let contents =
      match In_channel.with_open_bin path In_channel.input_all with
      | c -> Some c
      | exception Sys_error msg ->
        Printf.eprintf "index floor gate: cannot read %s: %s\n" path msg;
        None
    in
    let want key =
      match Option.bind contents (parse_floor_key key) with
      | Some v -> v
      | None ->
        Printf.eprintf "index floor gate: no %S value in %s\n" key path;
        exit 1
    in
    let min_ratio = want "min_index_compression_ratio" in
    let min_speedup = want "min_coldstart_speedup" in
    Printf.printf
      "index floor gate: compression %.2fx (floor %.2fx), cold start %.1fx (floor %.1fx)\n"
      m.ix_ratio min_ratio m.ix_speedup min_speedup;
    if m.ix_ratio < min_ratio then begin
      print_endline
        "index floor gate: FAILED — packed postings no longer beat the compression floor";
      exit 1
    end;
    if m.ix_speedup < min_speedup then begin
      print_endline
        "index floor gate: FAILED — snapshot loading no longer beats the cold-start floor";
      exit 1
    end;
    print_endline "index floor gate: ok"

let index_main () =
  print_endline "eXtract index benchmark (E22)";
  let m = index_measure () in
  let out = open_out "BENCH_index.json" in
  output_string out (index_json m);
  close_out out;
  print_endline "wrote BENCH_index.json";
  index_floor_gate m

let () =
  if index_mode then index_main ()
  else if json_mode then hotpath_json_main ()
  else main ()
