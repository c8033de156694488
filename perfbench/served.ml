(* The two in-process workloads on the 10x corpus: cold-snapshot
   (/search over a mapped XTRSNAP2 snapshot) and sharded (/shards/search
   over a 2-shard directory). One caller sends the generated targets to
   Demo_server.handle_request in a closed loop, as `extract serve` would
   route them (default caches: 64 pages, 256 snippet entries, 8 shards). *)

module Document = Extract_store.Document
module Snapshot = Extract_store.Snapshot
module Dataguide = Extract_store.Dataguide
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Pipeline = Extract_snippet.Pipeline
module Corpus = Extract_snippet.Corpus
module Shard_set = Extract_snippet.Shard_set
module Html_view = Extract_snippet.Html_view
module Feature = Extract_snippet.Feature
module Ilist = Extract_snippet.Ilist
module Selector = Extract_snippet.Selector
module Demo_server = Extract_server.Demo_server
module Query = Extract_search.Query
module Eval_ctx = Extract_search.Eval_ctx
module Engine = Extract_search.Engine
module Result_tree = Extract_search.Result_tree

open Common

(* /search's fixed result limit, and /shards/search's default *)
let limit = 25

let shard_count = 2

let search_title = "eXtract — retail"

let shards_title = Printf.sprintf "eXtract — sharded (%d shards)" shard_count

type route =
  | Search
  | Shards

let target route r =
  match route with
  | Search -> Mix.search_target r
  | Shards -> Mix.shards_target r

(* ------------------------------------------------------------------ *)
(* Inputs and expected answers                                         *)

type inputs = {
  sequence : Mix.read array;
  distinct_queries : int;
  probe : Mix.read;
}

(* cold-snapshot replays whole decks, at least 1000 requests, and more
   per second of --seconds than the other workloads (four decks at 12):
   its figures follow the machine's speed drift the most, and a longer
   timed phase averages more of it; from the third deck on the targets
   repeat, so the answers to compute before timing do not grow. sharded
   replays 1000 (its requests cost ~6x more, and p99 needs 1000
   samples). Counts depend on --seconds, never on measured speed. *)
let request_count route ~seconds ~queries =
  match route with
  | Search ->
    let at_least = (1000 + queries - 1) / queries in
    let nearest = ((280 * seconds) + (queries / 2)) / queries in
    max at_least nearest * queries
  | Shards -> max 1000 (30 * seconds)

(* The flat in-memory reference (Pipeline.build on the corpus XML, plain
   postings) and the request sequence drawn from its query mix. *)
let make_inputs route ~seed ~seconds =
  let xml = Mix.xml_of_document (Mix.retail_10x ()) in
  let flat = Pipeline.build (Document.load_string xml) in
  let queries = Mix.query_pool (Pipeline.kinds flat) in
  let count = request_count route ~seconds ~queries:(Array.length queries) in
  let sequence = Mix.deck_sequence (Mix.stream ~seed 1) queries ~count in
  let probe = Mix.probe queries ~results:(fun q -> List.length (Pipeline.search flat q)) in
  flat, { sequence; distinct_queries = Array.length queries; probe }

let page_digest title (r : Mix.read) results =
  Digest.string (Html_view.result_page ~title ~query:r.Mix.query ~bound:r.Mix.bound results)

module Int_set = Set.Make (Int)

(* /shards/search against the flat build: every returned root is a
   flat result root, none twice, and the count is the flat count up to
   the limit, less at most one result rooted at each shard's root (the
   documented divergence; per-shard IDF may change which results are
   chosen, so order is not compared). *)
let shard_hits_agree flat_roots (hits : Shard_set.hit list) =
  let roots = List.map (fun (h : Shard_set.hit) -> h.Shard_set.global_root) hits in
  let distinct = Int_set.of_list roots in
  let expected = min limit (Int_set.cardinal flat_roots) in
  let n = List.length hits in
  Int_set.cardinal distinct = n
  && Int_set.subset distinct flat_roots
  && n <= expected
  && n >= expected - shard_count

(* Expected page digest of every distinct target (and of the probe).
   /search pages come straight from the flat reference. /shards/search
   pages come from an in-memory split of the same document, whose hits
   are first checked against the flat build; the served pages come from
   the packed snapshots on disk, so a digest match ties them to it.
   Returns the table and the number of targets whose check failed. *)
let expected_pages route flat inputs ~split =
  let table = Hashtbl.create 2048 in
  let flat_roots = Hashtbl.create 1024 in
  let bad = ref 0 in
  let add (r : Mix.read) =
    let t = target route r in
    if not (Hashtbl.mem table t) then begin
      let digest =
        match route, split with
        | Search, _ ->
          page_digest search_title r (Pipeline.run ~bound:r.Mix.bound ~limit flat r.Mix.query)
        | Shards, None -> die "sharded reference without its split"
        | Shards, Some ss ->
          let hits = Shard_set.run ~bound:r.Mix.bound ~limit ss r.Mix.query in
          let roots =
            match Hashtbl.find_opt flat_roots r.Mix.query with
            | Some roots -> roots
            | None ->
              let roots =
                Pipeline.search flat r.Mix.query
                |> List.map Result_tree.root
                |> List.filter (fun root -> root <> 0)
                |> Int_set.of_list
              in
              Hashtbl.add flat_roots r.Mix.query roots;
              roots
          in
          if not (shard_hits_agree roots hits) then incr bad;
          page_digest shards_title r (List.map (fun (h : Shard_set.hit) -> h.Shard_set.result) hits)
      in
      Hashtbl.add table t digest
    end
  in
  add inputs.probe;
  Array.iter add inputs.sequence;
  table, !bad

let answer_ok expected target (resp : Demo_server.response) =
  resp.Demo_server.status = 200
  &&
  match Hashtbl.find_opt expected target with
  | Some d -> Digest.equal d (Digest.string resp.Demo_server.body)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Artifacts and cold starts                                           *)

let write_artifact route flat ~work =
  match route with
  | Search ->
    let path = Filename.concat work "retail.snap" in
    Pipeline.save_snapshot path flat;
    path, None
  | Shards ->
    let dir = Filename.concat work "retail.shards" in
    let split = Shard_set.split ~shards:shard_count (Pipeline.document flat) in
    Shard_set.save_dir dir split;
    dir, Some split

(* A served corpus: what the cold start built, kept for the replay. *)
type served = {
  server : Demo_server.t;
  db : Pipeline.t option; (* the /search database *)
  shards : Shard_set.t option;
}

let open_artifact route path =
  match route with
  | Search ->
    let db = Corpus.load_file path in
    { server = Demo_server.create (Corpus.of_list [ "retail", db ]); db = Some db; shards = None }
  | Shards ->
    let shards = Shard_set.load_dir path in
    { server = Demo_server.create ~sharded:shards Corpus.empty; db = None; shards = Some shards }

(* Artifact on disk -> first request answered. *)
let cold_start route path ~probe ~expected =
  let t0 = now () in
  let served = open_artifact route path in
  Demo_server.mark_ready served.server;
  let t1 = now () in
  let resp = Demo_server.handle_request served.server probe in
  let t2 = now () in
  served, t2 -. t0, t2 -. t1, answer_ok expected probe resp

let snapshot_files route path =
  match route with
  | Search -> [ path ]
  | Shards ->
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".snap")
    |> List.sort String.compare
    |> List.map (Filename.concat path)

(* The start-up layers, timed one by one from outside before the real
   cold start: map each snapshot, then the analysis Pipeline.of_parts
   re-derives (dataguide, classification, key mining); summed over
   shards. *)
let startup_layers route path =
  List.fold_left
    (fun acc file ->
      let (doc, _index), load = timed (fun () -> Snapshot.load file) in
      let guide, g = timed (fun () -> Dataguide.build doc) in
      let kinds, c = timed (fun () -> Node_kind.classify guide) in
      let _, m = timed (fun () -> Key_miner.mine kinds) in
      Array.map2 ( +. ) acc [| load; g; c; m |])
    (Array.make 4 0.) (snapshot_files route path)

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)

(* The untraced replay: latency per request; answer checks run off the
   clock, so the timed phase is the sum of the request times. *)
let replay served targets expected =
  let n = Array.length targets in
  let latencies = Array.make n 0. in
  let failed = ref 0 in
  for i = 0 to n - 1 do
    let t0 = now () in
    let resp = Demo_server.handle_request served.server targets.(i) in
    latencies.(i) <- now () -. t0;
    if not (answer_ok expected targets.(i) resp) then incr failed
  done;
  latencies, !failed

type counts = {
  mutable postings : int;
  mutable results : int;
  mutable entries : int;
  mutable bytes : int;
  mutable snippeted : int; (* shard results snippeted before the merge *)
  mutable returned : int;
  mutable slowest_share : float;
}

(* The /search route, one public call per span: what Pipeline.run does
   under Snippet_cache.run, then the page render. *)
let traced_search ledger counts db (r : Mix.read) =
  let kinds = Pipeline.kinds db and index = Pipeline.index db in
  let query, ctx =
    Ledger.span ledger Ledger.Eval_ctx (fun () ->
        let query = Query.of_string r.Mix.query in
        query, Eval_ctx.make index query)
  in
  let results = Ledger.span ledger Ledger.Engine (fun () -> Engine.run_ctx ~limit ctx kinds) in
  let snippets =
    List.map
      (fun result ->
        let analysis = Ledger.span ledger Ledger.Feature (fun () -> Feature.analyze kinds result) in
        let ilist =
          Ledger.span ledger Ledger.Ilist (fun () ->
              Ilist.build ~ctx ~analysis kinds (Pipeline.keys db) index result query)
        in
        let selection =
          Ledger.span ledger Ledger.Selector (fun () ->
              Selector.greedy ~bound:r.Mix.bound result ilist)
        in
        { Pipeline.result; ilist; selection; degraded = false })
      results
  in
  let body =
    Ledger.span ledger Ledger.Html_view (fun () ->
        Html_view.result_page ~title:search_title ~query:r.Mix.query ~bound:r.Mix.bound snippets)
  in
  List.iter
    (fun k -> counts.postings <- counts.postings + Array.length (Eval_ctx.postings ctx k))
    (Query.keywords query);
  counts.results <- counts.results + List.length results;
  List.iter
    (fun (s : Pipeline.snippet_result) ->
      counts.entries <- counts.entries + Ilist.length s.Pipeline.ilist)
    snippets;
  counts.bytes <- counts.bytes + String.length body;
  body

(* The /shards/search route as Shard_set.run performs it, one shard
   after the other: run_ranked per shard (dropping results rooted at
   the shard root), the k-way merge, the render. *)
let traced_shards ledger counts shards (r : Mix.read) =
  let per_shard =
    Array.init (Shard_set.shard_count shards) (fun i ->
        Ledger.span ledger Ledger.Shard (fun () ->
            let ranked =
              Pipeline.run_ranked ~bound:r.Mix.bound ~limit (Shard_set.shard_db shards i) r.Mix.query
            in
            ( List.length ranked,
              List.filter (fun (_, s) -> Result_tree.root s.Pipeline.result <> 0) ranked )))
  in
  let merged =
    Ledger.span ledger Ledger.Merge (fun () -> Engine.merge_scored ~limit (Array.map snd per_shard))
  in
  let body =
    Ledger.span ledger Ledger.Html_view (fun () ->
        Html_view.result_page ~title:shards_title ~query:r.Mix.query ~bound:r.Mix.bound
          (List.map (fun (_, (_, s)) -> s) merged))
  in
  let snippeted = Array.fold_left (fun acc (n, _) -> acc + n) 0 per_shard in
  counts.snippeted <- counts.snippeted + snippeted;
  counts.returned <- counts.returned + List.length merged;
  counts.bytes <- counts.bytes + String.length body;
  let shard_total = Ledger.current ledger Ledger.Shard in
  counts.slowest_share <- counts.slowest_share +. ratio (Ledger.slowest_shard ledger) shard_total;
  body

(* The traced replay. Returns per request the traced wall time and the
   time the spans on the route's critical path account for (shards run
   in parallel when served, so only the slowest one counts there). *)
let traced_replay route served inputs expected ledger counts =
  let n = Array.length inputs.sequence in
  let wall = Array.make n 0. and spans = Array.make n 0. in
  let failed = ref 0 in
  Array.iteri
    (fun i (r : Mix.read) ->
      Ledger.begin_request ledger i;
      let t0 = now () in
      let body =
        match route, served.db, served.shards with
        | Search, Some db, _ -> traced_search ledger counts db r
        | Shards, _, Some shards -> traced_shards ledger counts shards r
        | (Search | Shards), _, _ -> die "traced replay without a served corpus"
      in
      wall.(i) <- now () -. t0;
      Ledger.end_request ledger ~start:t0 ~seconds:wall.(i);
      let cur = Ledger.current ledger in
      spans.(i) <-
        (match route with
        | Search ->
          List.fold_left (fun acc l -> acc +. cur l) 0.
            Ledger.[ Eval_ctx; Engine; Feature; Ilist; Selector; Html_view ]
        | Shards -> Ledger.slowest_shard ledger +. cur Ledger.Merge +. cur Ledger.Html_view);
      let t = target route r in
      match Hashtbl.find_opt expected t with
      | Some d when Digest.equal d (Digest.string body) -> ()
      | Some _ | None -> incr failed)
    inputs.sequence;
  wall, spans, !failed

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

(* Everything the flat reference is needed for, done before timing; the
   reference is garbage afterwards. *)
let prepare route ~seed ~seconds ~work =
  let flat, inputs = make_inputs route ~seed ~seconds in
  let path, split = write_artifact route flat ~work in
  let expected, bad_references = expected_pages route flat inputs ~split in
  Document.node_count (Pipeline.document flat), inputs, path, expected, bad_references

let workload_name = function Search -> "cold-snapshot" | Shards -> "sharded"

(* One slice of the untraced replay, in a process of its own. *)
type plan = {
  plan_route : route;
  path : string;
  probe_target : string;
  slice : string array;
  expected : (string, Digest.t) Hashtbl.t;
}

(* The slice's process: open the artifact and answer the probe, as a
   cold start does, then replay the slice. *)
let part p =
  let served = open_artifact p.plan_route p.path in
  Demo_server.mark_ready served.server;
  let probe = Demo_server.handle_request served.server p.probe_target in
  let probe_ok = answer_ok p.expected p.probe_target probe in
  settle ();
  let latencies, failed = replay served p.slice p.expected in
  let heap_mb = live_heap_mb () in
  ignore (Sys.opaque_identity served);
  { latencies; failed = failed + (if probe_ok then 0 else 1); wall = sum latencies; heap_mb }

let run route ~seed ~seconds ~trace ~work ~spans_path =
  let nodes, inputs, path, expected, bad_references = prepare route ~seed ~seconds ~work in
  let probe = target route inputs.probe in
  let targets = Array.map (target route) inputs.sequence in
  let n = Array.length targets in
  let layers = ref [] in
  let start () =
    if trace then layers := startup_layers route path :: !layers;
    cold_start route path ~probe ~expected
  in
  let starts =
    cold_starts ~count:(if trace then starts_per_run else starts_before) ~discard:ignore start
  in
  let failed = ref (bad_references + starts.wrong) in
  let attempted = n + starts_per_run in
  let info =
    [ "route", json_string (match route with Search -> "/search" | Shards -> "/shards/search");
      "nodes", json_int nodes;
      "distinct_queries", json_int inputs.distinct_queries;
      "distinct_targets", json_int (Hashtbl.length expected - 1);
      "requests", json_int n;
      "page_cache_capacity", json_int 64;
      "snippet_cache_capacity", json_int 256;
      "write_ratio", json_int 0;
      "pinned", json_bool false;
      "reference_mismatches", json_int bad_references ]
  in
  if not trace then begin
    let reports, later_setups, later_wrong =
      run_parts ~workload:(workload_name route) ~work
        ~between:(fun () -> discarded_starts ~count:starts_between ~discard:ignore start)
        (fun k ->
          { plan_route = route; path; probe_target = probe; slice = slice targets k; expected })
    in
    let latencies, replay_failed, wall, heap = pool reports in
    {
      attempted = attempted + parts;
      failed = !failed + replay_failed + later_wrong;
      metrics =
        end_to_end_metrics ~setups:(Array.append starts.setups later_setups) ~reads:latencies
          ~requests:n ~wall ~heap;
      info = info @ [ "processes", json_int parts ];
    }
  end
  else begin
    let served = starts.last in
    let pages0 = Demo_server.cache_stats served.server in
    let snips0 = Demo_server.snippet_cache_stats served.server in
    settle ();
    let gc0 = gc_mark () in
    let latencies, replay_failed = replay served targets expected in
    let gc1 = gc_mark () in
    failed := !failed + replay_failed;
    let page_hits, page_misses =
      let h, m = Demo_server.cache_stats served.server in
      h - fst pages0, m - snd pages0
    in
    let snip_hits, snip_misses =
      let h, m = Demo_server.snippet_cache_stats served.server in
      h - fst snips0, m - snd snips0
    in
    let ledger = Ledger.create () in
    let counts =
      { postings = 0; results = 0; entries = 0; bytes = 0; snippeted = 0; returned = 0;
        slowest_share = 0. }
    in
    settle ();
    let wall, spans, traced_failed = traced_replay route served inputs expected ledger counts in
    failed := !failed + traced_failed;
    Ledger.write ledger spans_path;
    let per_request x = float_of_int x /. float_of_int n in
    let untraced = mean latencies in
    let self = Array.mapi (fun i l -> l -. spans.(i)) latencies in
    let startup i = median (Array.of_list (List.map (fun a -> a.(i)) !layers)) *. 1000. in
    let busy l = Ledger.busy_ms ledger l ~requests:n in
    let minor l = Ledger.minor_kw ledger l ~requests:n in
    let shard_calls = max 1 (Ledger.calls ledger Ledger.Shard) in
    let metrics =
      [ metric "demo_server.self_us" "us" (median self *. 1e6);
        metric "page_cache.hit_ratio" "ratio"
          (match route with
          | Search -> ratio (float_of_int page_hits) (float_of_int (page_hits + page_misses))
          | Shards -> 0.);
        metric "snippet_cache.hit_ratio" "ratio"
          (ratio (float_of_int snip_hits) (float_of_int (snip_hits + snip_misses)));
        metric "html_view.busy_ms" "ms" (busy Ledger.Html_view);
        metric "html_view.bytes" "B" (per_request counts.bytes);
        metric "html_view.minor_kw" "kw" (minor Ledger.Html_view);
        metric "snapshot.load_ms" "ms" (startup 0);
        metric "dataguide.build_ms" "ms" (startup 1);
        metric "node_kind.classify_ms" "ms" (startup 2);
        metric "key_miner.mine_ms" "ms" (startup 3);
        metric "setup.first_request_ms" "ms" (median starts.firsts *. 1000.);
        metric "ledger.residual_share" "ratio" (ratio (untraced -. mean spans) untraced);
        metric "ledger.trace_overhead_share" "ratio" (ratio (mean wall -. untraced) untraced) ]
      @ gc_metrics ~requests:n gc0 gc1
      @
      match route with
      | Search ->
        List.concat_map
          (fun l ->
            [ metric (Ledger.name l ^ ".busy_ms") "ms" (busy l);
              metric (Ledger.name l ^ ".minor_kw") "kw" (minor l) ])
          Ledger.[ Eval_ctx; Engine; Feature; Ilist; Selector ]
        @ [ metric "eval_ctx.postings" "count" (per_request counts.postings);
            metric "engine.results" "count" (per_request counts.results);
            metric "ilist.entries" "count" (per_request counts.entries) ]
      | Shards ->
        [ metric "shard_set.shard_ms" "ms"
            (Ledger.total_seconds ledger Ledger.Shard /. float_of_int shard_calls *. 1000.);
          metric "shard_set.slowest_share" "ratio" (counts.slowest_share /. float_of_int n);
          metric "shard_set.merge_us" "us" (Ledger.busy_ms ledger Ledger.Merge ~requests:n *. 1000.);
          metric "shard_set.useful_ratio" "ratio"
            (ratio (float_of_int counts.returned) (float_of_int counts.snippeted)) ]
    in
    { attempted = attempted + n; failed = !failed; metrics; info }
  end
