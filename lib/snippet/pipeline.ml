module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Inverted_index = Extract_store.Inverted_index
module Dataguide = Extract_store.Dataguide
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Eval_ctx = Extract_search.Eval_ctx
module Ranker = Extract_search.Ranker
module Deadline = Extract_util.Deadline
module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry
module Trace = Extract_obs.Trace
module Log = Extract_obs.Log
module Reqid = Extract_obs.Reqid
module Capture = Extract_obs.Explain
module Jsonv = Extract_obs.Jsonv

type t = {
  doc : Document.t;
  guide : Dataguide.t;
  kinds : Node_kind.t;
  keys : Key_miner.t;
  index : Inverted_index.t;
}

(* Stage observer: a seam for opt-in invariant assertions (Extract_check
   installs one when EXTRACT_CHECK is set). No observer, no cost. *)

type observer = {
  on_built : t -> unit;
  on_snippets : t -> snippet_result list -> unit;
}

and snippet_result = {
  result : Result_tree.t;
  ilist : Ilist.t;
  selection : Selector.selection;
  degraded : bool;
}

(* init-only — installed by Check.install_from_env / test setup before
   any query runs; read-only from the worker domains *)
let observer : observer option ref = ref None

let set_observer o = observer := o

(* ------------------------------------------------------------------ *)
(* Observability: each stage records its latency into one shared
   histogram family (distinguished by the [stage] label) and opens a
   trace span, so `extract snippet --trace` and /metrics read the same
   boundaries the EXTRACT_CHECK observer sees. *)

let stage_histogram stage =
  Registry.histogram ~help:"Pipeline stage latency in seconds"
    ~labels:[ "stage", stage ] "extract_stage_duration_seconds"

let build_seconds = stage_histogram "build"

let search_seconds = stage_histogram "search"

let snippet_seconds = stage_histogram "snippet"

let queries_total =
  Registry.counter ~help:"Keyword queries evaluated (search or full runs)"
    "extract_queries_total"

let degraded_total =
  Registry.counter ~help:"Snippets degraded to the naive baseline"
    "extract_degraded_snippets_total"

let deadline_expired_total =
  Registry.counter ~help:"Per-result budget checks that found the deadline expired"
    "extract_deadline_expirations_total"

let timed hist span f =
  let t0 = Deadline.now () in
  let x = Trace.with_span span f in
  let dt = Deadline.now () -. t0 in
  Registry.observe hist dt;
  Log.debug "stage.done" [ "stage", Jsonv.Str span; "seconds", Jsonv.Float dt ];
  Capture.record span (fun () -> Jsonv.Float dt);
  x

(* Every run variant executes under a request id — the caller's scope
   when one is active (the server stamps one per HTTP request), else a
   fresh id for this call. The same id lands in the stage log lines, the
   trace spans and the explain capture, so one grep correlates them. *)
let with_request query_string f =
  Reqid.ensure (fun _rid ->
      let t0 = Deadline.now () in
      match f () with
      | out -> out
      | exception e ->
        Log.warn "query.failed"
          [ "query", Jsonv.Str query_string;
            "error", Jsonv.Str (Printexc.to_string e);
            "seconds", Jsonv.Float (Deadline.now () -. t0) ];
        raise e)

let log_done event query_string ~t0 (results, degraded) =
  if Log.enabled Log.Info then
    Log.info event
      [ "query", Jsonv.Str query_string;
        "results", Jsonv.Int results;
        "degraded", Jsonv.Int degraded;
        "seconds", Jsonv.Float (Deadline.now () -. t0) ]

let query_scope event query_string ~count f =
  with_request query_string (fun () ->
      let t0 = Deadline.now () in
      let out = f () in
      log_done event query_string ~t0 (count out);
      out)

let count_snippets snips =
  ( List.length snips,
    List.fold_left (fun n s -> if s.degraded then n + 1 else n) 0 snips )

let notify_built t =
  (match !observer with Some o -> o.on_built t | None -> ());
  t

let notify_snippets t snips =
  (match !observer with Some o -> o.on_snippets t snips | None -> ());
  snips

(* Every constructor builds under the same span, histogram and
   observer, whether it derives the analysis or adopts a stored one. *)
let constructed analysis index =
  timed build_seconds "pipeline.build" (fun () ->
      Faults.hit "pipeline.build";
      let keys = analysis () in
      let index = index () in
      let kinds = Key_miner.kinds keys in
      let guide = Node_kind.dataguide kinds in
      let doc = Dataguide.document guide in
      notify_built { doc; guide; kinds; keys; index })

let derive doc () = Key_miner.mine (Node_kind.classify (Dataguide.build doc))

let build doc = constructed (derive doc) (fun () -> Inverted_index.build doc)

let of_xml_string s = build (Document.load_string s)

let of_file path = build (Document.load_file path)

(* Derive the analysis (classification, keys) and reuse the given
   index. *)
let of_parts doc index = constructed (derive doc) (fun () -> index)

let of_analysis keys index = constructed (fun () -> keys) (fun () -> index)

let save_snapshot path t = Extract_store.Snapshot.save path t.keys t.index

let load_snapshot path =
  let s = Extract_store.Snapshot.load_analyzed path in
  of_analysis s.Extract_store.Snapshot.keys s.Extract_store.Snapshot.index

let document t = t.doc

let kinds t = t.kinds

let keys t = t.keys

let index t = t.index

let dataguide t = t.guide

let default_bound = 10

let ilist_of ?config t result query =
  Ilist.build ?config t.kinds t.keys t.index result query

let snippet_with ?config ~bound ~ctx t result =
  let query = Eval_ctx.query ctx in
  let ilist = Ilist.build ?config ~ctx t.kinds t.keys t.index result query in
  let selection = Selector.greedy ~bound result ilist in
  { result; ilist; selection; degraded = false }

(* The degradation ladder's bottom rung: when the per-request budget is
   gone (or a fault is injected at [pipeline.snippet]), the result still
   gets a snippet — the O(bound) breadth-first {!Naive_baseline}
   truncation, with no IList and no selection bookkeeping. Cheap enough
   to be safe under any deadline that admitted the search itself. *)
let degraded_snippet ~bound result =
  Registry.incr degraded_total;
  let snippet = Naive_baseline.generate ~bound result in
  {
    result;
    ilist = Ilist.empty;
    selection = { Selector.snippet; covered = []; skipped = []; uncoverable = []; bound };
    degraded = true;
  }

let want_degraded deadline =
  if Deadline.expired deadline then begin
    Registry.incr deadline_expired_total;
    true
  end
  else Faults.should_fail "pipeline.snippet"

let snippet_of ?config ?(bound = default_bound) t result query =
  snippet_with ?config ~bound ~ctx:(Eval_ctx.make t.index query) t result

(* The snippet stage for one result under its query's context: checked
   against the deadline just before its work starts. *)
let snippet_one ?config ~bound ~deadline ~ctx t result =
  if want_degraded deadline then degraded_snippet ~bound result
  else snippet_with ?config ~bound ~ctx t result

let context_of ?mask t query_string =
  Faults.hit "pipeline.search";
  Eval_ctx.make ?mask t.index (Query.of_string query_string)

(* Search stage shared by every run variant: one evaluation context, one
   engine pass, one histogram observation and trace span. *)
let searched ?semantics ?limit ?mask t query_string =
  Registry.incr queries_total;
  timed search_seconds "pipeline.search" (fun () ->
      let ctx = context_of ?mask t query_string in
      ctx, Engine.run_ctx ?semantics ?limit ctx t.kinds)

(* The rank stage: search with no limit (the best results may come last
   in document order) and score every result, generating no snippet. The
   ranker scores from the lists the search's context resolved. *)
let rank ?semantics ?mask t query_string =
  let ctx, results = searched ?semantics ?mask t query_string in
  ctx, Ranker.rank (Ranker.make ctx) results

let take limit l =
  match limit with
  | None -> l
  | Some k -> List.filteri (fun i _ -> i < k) l

let search ?semantics ?limit ?mask t query_string =
  query_scope "search.done" query_string
    ~count:(fun rs -> List.length rs, 0)
    (fun () ->
      let _, results = searched ?semantics ?limit ?mask t query_string in
      results)

let run_differentiated ?semantics ?config ?(bound = default_bound) ?limit
    ?(deadline = Deadline.never) t query_string =
  query_scope "query.done" query_string ~count:count_snippets @@ fun () ->
  let ctx, results = searched ?semantics ?limit t query_string in
  timed snippet_seconds "pipeline.snippet" (fun () ->
      (* one analysis per result, shared between the differentiator and each
         result's IList construction; a result whose analysis would start
         after the deadline degrades instead and takes no part in
         cross-result scoring *)
      let analyses =
        List.map
          (fun r ->
            if want_degraded deadline then r, None else r, Some (Feature.analyze t.kinds r))
          results
      in
      let differ = Differentiator.make (List.filter_map snd analyses) in
      Capture.record "differentiator" (fun () ->
          Jsonv.Arr
            (List.map
               (fun ((f : Feature.t), rf, d) ->
                 Jsonv.Obj
                   [ "entity", Jsonv.Str f.Feature.entity;
                     "attribute", Jsonv.Str f.Feature.attribute;
                     "value", Jsonv.Str f.Feature.value;
                     "result_frequency", Jsonv.Int rf;
                     "distinctiveness", Jsonv.Float d ])
               (Differentiator.report differ)));
      notify_snippets t
        (List.map
           (fun (result, analysis) ->
             match analysis with
             | None -> degraded_snippet ~bound result
             | Some analysis ->
               let ilist =
                 Differentiator.apply differ
                   (Ilist.build ?config ~ctx ~analysis t.kinds t.keys t.index result
                      (Eval_ctx.query ctx))
               in
               let selection = Selector.greedy ~bound result ilist in
               { result; ilist; selection; degraded = false })
           analyses))

type hit = {
  segment : int;
  source : string;
  score : float;
  snippet : snippet_result;
}

type segment = {
  db : t;
  (* read-only — the caller's interval set, never mutated *)
  mask : (int * int) array option;
  source_of : Result_tree.t -> string option;
  span : (string * (string * string) list) option;
}

(* Several databases, one ranked answer: rank every segment, keep the
   results with a source, sort them all, cut at [limit] and only then
   snippet, in rank order. The sort is stable and the candidates are
   listed segment by segment, each in rank order with ties in document
   order, so equal (score, source) keys keep segment and document order.
   Each segment's search is observed on its own; its observer and
   [query.done] line see the hits it contributed. *)
let run_merged ?semantics ?config ?(bound = default_bound) ?limit ?(deadline = Deadline.never)
    segments query_string =
  with_request query_string @@ fun () ->
  let ranked =
    List.mapi
      (fun i seg ->
        let t0 = Deadline.now () in
        let rank () = rank ?semantics ?mask:seg.mask seg.db query_string in
        let ctx, scored =
          match seg.span with
          | None -> rank ()
          | Some (name, args) -> Trace.with_span ~args name rank
        in
        let candidate (result, score) =
          Option.map
            (fun source -> (score, source), (i, seg.db, ctx, result))
            (seg.source_of result)
        in
        t0, List.filter_map candidate scored)
      segments
  in
  let by_rank ((a, sa), _) ((b, sb), _) =
    if a <> b then Float.compare b a else String.compare sa sb
  in
  let kept = take limit (List.stable_sort by_rank (List.concat_map snd ranked)) in
  let hits =
    timed snippet_seconds "pipeline.snippet" (fun () ->
        List.map
          (fun ((score, source), (segment, db, ctx, result)) ->
            let snippet = snippet_one ?config ~bound ~deadline ~ctx db result in
            { segment; source; score; snippet })
          kept)
  in
  List.iteri
    (fun i (seg, (t0, _)) ->
      let snips =
        List.filter_map (fun h -> if h.segment = i then Some h.snippet else None) hits
      in
      log_done "query.done" query_string ~t0 (count_snippets (notify_snippets seg.db snips)))
    (List.combine segments ranked);
  hits

(* One segment: the ranked answer of one database. *)
let run_ranked ?semantics ?config ?bound ?limit ?deadline t query_string =
  run_merged ?semantics ?config ?bound ?limit ?deadline
    [ { db = t; mask = None; source_of = (fun _ -> Some ""); span = None } ]
    query_string
  |> List.map (fun h -> h.score, h.snippet)

let run ?semantics ?config ?(bound = default_bound) ?limit ?(deadline = Deadline.never)
    t query_string =
  query_scope "query.done" query_string ~count:count_snippets @@ fun () ->
  let ctx, results = searched ?semantics ?limit t query_string in
  timed snippet_seconds "pipeline.snippet" (fun () ->
      results
      |> List.map (snippet_one ?config ~bound ~deadline ~ctx t)
      |> notify_snippets t)
