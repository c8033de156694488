(** Explain bundles: why each snippet came out the way it did.

    The paper's pipeline is a chain of per-query decisions — entity
    identification, result-key mining, dominance scoring (§2.3),
    greedy instance selection under the edge bound (§2.4) — and a
    bundle surfaces every one of them for a single query: per IList
    entry, whether it was covered (through which instance, at what
    marginal edge cost), skipped for lack of budget, or uncoverable;
    per dominant feature, its [N(e,a,v)]/[N(e,a)]/[D(e,a)] statistics
    and dominance score; plus the ambient sections recorded below the
    pipeline ({!Extract_obs.Explain}): posting-list sizes, stage
    timings, differentiator distinctiveness.

    Exposed as [extract snippet --explain[=json|text]], the demo
    server's [GET /explain] endpoint, and an expandable panel in
    {!Html_view} pages. *)

module Document = Extract_store.Document

(** The fate of one IList entry in the greedy selection. *)
type status =
  | Covered of {
      instance : Document.node;  (** the instance that covers the item *)
      tag : string;  (** its element tag *)
      cost : int;  (** marginal edges it added (0 = already displayed) *)
    }
  | Skipped  (** coverable, but every instance would overflow the bound *)
  | Uncoverable  (** no instance of the item exists in this result *)

type entry = {
  rank : int;  (** IList position, 0 = most important *)
  kind : string;  (** ["keyword"] | ["entity"] | ["key"] | ["feature"] *)
  display : string;  (** the Fig. 3 display text *)
  instances : int;  (** candidate instances in the result *)
  feature : (Feature.t * Feature.stats) option;
      (** the triplet and dominance statistics, for feature entries *)
  status : status;
}

type result_explain = {
  index : int;  (** 0-based position in the result list *)
  root_tag : string;
  nodes : int;  (** result size in nodes *)
  degraded : bool;
  bound : int;
  edges_used : int;  (** sum of covered costs — edges the snippet spent *)
  covered_count : int;
  skipped_count : int;
  uncoverable_count : int;
  entries : entry list;  (** rank order; empty for degraded results *)
}

type t = {
  request_id : string;  (** the {!Extract_obs.Reqid} of the query *)
  query : string;
  semantics : string;
  bound : int;
  seconds : float;  (** wall clock of the explained run *)
  degraded : int;  (** results served by the baseline snippet *)
  sections : (string * Extract_obs.Jsonv.t) list;
      (** ambient sections in record order: stage timings keyed by span
          name, ["postings"], ["differentiator"] *)
  results : result_explain list;
}

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  ?differentiated:bool ->
  Pipeline.t ->
  string ->
  Pipeline.snippet_result list * t
(** Run the pipeline with explain capture on and assemble the bundle.
    Same defaults as {!Pipeline.run}; [~differentiated:true] routes
    through {!Pipeline.run_differentiated} (recording distinctiveness).
    Executes under the enclosing {!Extract_obs.Reqid} scope when one is
    active, else a fresh id. *)

val result_explain_of : index:int -> Pipeline.snippet_result -> result_explain
(** The per-result accounting alone — {!Html_view}'s explain panel. *)

val render_json : t -> string
(** The bundle as pretty-printed JSON: one line per IList entry. *)

val to_text : t -> string
(** Terminal form: a header line, one line per result, one indented line
    per IList entry, then the ambient sections. *)

val digest : t -> Extract_obs.Jsonv.t
(** Compact per-result digest (root, covered, items, edges, degraded)
    retained by {!Extract_obs.Slowlog} — O(results), not O(entries). *)

val digest_of_results : Pipeline.snippet_result list -> Extract_obs.Jsonv.t
(** {!digest} without assembling a full bundle first. *)
