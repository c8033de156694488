(** Query-biased feature scoring (companion paper direction).

    The dominance score of §2.3 is query-independent: it summarizes the
    result as a whole. The companion SIGMOD'08 paper ("Query Biased Snippet
    Generation in XML Search") additionally biases the selection toward the
    query. This module implements that bias at feature granularity: an
    entity instance is {e hot} when its subtree-or-self contains a keyword
    match; a feature's affinity is the fraction of its instances attached
    to hot entities. The biased score is [DS × (1 + affinity)], so features
    that co-occur with what the user asked about rank above equally
    dominant but query-unrelated ones. *)

type t

val make :
  ?ctx:Extract_search.Eval_ctx.t ->
  Extract_store.Node_kind.t ->
  Extract_store.Inverted_index.t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  t
(** With [ctx], keyword posting lists come from the per-query evaluation
    context (resolved once per query) instead of fresh index lookups. *)

(* lint: allow unused-export *)
val hot_entities : t -> Extract_store.Document.node list
(** Entity instances of the result containing a keyword match, document
    order. Test use only: test/test_extensions.ml ["hot entities"]. *)

val affinity : t -> Feature.analysis -> Feature.t -> float
(** In [0, 1]; 0 when the feature has no instance (or no hot entity
    exists). *)

val biased_score : t -> Feature.analysis -> Feature.t -> Feature.stats -> float
(** [stats.score × (1 + affinity)]. *)
