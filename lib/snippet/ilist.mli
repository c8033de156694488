(** The Snippet Information List (IList, paper §2 and Fig. 3).

    The IList ranks the information a snippet should try to cover, most
    important first:

    + the query keywords (query order);
    + the names of entities involved in the result (§2.1,
      self-containment), most frequent entity first;
    + the key of the query result (§2.2, distinguishability);
    + the dominant features by decreasing dominance score (§2.3,
      representativeness).

    Items whose display text duplicates an earlier item are dropped (the
    paper's Fig. 3 lists "retailer" once although it is both a keyword and
    an entity name). Each entry carries the node instances of the result
    that cover it; the Instance Selector chooses among them. *)

module Document = Extract_store.Document

type item =
  | Keyword of string
  | Entity_name of string
  | Result_key of string
  | Dominant_feature of Feature.t * Feature.stats

type entry = {
  item : item;
  rank : int;  (** position in the IList, 0 = most important *)
  instances : Document.node array;
      (** result element nodes covering the item, document order; covering
          a node implies displaying it (and its ancestors) in the snippet *)
}

type t

val build :
  ?config:Config.t ->
  ?ctx:Extract_search.Eval_ctx.t ->
  ?analysis:Feature.analysis ->
  Extract_store.Node_kind.t ->
  Extract_store.Key_miner.t ->
  Extract_store.Inverted_index.t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  t
(** With [ctx], keyword posting lists are taken from the per-query
    evaluation context instead of re-resolved; with [analysis], the
    precomputed {!Feature.analyze} of this result is reused instead of
    running the analysis again (the differentiated pipeline computes it
    once per result for cross-result scoring). *)

val empty : t
(** No entries — the IList of a degraded (deadline-expired) snippet,
    which never ran the analysis that would have produced one. *)

val entries : t -> entry list

val length : t -> int

val coverable : t -> entry list
(** Entries with at least one instance. *)

val display : item -> string
(** The text of the item as shown in Fig. 3 ("Texas", "clothes",
    "Brook Brothers", "Houston", …). *)

val to_string : t -> string
(** Comma-separated display texts — the Fig. 3 rendition. *)

val reorder_features : score:(Feature.t -> Feature.stats -> float) -> t -> t
(** Re-rank only the dominant-feature block by a replacement score
    (descending), keeping keywords, entity names and the key in place and
    renumbering ranks. Used by {!Differentiator} and ablations. *)
