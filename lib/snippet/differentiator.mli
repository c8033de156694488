(** Cross-result snippet differentiation.

    The paper's first goal (§1) asks snippets to "differentiate [results]
    from one another". The result key carries most of that burden; this
    module adds the rest: when a query returns several results, a dominant
    feature shared by {e every} result (e.g. all retailers sell apparel)
    tells the user nothing about which result to open, while a feature rare
    across results is discriminating.

    Distinctiveness is IDF-shaped: [ln ((1 + R) / (1 + rf)) + 1] where [R]
    is the number of results and [rf] the number of results in which the
    feature appears at all. Applying the differentiator re-ranks each
    result's dominant-feature block by [DS × distinctiveness] — keywords,
    entity names and the key are untouched. With a single result the
    re-ranking is a no-op (all distinctiveness equal). *)

type t

val make : Feature.analysis list -> t
(** [make analyses] over the feature analyses of all results of one
    query. *)

(* lint: allow unused-export *)
val result_frequency : t -> Feature.t -> int
(** Number of results whose analysis contains the feature. Test use only:
    test/test_extensions.ml ["idf"] (ext.differentiator). *)

val distinctiveness : t -> Feature.t -> float
(** >= 1 for features absent from other results; lower the more results
    share the feature. *)

val apply : t -> Ilist.t -> Ilist.t
(** Re-rank the IList's dominant-feature block by [DS × distinctiveness]. *)

val report : t -> (Feature.t * int * float) list
(** Every feature seen across the query's results with its result
    frequency and distinctiveness — most distinctive first, ties broken
    by the feature triplet, so the readout is deterministic. Feeds the
    explain bundle's [differentiator] section. *)
