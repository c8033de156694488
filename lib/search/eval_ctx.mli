(** Per-query evaluation context.

    One query used to re-resolve its posting lists at every stage: once in
    [Engine.run], again per result in IList construction and query-biased
    scoring. An [Eval_ctx]
    resolves each keyword's posting list exactly once and is threaded
    through the engine and the snippet pipeline; all later stages answer
    "which matches fall under this node" by subtree-interval binary search
    ({!Extract_store.Postings}) over the cached lists. The context is
    immutable after {!make} and safe to share across domains. *)

module Document = Extract_store.Document

type t

val make : ?mask:(int * int) array -> Extract_store.Inverted_index.t -> Query.t -> t
(** Resolve every keyword of the query against the index, once. [mask],
    when given, is a sorted array of disjoint inclusive node-id
    intervals: postings outside every interval are dropped during
    resolution, so all downstream algorithms see only visible nodes.
    The live store uses this to hide tombstoned member subtrees (and
    its synthetic corpus root) without rebuilding the index. An empty
    mask hides everything. *)

val index : t -> Extract_store.Inverted_index.t

val query : t -> Query.t

val document : t -> Document.t

val postings : t -> string -> Document.node array
(** The cached posting list of a query keyword (the shared array — do not
    mutate). Falls back to an index lookup for a keyword outside the
    query. *)

val lists : t -> Document.node array list
(** All posting lists, in query-keyword order. *)
