(** Search-engine facade.

    Snippet generation is orthogonal to result generation (paper §3: "the
    query results can be generated by any XML keyword search engine"); this
    facade exposes the three engines implemented in this repository behind
    one signature so the pipeline and the benchmarks can swap them. *)

type semantics =
  | Slca    (** smallest LCAs [7] *)
  | Elca    (** exclusive LCAs, XRank-style [2] *)
  | Xseek   (** entity return nodes over SLCAs [6] — the demo's engine *)
  | Xsearch (** interconnection relation, XSearch-style [1] *)

val run :
  ?semantics:semantics ->
  ?limit:int ->
  Extract_store.Inverted_index.t ->
  Extract_store.Node_kind.t ->
  Query.t ->
  Result_tree.t list
(** Execute a keyword query. Defaults: [Xseek] semantics, no limit. Each
    result is the whole subtree of its root ({!Result_tree.full}).
    Results come in document order; [limit] keeps the first [limit]. An
    empty query or a keyword with no match yields []. *)

val run_ctx :
  ?semantics:semantics ->
  ?limit:int ->
  Eval_ctx.t ->
  Extract_store.Node_kind.t ->
  Result_tree.t list
(** Like {!run} on a pre-built evaluation context: the posting lists were
    resolved once by {!Eval_ctx.make} and are reused here and by every
    downstream stage holding the same context. *)

val semantics_of_string : string -> semantics option

val string_of_semantics : semantics -> string

val all_semantics : semantics list

val merge_scored : ?limit:int -> (float * 'a) list array -> (float * (int * 'a)) list
(** K-way merge of per-source scored lists (each sorted best-first) into
    one globally ranked list, tagging every item with its source index.
    Ties break toward the lower source index; order within a source is
    preserved. [limit] keeps the best [limit] overall. Nothing in the
    library calls it: {!Extract_snippet.Shard_set.run} merges through
    {!Extract_snippet.Pipeline.run_merged}, which orders hits the same
    way; perfbench's traced sharded replay still uses it. *)

val run_relaxed :
  ?semantics:semantics ->
  ?limit:int ->
  Extract_store.Inverted_index.t ->
  Extract_store.Node_kind.t ->
  Query.t ->
  Result_tree.t list * string list
(** Like {!run}, but when the conjunctive query has no results, repeatedly
    drop the rarest keyword (lowest document frequency — the most likely
    over-specification) and retry. Returns the results plus the dropped
    keywords in drop order ([[]] when nothing was dropped). A query whose
    every keyword is unknown ends as [([], all keywords but one)]. *)
