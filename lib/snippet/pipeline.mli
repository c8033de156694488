(** End-to-end driver: the whole Fig. 4 architecture behind two calls.

    [build] runs the offline side — Data Analyzer (dataguide, star
    inference, node classification), key mining, Index Builder. [run]
    executes the online side for one query: search engine → per-result
    IList (Return Entity Identifier, Query Result Key Identifier, Dominant
    Feature Identifier) → Instance Selector → snippet trees. *)

module Document = Extract_store.Document

type t
(** An analyzed, indexed database. *)

val build : Document.t -> t

val of_xml_string : string -> t
(** Parse, analyze and index an XML string. *)

val of_file : string -> t

val of_parts : Document.t -> Extract_store.Inverted_index.t -> t
(** Analyze an arena that already has its index (how {!Live_corpus}
    wraps the live store's delta segments): classification and keys are
    derived, the given index is reused. *)

val of_analysis : Extract_store.Key_miner.t -> Extract_store.Inverted_index.t -> t
(** A database from an analysis that was already derived — the keys,
    their classification, dataguide and document — and its index, as
    {!Extract_store.Snapshot.load_analyzed} maps them and a live store's
    base carries them: nothing is derived. Like every constructor it runs under the [pipeline.build]
    span and histogram and notifies the observer. *)

val save_snapshot : string -> t -> unit
(** Write an mmap snapshot ({!Extract_store.Snapshot.save}) —
    [extract pack]'s format, which carries the analysis.
    {!load_snapshot} maps the arena instead of decoding it and adopts
    the analysis instead of deriving it, so cold-start is O(1) in the
    corpus. *)

val load_snapshot : string -> t
(** Map a snapshot written by {!save_snapshot} and adopt its analysis
    ({!of_analysis}); none of the dataguide, the classification or the
    keys is derived.
    @raise Extract_store.Codec.Corrupt on structural damage, an invalid
    analysis section or an older snapshot version. *)

val document : t -> Document.t

val kinds : t -> Extract_store.Node_kind.t

val keys : t -> Extract_store.Key_miner.t

val index : t -> Extract_store.Inverted_index.t

val dataguide : t -> Extract_store.Dataguide.t

type snippet_result = {
  result : Extract_search.Result_tree.t;
  ilist : Ilist.t;
  selection : Selector.selection;
  degraded : bool;
      (** [true] when the per-request deadline expired (or a
          ["pipeline.snippet"] fault fired) before this result's turn: the
          snippet is the cheap {!Naive_baseline} truncation, [ilist] is
          {!Ilist.empty} and [selection] carries no coverage accounting.
          Callers surface this rather than failing the whole request. *)
}

(** {1 Stage observation}

    A seam for opt-in invariant assertions at pipeline stage boundaries:
    {!Extract_check.Check.install_from_env} installs an observer when the
    [EXTRACT_CHECK] environment variable is set. With no observer
    installed (the default) the hooks cost one reference read. *)

type observer = {
  on_built : t -> unit;
      (** After a build or load: the analyzed database is complete. *)
  on_results : t -> Extract_search.Result_tree.t list -> unit;
      (** After the search engine, before snippet generation. *)
  on_snippets : t -> snippet_result list -> unit;
      (** After snippet generation, before results are returned. *)
}

val set_observer : observer option -> unit
(** Install (or with [None] remove) the process-wide stage observer. *)

val default_bound : int
(** 10 edges, the demo's default ballpark. *)

(** {1 Deadlines}

    Every run variant takes an optional [?deadline]
    ({!Extract_util.Deadline.t}, default {!Extract_util.Deadline.never}).
    The deadline is checked once per returned result, before that
    result's snippet work starts: results reached after expiry degrade to
    the {!Naive_baseline} snippet (tagged [degraded = true]) instead of
    aborting the request. A request therefore always returns one snippet
    per result it returns — the tail of the list just gets cheaper
    snippets when the budget runs out. *)

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  ?mask:(int * int) array ->
  t ->
  string ->
  snippet_result list
(** [run t query_string] — the full demo interaction of Fig. 5. Defaults:
    XSeek semantics, [default_bound], no result limit, no deadline. One
    {!Extract_search.Eval_ctx} is built per call: every keyword's posting
    list is resolved exactly once and shared by the engine, IList
    construction and query-biased scoring. [mask] (here and on every run
    variant) restricts evaluation to visible node-id intervals — see
    {!Extract_search.Eval_ctx.make}; the live corpus passes the interval
    set that hides tombstoned members. *)

val run_ranked :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  ?mask:(int * int) array ->
  t ->
  string ->
  (float * snippet_result) list
(** Like {!run} but results come ranked by the XRank-style score (best
    first), and [limit] keeps the top-scored results rather than the first
    in document order: {!run_merged} over this one database. *)

(** {1 Ranked runs over several databases} *)

type hit = {
  segment : int;  (** the index of the hit's segment in {!run_merged}'s list *)
  source : string;  (** which database or member the hit comes from *)
  score : float;
  snippet : snippet_result;
}

type segment = {
  db : t;
  mask : (int * int) array option;  (** see {!run} *)
  source_of : Extract_search.Result_tree.t -> string option;
      (** the hit's source, or [None] to drop the result *)
  span : (string * (string * string) list) option;
      (** a trace span ([name], [args]) around this segment's rank stage *)
}

val run_merged :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  segment list ->
  string ->
  hit list
(** One query over several databases, ranked as one list. Runs in two
    stages: {e rank} searches every segment with no limit and scores
    every result from the posting lists its {!Extract_search.Eval_ctx}
    resolved ({!Extract_search.Ranker}), with no snippet; the results
    with a source are sorted by decreasing score (ties: source name,
    then segment and document order). [limit] cuts the sorted list, and
    only then does {e snippet} generate snippets, in rank order, each
    checked against the shared [deadline] before its work starts. Each
    segment's search records its own stage histogram and span, and its
    observer and [query.done] log line see the hits it contributed; the
    snippet stage is timed once, over all segments' hits.
    {!Corpus.run}, {!Live_corpus.run} and {!Shard_set.run} are built on
    it. *)

val run_differentiated :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  ?mask:(int * int) array ->
  t ->
  string ->
  snippet_result list
(** Like {!run}, but after building every result's IList the
    {!Differentiator} re-ranks dominant features by cross-result
    distinctiveness, so the snippets of a multi-result answer emphasize
    what sets each result apart. {!Feature.analyze} runs exactly once per
    result: the same analysis feeds the differentiator and that result's
    IList. Degraded results take no part in cross-result scoring. *)

val search :
  ?semantics:Extract_search.Engine.semantics ->
  ?limit:int ->
  ?mask:(int * int) array ->
  t ->
  string ->
  Extract_search.Result_tree.t list
(** Search only (no snippets). *)

val snippet_of :
  ?config:Config.t ->
  ?bound:int ->
  t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  snippet_result
(** Snippet generation for one externally produced query result — the
    paper's orthogonality claim: results may come from any engine. *)

val ilist_of :
  ?config:Config.t ->
  t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  Ilist.t
