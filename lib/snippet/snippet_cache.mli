(** Query-level LRU cache of search + snippet results.

    A production snippet service sees the same hot queries over and over;
    re-running search, feature analysis and instance selection for each
    repeat wastes the whole hot path. This cache memoizes complete
    {!Pipeline.run} outputs keyed by (database id, semantics, normalized
    query, bound, limit, config) with LRU eviction
    ({!Extract_util.Lru}). Hit/miss counters are exposed for
    observability; the demo server surfaces them on its stats page.

    One cache may serve several databases: keys embed {!Pipeline.id}.
    Cached values are shared (the same [snippet_result list] is returned
    on every hit) and immutable by construction.

    {b Domain-safe}: the cache is an {!Extract_util.Sharded_lru} — keys
    are routed by hash to independent mutex-guarded shards, so the
    domain-pool server's workers share one cache and contend only on
    hash collisions. The shard lock is not held while a miss runs the
    pipeline: concurrent misses on the same key may compute twice, and
    the last insert wins — both compute the same immutable answer. *)

type t

val create : ?capacity:int -> ?shards:int -> unit -> t
(** [capacity] bounds the total number of cached query entries across
    shards (default 128); [shards] is the lock-striping width (default
    8 — one global lock is [~shards:1]). *)

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  t ->
  Pipeline.t ->
  string ->
  Pipeline.snippet_result list
(** Cached {!Pipeline.run}: on a miss, runs the pipeline and stores the
    outcome. The query string is normalized ({!Extract_search.Query}), so
    ["Texas, APPAREL"] and ["texas apparel"] share an entry. An outcome
    containing any [degraded] result is returned but {e not} cached — the
    degradation reflects transient pressure, not the query's answer
    (the deadline is deliberately absent from the key). *)

val stats : t -> int * int
(** (hits, misses) since creation or {!clear}. *)

val hit_rate : t -> float
(** hits / (hits + misses); 0 before any lookup. *)

val length : t -> int

val capacity : t -> int

val evictions : t -> int
(** Entries evicted by capacity pressure since creation or {!clear}. *)

val shard_stats : t -> Extract_util.Sharded_lru.shard_stats array
(** Per-shard hit/miss/eviction/occupancy counters (index = shard); the
    demo server aggregates these into the metrics registry. *)

(* lint: allow unused-export *)
val clear : t -> unit
(** Test use only: test/test_hotpath.ml ["clear resets"]. *)
