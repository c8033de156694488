(** Bounded LRU cache.

    The demo server answers repeated queries; caching (query, bound) →
    rendered page keeps hot queries cheap. Plain association of hashable
    keys to values with least-recently-used eviction; O(1) amortized per
    operation (hash table + doubly linked list).

    {b Locking story: not thread-safe, by design.} Every operation —
    including a {!find} hit, which rewires the recency list — mutates
    unsynchronized state, so a bare cache must only ever be driven from
    one thread. Single-threaded callers (the CLI verbs) use this module
    directly. The observability counters recorded around cache
    operations take the {!Extract_obs.Registry} mutex themselves and need
    nothing from the cache.

    {b Sharded locking story.} A cache shared across domains (the demo
    server's page cache under the domain-pool transport)
    must go through {!Sharded_lru}, which routes keys by hash to [S]
    independent [Lru] shards, each behind its own mutex: every operation
    — including {!find}, because of the recency rewiring — runs under
    exactly one shard lock, and workers contend only on hash collisions.
    The per-shard mutex must wrap {e every} entry point of this module;
    {!peek} and the read-only accessors ({!stats}, {!length},
    {!evictions}) mutate nothing but still race against concurrent
    writers, so {!Sharded_lru} locks for those too. Do not add ad-hoc
    locking around a bare [Lru] elsewhere — share through [Sharded_lru]
    so the locking discipline lives in one place. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument when [capacity <= 0]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes the entry's recency on a hit. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** [find] without promotion: refreshes no recency and counts no
    hit/miss — a pure probe, for code (shard statistics, tests,
    debugging views) that must observe the cache without perturbing
    eviction order. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace; evicts the least recently used entry when full. *)

(* lint: allow unused-export *)
val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Cached call: on a miss, compute, insert, return. Test use only:
    test/test_server.ml ["find_or_add"]. *)

val remove : ('k, 'v) t -> 'k -> unit

val stats : ('k, 'v) t -> int * int
(** (hits, misses) since creation. *)

val evictions : ('k, 'v) t -> int
(** Entries evicted by capacity pressure ({!remove} does not count)
    since creation. *)
