(** Domain-safe N-way sharded LRU cache.

    {!Lru} is deliberately single-threaded; a multi-domain server that
    shares one cache needs locking, and one global lock would serialize
    every worker on the hottest structure in the process. This wraps [S]
    independent {!Lru} shards, each behind its own mutex, with keys
    routed by [Hashtbl.hash]: an operation locks exactly one shard, so
    workers contend only on hash collisions. Recency is per shard — a
    cheap approximation of global LRU (eviction pressure lands on the
    shard the key hashes to, not on the globally coldest entry), which
    is the standard trade for lock-free-adjacent scaling.

    All operations are linearizable per key (same key → same shard →
    same lock). Cross-shard reads ({!length}, {!stats}, {!shard_stats})
    lock shards one at a time, so they are consistent per shard but only
    approximately consistent across the whole cache under concurrent
    writes — fine for metrics, which is what they are for. *)

type ('k, 'v) t

type shard_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val create : capacity:int -> ('k, 'v) t
(** [capacity] is the total across shards (split evenly, rounded up).
    The cache is striped 8 ways, clamped so every shard holds at least 8
    entries (a cache of capacity ≤ 15 gets one shard), because tiny
    shards turn hash collisions into spurious evictions. {!shards}
    reports the effective width. @raise Invalid_argument when
    [capacity <= 0]. *)

val shards : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int
(** Total capacity, summed over shards (≥ the requested capacity). *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes the entry's recency within its shard on a hit. *)

(* lint: allow unused-export *)
val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find} but promotes nothing and counts nothing. Test use only:
    test/test_pool.ml probes the cache with it. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace; evicts the least recently used entry {e of the
    key's shard} when that shard is full. *)

(* lint: allow unused-export *)
val remove : ('k, 'v) t -> 'k -> unit
(** Test use only: test/test_pool.ml ["peek mem remove clear"]. *)

val stats : ('k, 'v) t -> int * int
(** (hits, misses) summed over shards. *)

val evictions : ('k, 'v) t -> int
(** Capacity evictions summed over shards. *)

val shard_stats : ('k, 'v) t -> shard_stats array
(** Per-shard counters, index = shard number; uses {!Lru.stats} /
    {!Lru.evictions} / {!Lru.length}, which promote nothing. *)
