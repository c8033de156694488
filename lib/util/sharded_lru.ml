(* N-way sharded LRU: a mutex-guarded Lru per shard, keys routed by
   hash. Each operation locks exactly one shard, so concurrent domains
   contend only when their keys collide on a shard — with S shards and
   uniform hashing, expected contention drops by S versus one global
   lock, and recency is tracked per shard (an approximation of global
   LRU that costs nothing to maintain). *)

type shard_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type ('k, 'v) shard = {
  lock : Mutex.t;
  lru : ('k, 'v) Lru.t; (* guarded-by: lock *)
}

type ('k, 'v) t = ('k, 'v) shard array

(* Tiny shards defeat the point: with one- or two-entry shards, any two
   live keys colliding on a shard evict each other even though the cache
   as a whole is nearly empty. Clamp the stripe width so every shard
   holds at least this many entries — small caches silently use fewer
   shards (down to one) rather than becoming collision-evicting sieves. *)
let min_per_shard = 8

let stripes = 8

let create ~capacity =
  if capacity <= 0 then invalid_arg "Sharded_lru.create: capacity must be positive";
  let shards = max 1 (min stripes (capacity / min_per_shard)) in
  (* ceil division: total capacity is at least the requested one *)
  let per_shard = (capacity + shards - 1) / shards in
  Array.init shards (fun _ ->
      { lock = Mutex.create (); lru = Lru.create ~capacity:per_shard })

let shards t = Array.length t

let shard_of t key = t.((Hashtbl.hash key land max_int) mod Array.length t)

let with_shard shard f =
  Mutex.lock shard.lock;
  match f shard.lru with
  | x ->
    Mutex.unlock shard.lock;
    x
  | exception e ->
    Mutex.unlock shard.lock;
    raise e

let find t key = with_shard (shard_of t key) (fun lru -> Lru.find lru key)

let peek t key = with_shard (shard_of t key) (fun lru -> Lru.peek lru key)

let put t key value = with_shard (shard_of t key) (fun lru -> Lru.put lru key value)

let remove t key = with_shard (shard_of t key) (fun lru -> Lru.remove lru key)

let fold_shards t f init =
  Array.fold_left (fun acc s -> with_shard s (fun lru -> f acc lru)) init t

let length t = fold_shards t (fun acc lru -> acc + Lru.length lru) 0

let capacity t = fold_shards t (fun acc lru -> acc + Lru.capacity lru) 0

let stats t =
  fold_shards t
    (fun (h, m) lru ->
      let sh, sm = Lru.stats lru in
      (h + sh, m + sm))
    (0, 0)

let evictions t = fold_shards t (fun acc lru -> acc + Lru.evictions lru) 0

let shard_stats t =
  Array.map
    (fun s ->
      with_shard s (fun lru ->
          let hits, misses = Lru.stats lru in
          {
            hits;
            misses;
            evictions = Lru.evictions lru;
            entries = Lru.length lru;
            capacity = Lru.capacity lru;
          }))
    t
