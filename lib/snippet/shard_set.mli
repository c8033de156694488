(** Multi-document sharding: split one corpus into N independently
    analyzed shards, query them as the segments of one ranked merge
    ({!Pipeline.run_merged}).

    A shard is built from a contiguous group of the global root's child
    subtrees: shard-local node 0 is a copy of the global root, local ids
    [1..len] are the global block [[global_first, global_last]] shifted
    down, so provenance is two integers per shard and translating a
    result root back to a global node id is one addition
    ({!to_global}). Depths, tags and texts are unchanged; only parents
    shift (the group's top-level children re-parent to the shard root).

    Divergence from unsharded evaluation, by design: results rooted at
    the shard-local root are dropped — such a root stands for only part
    of the real document root, so its subtree (and any snippet built
    from it) would silently miss the other shards' content. Queries
    whose only connection runs through the global root therefore return
    fewer results than {!Pipeline.run_ranked} on the whole corpus;
    everything rooted strictly below the top-level children is
    identical (test [shard.query] "slca equivalence").

    Persistence is a directory: one v2 {!Extract_store.Snapshot} per
    shard plus a sealed manifest ([shards.manifest], magic
    ["XTRSHRDS"]) recording each shard's file and provenance interval —
    so a sharded corpus cold-starts as N O(1) mappings. *)

type t

val split : ?shards:int -> Pipeline.Document.t -> t
(** Partition [doc] into at most [shards] (default 4) shards of roughly
    equal node weight, analyzing and indexing each
    ({!Pipeline.build}). The shard count is clamped to the number of
    top-level children; a document with one child yields one shard. *)

val shard_count : t -> int

val shard_db : t -> int -> Pipeline.t

val provenance : t -> int -> int * int
(** [(global_first, global_last)] — the inclusive global node-id block
    shard [i]'s local ids [1..] map onto. *)

val to_global : t -> shard:int -> int -> int
(** Translate a shard-local node id to the global id (local 0 — the
    copied root — maps to global 0). *)

val translate_mask : t -> shard:int -> (int * int) array -> (int * int) array
(** Project a global visibility mask (see {!Extract_search.Eval_ctx})
    onto one shard: intersect with the shard's block, shift to local
    ids, and keep the local root visible iff the global root is. A mask
    that hides the whole block yields [[|(0, 0)|]] — every posting
    filtered, no results, matching the global evaluation of that
    region. *)

type hit = {
  shard : int;
  score : float;
  global_root : int; (** the result root translated via {!to_global} *)
  result : Pipeline.snippet_result;
}

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?mask:(int * int) array ->
  ?deadline:Extract_util.Deadline.t ->
  t ->
  string ->
  hit list
(** One {!Pipeline.run_merged} pass with one segment per shard: every
    shard is ranked, the results rooted below the shard roots are
    sorted best first (ties toward the lower shard index), cut at
    [limit], and only the kept hits are snippeted. [mask] is a
    global-id mask, translated per shard. [deadline] is checked before
    each kept hit's snippet, so a sharded query degrades on budget
    exhaustion exactly like a flat one. When tracing, each shard's rank
    stage records a [shard.run{shard=i}] span under the caller's open
    span. *)

(** {1 Persistence} *)

val save_dir : string -> t -> unit
(** Write [dir/shards.manifest] plus one [dir/shard-NN.snap] v2 snapshot
    per shard. Creates [dir] if missing; the manifest is written last
    (temp + rename), so a complete manifest implies complete shards. *)

val load_dir : string -> t
(** Load a directory written by {!save_dir}: maps every shard snapshot
    ({!Extract_store.Snapshot.load}) and re-derives the cheap analysis
    ({!Pipeline.of_parts}).
    @raise Extract_store.Codec.Corrupt on a damaged manifest or
    snapshot, and [Codec.Truncated] on an empty manifest (path and
    magic named). *)

val is_shard_dir : string -> bool
(** [true] iff [path] is a directory containing [shards.manifest]. *)
