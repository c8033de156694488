(** Crash-safe live corpus store.

    A directory holding a generation-numbered {!Snapshot} (the {e base}:
    a combined arena of every member document under a synthetic
    [corpus] root, its index, its analysis and its member names — the
    i-th name belongs to the root's i-th element child) and a
    write-ahead {!Journal}. Updates are journalled — fsync'd — before
    they touch memory, applied as an in-memory overlay (tombstoned base
    members plus per-document {e delta} segments), and folded back into
    a new base by {!compact}, which derives the new base's analysis once
    and writes the next generation with {!Snapshot.save} (temp + fsync +
    rename) before resetting the journal. Recovery spends the newest
    generation's section digests ({!Snapshot.verify}), maps it and
    adopts its stored analysis, deriving nothing.

    Crash contract: killing the process at {e any} instant — including
    between any two syscalls of an update or compaction — leaves the
    directory recoverable by {!open_dir} to either the state before the
    interrupted operation or the state after it, never a third state.
    The crash harness in [test/crash] proves this point by point.

    Concurrency: readers call {!view} (a single [Atomic.get]; never
    blocks, never sees a half-applied update); writers serialise on an
    internal mutex. One process per directory — there is no inter-process
    lock file.

    Fault points: [snapshot.read] (raises [Codec.Corrupt], exercising
    generation fallback), {!Snapshot.save}'s [snapshot.write] and
    [snapshot.rename], [live.apply] (after the journal fsync, before the
    in-memory apply), [live.prune], plus the {!Journal} points. *)

type delta = {
  delta_doc : Document.t;
  delta_index : Inverted_index.t;
}

type view = {
  generation : int;  (** snapshot generation the base was loaded from *)
  doc : Document.t;  (** combined base arena, synthetic root at node 0 *)
  index : Inverted_index.t;  (** index over [doc] *)
  analysis : Key_miner.t;
      (** the base's analysis (keys, classification, dataguide) over
          [doc]: derived by {!compact}, adopted from the snapshot on
          recovery *)
  members : (string * Document.node) list;
      (** base member subtree roots, in document order — including
          tombstoned ones *)
  tombstones : string list;  (** base members hidden by later updates *)
  deltas : (string * delta) list;
      (** live additions in insertion order; a name here shadows any
          base member of the same name *)
}
(** An immutable picture of the corpus at one instant. Queries run
    against a view and are unaffected by concurrent updates. *)

type t

val open_dir : ?read_only:bool -> ?on_warning:(string -> unit) -> string -> t
(** Open (creating if absent) a live-store directory and recover: load
    the newest readable snapshot generation (falling back to older ones
    on damage), truncate a torn journal tail, and replay the journal
    records after the last checkpoint. [on_warning] receives one line
    per repair action (torn tail, fallback, skipped stale records,
    stray temp files). With [read_only] nothing on disk is modified —
    no directory creation, no truncation, no self-healing, no pruning —
    and mutations raise [Invalid_argument]; this is what [extract check]
    uses. A generation is readable when its section digests match and
    its member names match the root's element children.
    @raise Codec.Corrupt when no snapshot generation is readable or the
    journal is damaged before its final record.
    @raise Invalid_argument when the path is not a directory, or does
    not exist and [read_only] is set. *)

val close : t -> unit
(** Close the journal handle. The store stays queryable. *)

val view : t -> view
(** The current view — one atomic read, safe from any domain. *)

val pending_updates : t -> int
(** Journal records applied since the last checkpoint: the records a
    crash right now would replay on recovery. Starts at the recovery
    replay count, grows with {!add}/{!remove}, returns to 0 on
    {!compact}. The runtime collector publishes it as the
    [extract_live_journal_lag] gauge. *)

val mask : view -> (int * int) array
(** Sorted, disjoint, inclusive node-id intervals of the {e visible}
    base subtrees — the argument for [Eval_ctx.make ~mask] that hides
    tombstoned members (and the synthetic root) from base-index query
    evaluation. *)

val member_names : view -> string list
(** Visible member names: base minus tombstones, then deltas. *)

(** {1 Updates (single writer, readers never block)} *)

val validate_name : string -> unit
(** Refuse a name no member may have: empty, or containing ['/'] or NUL.
    {!add} checks it too; [extract add] checks it before it opens (and
    so creates) the store.
    @raise Invalid_argument naming the fault. *)

val add : t -> name:string -> xml:string -> unit
(** Add — or replace, when the name exists — a member document. The
    XML is parsed {e before} journalling, so unparsable input fails
    cleanly and never poisons the journal.
    @raise Extract_xml.Error.Parse_error on malformed XML.
    @raise Invalid_argument on an empty name, a name containing ['/']
    or NUL, or a read-only store. *)

val remove : t -> string -> bool
(** Remove a member by name. [false] (and no journal traffic) when no
    such member is visible. *)

val compact : t -> int
(** Fold the overlay into a fresh combined base, seal it as the next
    snapshot generation, reset the journal to a single checkpoint and
    prune older generations. Returns the new generation. Queries keep
    running against the old view until the swap. *)

(** {1 Layout (for [extract check] and tests)} *)

val journal_path : string -> string
(** [dir/journal.wal]. *)

val snapshot_path : string -> int -> string
(** [dir/gen-%08d.snap]. *)

val generations : string -> int list
(** Snapshot generations present in a directory, ascending. *)
