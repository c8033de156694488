(** Invariant verifier ("fsck") for built artifacts.

    The pipeline's hot paths (interval binary search, SLCA merges, greedy
    instance selection) silently assume deep structural invariants:
    pre-order arenas whose subtree intervals nest, Dewey labels in strict
    document order, sorted and deduplicated posting lists that agree with
    the document, a dataguide consistent with every node's root path, and
    snippets that stay connected rooted trees within the edge bound. This
    module checks all of them explicitly.

    Three consumers:

    - the [extract check] CLI verb, over any dataset, snapshot, shard
      directory or live store;
    - the test suite, which runs {!all} against every bundled generator;
    - opt-in debug assertions at pipeline stage boundaries, enabled by
      setting the [EXTRACT_CHECK] environment variable
      ({!install_from_env}). *)

module Document = Extract_store.Document
module Pipeline = Extract_snippet.Pipeline

type issue = {
  area : string;  (** "document", "dewey", "index", "dataguide", "snippet" *)
  what : string;  (** human-readable description of the violated invariant *)
}

exception Violation of issue list
(** Raised by the [EXTRACT_CHECK] stage assertions when issues were
    found. *)

val issue_to_string : issue -> string

(** {1 Artifact checkers}

    Each checker returns the violations found (empty = clean). Issue lists
    are truncated per area after a fixed cap so a systematically corrupt
    artifact reports a digest, not millions of lines. *)

(* lint: allow unused-export *)
val check_document : Document.t -> issue list
(** Arena structure: root/parent/depth agreement, subtree intervals that
    nest and partition, text nodes as leaves — plus Dewey labels: strict
    document order of consecutive labels, label length = node depth, and
    label-based LCA agreeing with the parent-walk LCA. A seam of the [check_*]
    family that {!all} composes: test/test_check.ml feeds it corrupted arenas
    directly. *)

(* lint: allow unused-export *)
val check_index : Extract_store.Inverted_index.t -> issue list
(** Posting lists sorted strictly ascending (hence deduplicated), every
    posting a live element node that actually matches its token, and
    postings↔document agreement: the index is rebuilt from the document
    and compared token by token, so both missing and phantom postings are
    reported. A seam of the [check_*] family that {!all} composes:
    test/test_check.ml feeds it corrupted indexes directly. *)

(* lint: allow unused-export *)
val check_selection : ?degraded:bool -> Extract_snippet.Selector.selection -> issue list
(** Snippet output: connected (every node's parent present, up to the
    result root), rooted at the result root, within the edge bound
    ([edge_count = element_count - 1 <= bound]), covered costs summing to
    the edge count, and every covered item's instance present in the
    snippet ("all features present"). With [~degraded:true] (a
    deadline-expired {!Pipeline.snippet_result}) the cost-sum identity is
    skipped: a baseline snippet's edges are bought by no covered item. A seam
    of the [check_*] family: test/test_check.ml feeds it corrupted selections
    directly. *)

(* lint: allow unused-export *)
val check_analysis :
  derived:Extract_store.Key_miner.t -> Extract_store.Key_miner.t -> issue list
(** [check_analysis ~derived stored] (area ["analysis"]) reports every
    difference between two analyses of one document, typically a
    snapshot's stored analysis and its re-derivation: every node's path;
    every path's parent, tag, depth, instance count, kind, starred flag
    and star source; and every entity path's key candidates (statistics
    compared bit for bit), key and strict key. A seam of the [check_*] family
    that {!check_snapshot} runs: test/test_oracle.ml compares analyses with
    it. *)

val check_snapshot : string -> issue list
(** fsck for a snapshot (area ["snapshot"]): the deep pass
    {!Extract_store.Snapshot.load_analyzed} deliberately skips — every
    recorded section digest is spent and the arena fingerprint
    re-derived ({!Extract_store.Snapshot.verify}) — followed by
    {!check_document}/{!check_index} over the mapped database and
    {!check_analysis} of the stored analysis against one derived from
    the mapped arena. An empty or truncated file is one issue naming the
    path and expected magic. *)

val check_live : string -> issue list * string list
(** fsck for a live-store directory (area ["live"]): journal readability
    and checkpoint/snapshot-generation agreement, {!check_snapshot} of
    the newest generation (the one recovery adopts unless it is
    damaged), read-only recovery (section digests, generation fallback,
    replay), tombstones that name base members, and
    {!check_document}/{!check_index} over every delta segment. Returns
    [(issues, notes)]: issues are
    real damage; notes are benign crash leftovers — a torn journal tail,
    a stale checkpoint, stray temp files — that the next writable
    {!Extract_store.Live.open_dir} repairs. *)

(** {1 Whole-database checks} *)

(* lint: allow unused-export *)
val check_query :
  ?semantics:Extract_search.Engine.semantics ->
  ?bound:int ->
  Pipeline.t ->
  string ->
  issue list
(** Run the full snippet pipeline for one query and validate every
    result's IList and selection. A seam of the [check_*] family that
    {!all} composes: test/test_check.ml runs it on degraded queries. *)

val probe_queries : Pipeline.t -> string list
(** Deterministic default workload for {!all}: the two most frequent
    indexed tokens as single-keyword queries plus their conjunction. *)

val all : ?queries:string list -> Pipeline.t -> issue list
(** {!check_document}, {!check_index} and the dataguide checks, plus
    {!check_query} over [queries] (default
    {!probe_queries}). The test suite runs this against every bundled
    generator; [extract check] runs it over any loaded database. *)

(** {1 Pipeline stage assertions} *)

(* lint: allow unused-export *)
val install_pipeline_observer : unit -> unit
(** Install a {!Pipeline.set_observer} hook that checks the document, index
    and dataguide after every build/load and every produced snippet
    ({!check_selection}), raising {!Violation} on the first corrupt
    stage. Test seam: test/test_check.ml installs it
    directly. *)

val install_from_env : unit -> unit
(** {!install_pipeline_observer} when [EXTRACT_CHECK] is set to anything
    but [""] or ["0"]; no-op otherwise. Entry points (CLI, demo server,
    test runner) call this at startup. *)
