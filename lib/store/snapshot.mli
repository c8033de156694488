(** Index format v2: flat, offset-based arena snapshots, mapped on load.

    A snapshot is one file — a 4096-byte header page followed by
    page-aligned sections: the arena's four int columns, the dataguide's
    per-node path column and the text blob stored as raw native
    words/bytes, plus small {!Codec}-encoded meta (DTD, tag names),
    index (vocabulary, {!Packed_postings}, tag-token pairs) and analysis
    (path table, kinds, star flags, key candidates and keys) sections.
    {!load_analyzed} [Unix.map_file]s the bulk sections straight into
    the {!Document.Flat} and {!Dataguide} columns and adopts the stored
    analysis, so cold-start cost is the page table, not the corpus and
    not the Data Analyzer — against {!Persist}'s v1 bundles, which
    decode every node and text string and re-derive the analysis on
    every load (benchmark E22 measures the gap).

    Integrity story: the header records a per-section MD5 and the
    arena's {!Persist.fingerprint}. Load range-checks every header
    number, verifies structure (magic, version, endianness probe, word
    size, section table, lengths) and validates the analysis section
    whole, but deliberately not the bulk digests — checksumming the
    corpus would re-read it and defeat the O(1) start. [extract check]
    calls {!verify}, which spends the recorded digests and re-derives
    the fingerprint, then derives the analysis from the mapped arena and
    compares it with the stored one ([Check.check_snapshot]).
    See DESIGN.md §15 for the layout diagram and migration rules.

    Fault points: ["snapshot.pack"] in {!save}, ["snapshot.map"] in
    {!load} (distinct from the live store's ["snapshot.read"/"write"]
    generation files). *)

val magic : string
(** ["XTRSNAP2"], {!Codec}-string-prefixed like every Persist magic, so
    {!Persist.sniff_magic} dispatches snapshot files unchanged. *)

val version : int
(** [2]. A version-1 snapshot (no stored analysis) is refused with a
    message naming [extract pack]. *)

val encode : Key_miner.t -> Inverted_index.t -> string
(** The complete snapshot image (header page + padded sections) of the
    keys' document, its analysis (the keys, their classification and
    dataguide) and its index. *)

val save : string -> Key_miner.t -> Inverted_index.t -> unit
(** Write atomically (temp file + rename). The index section stores the
    index's packed lists as they are. @raise Sys_error on IO failure. *)

val load_analyzed : string -> Key_miner.t * Inverted_index.t
(** Map a snapshot. The document's and the dataguide's columns are
    backed by the file (private, read-only mapping; the mapping outlives
    the fd). The analysis is adopted as stored, with no derivation; the
    index is assembled from the decoded packed lists without unpacking
    them ({!Inverted_index.Internal.of_packed}).
    @raise Codec.Corrupt on a header number out of range, structural
    damage, foreign endianness or word size, an older version, an
    analysis section that fails validation (a parent after its path, a
    tag or kind out of range, a key or candidate that is not an
    attribute child of its entity, instance counts that do not sum to
    the element count) or an index/arena fingerprint mismatch.
    @raise Codec.Truncated on an empty or short file (path and expected
    magic included). *)

val load : string -> Document.t * Inverted_index.t
(** {!load_analyzed} without the analysis. *)

(** {1 Deep verification} *)

type stats = {
  v_node_count : int;
  v_element_count : int;
  v_fingerprint : string;
  v_sections : (string * int) list; (** name, exact byte length *)
  v_file_bytes : int;
}

val verify : string -> stats
(** Re-read every section, check its recorded MD5, materialize the arena
    and confirm it re-derives the header fingerprint. O(file) — the
    [extract check --index] path, not the serving path.
    @raise Codec.Corrupt naming the damaged section. *)
