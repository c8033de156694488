(** The one on-disk form of an analyzed arena: flat, offset-based
    snapshots, mapped on load.

    A snapshot is one file — a 4096-byte header page followed by
    page-aligned sections: the arena's four int columns, the dataguide's
    per-node path column and the text blob stored as raw native
    words/bytes, plus small {!Codec}-encoded meta (DTD, tag names, live
    generation number and member names), index (vocabulary,
    {!Packed_postings}, tag-token pairs) and analysis (path table,
    kinds, star flags, key candidates and keys) sections.
    {!load_analyzed} [Unix.map_file]s the bulk sections straight into
    the {!Document.Flat} and {!Dataguide} columns and adopts the stored
    analysis, so cold-start cost is the page table, not the corpus and
    not the Data Analyzer (benchmark E22 measures it against parsing and
    analyzing the XML). [extract pack], the shard directories and the
    live store's generations all write this form.

    Integrity story: the header records a per-section MD5 and the
    arena's fingerprint, a digest of the arena sections' digests, which
    the index section repeats. Load range-checks every header number,
    verifies structure (magic, version, endianness probe, word size,
    section table, lengths), validates the analysis section whole and
    refuses an index section whose fingerprint is not the header's, but
    deliberately does not spend the bulk digests — checksumming the
    corpus would re-read it and defeat the O(1) start. {!verify} spends
    them; the live store runs it before it adopts a generation, and
    [extract check] runs it and then derives the analysis from the
    mapped arena and compares it with the stored one
    ([Check.check_snapshot]). See DESIGN.md §15 for the layout diagram
    and migration rules.

    Fault points: ["snapshot.write"] and ["snapshot.rename"] in {!save}
    (before the temp file is written, and before it is renamed over the
    target), ["snapshot.map"] in {!load_analyzed}. *)

val magic : string
(** ["XTRSNAP2"], a {!Codec} string at the head of the file. *)

val save :
  ?generation:int -> ?members:string list -> string -> Key_miner.t -> Inverted_index.t -> unit
(** Write the complete snapshot image (header page + padded sections)
    of the keys' document, its analysis (the keys, their classification
    and dataguide) and its index. [generation] and [members] (default [0]
    and [[]], what [extract pack] writes) are a live-store generation's
    number and member names, stored in the meta section. The write is
    durable: to a [.tmp] sibling, fsync'd, renamed over the path, then
    the directory fsync'd. A crash at any instant leaves the old file or
    the new one, plus at most the temp file. The index section stores
    the index's packed lists as they are.
    @raise Sys_error or [Unix.Unix_error] on IO failure. *)

type contents = {
  keys : Key_miner.t;
      (** the stored analysis, with its classification, dataguide and
          mapped document *)
  index : Inverted_index.t;
  generation : int;  (** [0] unless a live store wrote it *)
  members : string list;  (** [[]] unless a live store wrote it *)
}

val load_analyzed : string -> contents
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
(** {!load_analyzed}'s document and index. *)

val file_magic : string -> string option
(** The magic a stored file opens with (a {!Codec} string in its first
    16 bytes), for dispatching file kinds; [None] or an arbitrary string
    for anything else, XML included.
    @raise Sys_error when the file cannot be read. *)

(** {1 Deep verification} *)

type stats = {
  v_node_count : int;
  v_element_count : int;
  v_fingerprint : string;
  v_sections : (string * int) list; (** name, exact byte length *)
  v_file_bytes : int;
}

val verify : string -> stats
(** Re-read every section, check its recorded MD5, and confirm that the
    header fingerprint is the digest of the arena sections' digests.
    O(file), and maps nothing: live recovery and [extract check] call it
    before {!load_analyzed}, not the serving path.
    @raise Codec.Corrupt naming the damaged section.
    @raise Codec.Truncated on an empty or short file. *)
