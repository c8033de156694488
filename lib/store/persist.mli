(** Binary persistence for document arenas.

    The demo runs as a server: documents are analyzed and indexed once,
    then queried many times. Persisting the flattened arena lets a process
    restart skip XML parsing entirely (the benchmark's E7 companion
    measures the speedup). The format is versioned and self-describing:
    every artifact is a sealed envelope — magic, format version, an MD5
    checksum of the payload, then the {!Codec} payload — so a corrupt or
    truncated file is rejected up front instead of surfacing later as
    nonsense data. Damage is reported with two distinct errors: a file
    that ends prematurely raises {!Codec.Truncated} (the signature of an
    interrupted write — the live store's recovery treats a truncated
    {e final} journal record as benign), while structural damage — wrong
    magic, bad version, checksum mismatch, trailing bytes — raises
    {!Codec.Corrupt} and is always fatal. Whole-file consumers treat both
    as a bad artifact.

    Files are not portable across architectures with different [int]
    widths (varints cap at 63 bits — every platform OCaml 5 supports).

    Fault points (see {!Extract_util.Faults}): ["persist.read"] fires in
    {!load}/{!load_index}/{!load_bundle}, ["persist.write"] in the [save]
    functions, ["index.load"] while decoding an index — each raising
    {!Codec.Corrupt}, so injected faults exercise exactly the
    corrupt-artifact recovery paths. *)

val magic : string

val version : int

val encode : Document.t -> string
(** Serialize the arena to a byte string. *)

val decode : string -> Document.t
(** @raise Codec.Corrupt on malformed input, wrong magic, unsupported
    version or checksum mismatch.
    @raise Codec.Truncated when the data ends prematurely. *)

val save : string -> Document.t -> unit
(** Write to a file. @raise Sys_error on IO failure. *)

val load : string -> Document.t
(** Read from a file.
    @raise Codec.Corrupt, [Codec.Truncated] or [Sys_error] as
    appropriate. A zero-length file (the residue of an interrupted
    create) raises [Codec.Truncated] naming the path and the expected
    magic, here and in every [load_*] below. *)

val fingerprint : Document.t -> string
(** Hex digest of the arena's serialized payload — the identity an index
    file records so {!load_index} can prove it is being paired with the
    arena it was built from. *)

(** {1 Index persistence}

    Posting lists are ascending node ids; they are stored gap-encoded
    (first id, then deltas) as varints — the classic inverted-file
    compression. An index file only makes sense next to the arena it was
    built from, so the index payload opens with that arena's
    {!fingerprint}: [load_index] recomputes the fingerprint of the
    document it is given and rejects a mismatched pair with
    {!Codec.Corrupt} (historically this yielded silent nonsense
    postings). Decoding packs every list ({!Packed_postings}); a list
    that is not strictly ascending is rejected the same way. *)

val index_magic : string

val encode_index : Inverted_index.t -> string

val decode_index : doc:Document.t -> string -> Inverted_index.t
(** @raise Codec.Corrupt on malformed input, checksum failure, an
    arena/index fingerprint mismatch or a posting list that is not
    strictly ascending. *)

val save_index : string -> Inverted_index.t -> unit

val load_index : string -> doc:Document.t -> Inverted_index.t

(** {1 Bundles}

    An arena and its index in one file — what the demo server persists per
    data set. Both sections carry their own seal, and the index section's
    fingerprint is verified against the arena section on load. *)

val bundle_magic : string

val encode_bundle : Document.t -> Inverted_index.t -> string

val decode_bundle : string -> Document.t * Inverted_index.t
(** @raise Codec.Corrupt on malformed input. *)

val save_bundle : string -> Document.t -> Inverted_index.t -> unit

val load_bundle : string -> Document.t * Inverted_index.t

val sniff_magic : string -> string option
(** The leading magic of any Persist-produced byte string ({!magic},
    {!index_magic} or {!bundle_magic}), or [None] / an arbitrary string
    for foreign data — used to dispatch file kinds. *)

(** {1 Envelopes}

    The sealed-envelope primitive itself — magic · version · MD5(payload)
    · payload — exposed so sibling persistence formats (the live store's
    snapshot generations, {!Journal}'s reset files) share one
    corruption-detection story with the arena/index/bundle artifacts. *)

module Envelope : sig
  val seal : magic:string -> string -> string

  val unseal : magic:string -> kind:string -> string -> string
  (** @raise Codec.Corrupt on wrong magic, version, checksum or trailing
      bytes; [Codec.Truncated] when the data ends prematurely. *)
end
