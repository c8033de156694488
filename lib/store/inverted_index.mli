(** Keyword inverted index — the paper's Index Builder (Fig. 4).

    Maps each token to the sorted array of element nodes that match it. An
    element matches a token when the token appears in the element's tag name
    or in its direct text children. Postings are element ids in document
    (pre-)order, deduplicated, which is exactly what the SLCA/ELCA merge
    algorithms consume. *)

type t

val build : Document.t -> t

val document : t -> Document.t

val token_count : t -> int
(** Distinct tokens. *)

val postings_size : t -> int
(** Total number of postings across all tokens (index "size"). *)

val postings_bytes : t -> int
(** Approximate resident bytes of the posting lists: 8 per posting when
    plain, the compressed block footprint when packed. The E22
    compression-ratio metric. *)

val pack : t -> t
(** Convert posting lists to block-compressed {!Packed_postings} sharing
    the same document and vocabulary. All query entry points answer
    identically on the packed form; [lookup] decodes (fresh array per
    call), point probes ([contains], [match_kind], [complete] counts)
    touch at most one block. Identity on an already-packed index. *)

val is_packed : t -> bool

val lookup : t -> string -> Document.node array
(** [lookup t keyword] is the posting list for the normalized keyword —
    the shared array, do not mutate. Empty when the keyword is absent. *)

val keyword_count : t -> string -> int
(** [keyword_count t keyword] = [Array.length (lookup t keyword)], the
    keyword's document frequency, read from the list header: O(1) and no
    decode on either representation. 0 when the keyword is absent. *)

val matches : t -> string -> Document.node list

val contains : t -> string -> bool

val vocabulary : t -> string list
(** All tokens, in first-indexed order. *)

val match_kind : t -> keyword:string -> node:Document.node -> [ `Tag | `Value | `Both ] option
(** How (and whether) a specific element matches the keyword. *)

val complete : t -> ?limit:int -> string -> (string * int) list
(** [complete t prefix] — indexed tokens starting with the (normalized)
    prefix, with their posting counts, most frequent first ([limit]
    defaults to 10). The demo UI's query-box suggestions. Served from a
    lazily-built sorted token array via prefix-range binary search, so a
    keystroke costs O(log |vocabulary| + matches), not a vocabulary
    scan. The lazy build makes the first call not thread-safe. *)

(**/**)

(** Internal representation access, for {!Persist} only. *)
module Internal : sig
  type repr = {
    tokens : string array;
    postings : Document.node array array;
    tag_tokens : (int * int) array;
  }

  val to_repr : t -> repr
  (** Decodes packed lists back to plain arrays when needed. *)

  val of_repr : doc:Document.t -> repr -> t

  val packed_lists : t -> Packed_postings.t array
  (** Per-token packed lists, packing on the fly for a plain index.
      {!Snapshot}'s save path. *)

  val token_names : t -> string array
  (** Vocabulary in token-id order. *)

  val tag_token_pairs : t -> (int * int) array
  (** The (token id, tag id) membership set, sorted. *)

  val of_packed :
    doc:Document.t ->
    tokens:string array ->
    packed:Packed_postings.t array ->
    tag_tokens:(int * int) array ->
    t
  (** Assemble a packed index from decoded sections ({!Snapshot}'s load
      path). @raise Invalid_argument on token/list count mismatch. *)
end
