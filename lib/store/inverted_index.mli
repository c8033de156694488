(** Keyword inverted index — the paper's Index Builder (Fig. 4).

    Maps each token to the sorted list of element nodes that match it. An
    element matches a token when the token appears in the element's tag name
    or in its direct text children. Postings are element ids in document
    (pre-)order, deduplicated, which is exactly what the SLCA/ELCA merge
    algorithms consume. Every list is held block-compressed
    ({!Packed_postings}), however the index was made: {!build} or a
    mapped {!Snapshot}. *)

type t

val build : Document.t -> t

val document : t -> Document.t

val token_count : t -> int
(** Distinct tokens. *)

val postings_size : t -> int
(** Total number of postings across all tokens (index "size"). *)

val postings_bytes : t -> int
(** Approximate resident bytes of the posting lists: their compressed
    blocks plus skip and offset tables ({!Packed_postings.byte_size}). *)

val int_array_bytes : t -> int
(** The bytes the posting lists would take as [int array]s: 8 per
    posting and a header word per list, [8 * (postings_size +
    token_count)]. The baseline that [extract pack] and E22 compare
    {!postings_bytes} with. *)

val lookup : t -> string -> Document.node array
(** [lookup t keyword] is the posting list for the normalized keyword,
    decoded into a fresh array on every call. Empty when the keyword is
    absent. A query resolves each keyword once, through
    [Eval_ctx.make]. *)

val keyword_count : t -> string -> int
(** [keyword_count t keyword] = [Array.length (lookup t keyword)], the
    keyword's document frequency, read from the list header: O(1) and no
    decode. 0 when the keyword is absent. *)

val vocabulary : t -> string list
(** All tokens, in first-indexed order. *)

val match_kind : t -> keyword:string -> node:Document.node -> [ `Tag | `Value | `Both ] option
(** How (and whether) a specific element matches the keyword. The
    membership probe decodes at most one block of the list. *)

val complete : t -> ?limit:int -> string -> (string * int) list
(** [complete t prefix] — indexed tokens starting with the (normalized)
    prefix, with their posting counts, most frequent first ([limit]
    defaults to 10). The demo UI's query-box suggestions. Served from a
    lazily-built sorted token array via prefix-range binary search, so a
    keystroke costs O(log |vocabulary| + matches), not a vocabulary
    scan. The lazy build makes the first call not thread-safe. *)

(**/**)

(** Internal representation access, for {!Snapshot} and the checker
    only. *)
module Internal : sig
  val token_names : t -> string array
  (** Vocabulary in token-id order. *)

  val packed_lists : t -> Packed_postings.t array
  (** Per-token lists in token-id order (the index's own array; do not
      mutate). *)

  val tag_token_pairs : t -> (int * int) array
  (** The (token id, tag id) membership set, sorted. *)

  val of_packed :
    doc:Document.t ->
    tokens:string array ->
    packed:Packed_postings.t array ->
    tag_tokens:(int * int) array ->
    t
  (** Assemble an index from its decoded parts: the one constructor
      besides {!build}, used by {!Snapshot}.
      @raise Invalid_argument on token/list count mismatch. *)
end
