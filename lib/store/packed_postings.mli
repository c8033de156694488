(** Block-compressed posting lists, the one in-memory form of a posting
    list.

    A posting list — the strictly ascending array of node ids where a
    keyword occurs — is kept as delta+varint blocks of
    {!Codec.block_size} entries with a skip table of per-block first
    values. A query decodes each of its lists once ({!to_array}, in
    [Eval_ctx.make]); the skip table serves {!mem}, which decodes at most
    one block.

    Typical footprint is 1–2 bytes per posting against the 8 bytes of a
    plain [int array]; see DESIGN.md §15 and EXPERIMENTS.md E22. *)

type t

val of_array : int array -> t
(** Pack a strictly ascending array of non-negative node ids.
    @raise Invalid_argument if unsorted, duplicated, or negative. *)

val to_array : t -> int array
(** Full decode, in ascending order, into a fresh array. *)

val length : t -> int
(** Number of postings, read from the header without a decode. *)

val byte_size : t -> int
(** Approximate resident bytes: compressed data + skip/offset tables. *)

val mem : t -> int -> bool
(** [mem t x] — is [x] a posting? Decodes at most one block. *)

(** {1 Codec embedding} *)

val encode : Codec.writer -> t -> unit

val decode : Codec.reader -> t
(** @raise Codec.Corrupt on inconsistent block structure. *)
