(** Keyword queries.

    A query is an ordered list of normalized keywords. Order matters for
    snippet generation (the IList starts with the keywords in query order)
    but not for matching. *)

type t

val of_string : string -> t
(** Split on whitespace and punctuation, lowercase, drop empty tokens and
    duplicates (keeping first occurrences). *)

val of_keywords : string list -> t
(** Normalize a pre-split list the same way. *)

val keywords : t -> string list

val size : t -> int

val is_empty : t -> bool

val mem : t -> string -> bool
(** Membership after normalization. *)
