(** Flat-text snippet baseline — the "Google Desktop" comparison of the
    paper's §4.

    A text search engine ignores XML tags and all structural information:
    the result is flattened to its text content (document order) and the
    snippet is the fixed-width token window containing the largest number
    of distinct query keywords (earliest such window on ties). This is the
    behaviour the demo contrasts eXtract against on its web site.

    To compare budgets with tree snippets, a window of [2 × bound] tokens
    is conventionally equivalent to a tree snippet of [bound] edges (an
    edge of the tree snippet displays about one tag plus one value
    token). *)

type snippet = {
  window : string list;      (** tokens of the chosen window *)
  keyword_hits : int;        (** distinct query keywords inside it *)
  start_offset : int;        (** token offset in the flattened text *)
}

val generate :
  window_tokens:int -> Extract_search.Result_tree.t -> Extract_search.Query.t -> snippet
(** @raise Invalid_argument when [window_tokens <= 0]. *)

val window_for_bound : int -> int
(** The conventional token budget for an edge bound: [2 × bound], at
    least 1. *)

val to_string : snippet -> string
(** The window joined with spaces, with ellipses when it does not touch
    the text's boundaries. *)
