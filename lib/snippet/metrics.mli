(** Snippet-quality metrics.

    The evaluation (bench E8/E11, EXPERIMENTS.md) judges a snippet by how
    much of the IList's information its visible tokens carry. This module
    is that judge, as a library: token extraction for tree snippets, the
    per-category coverage of one snippet against an IList, and rank-aware
    aggregation. Works for any token list, so the text-window baseline is
    scored by the same code as eXtract's trees. *)

type coverage = {
  keywords : float;      (** covered / present query keywords *)
  entity_names : float;  (** covered / present entity-name items *)
  result_key : float;    (** 1 when the key is shown (or absent), else 0 *)
  features : float;      (** covered / present top-[k] dominant features *)
  all_items : float;     (** covered / all IList items *)
  rank_weighted : float; (** DCG-style: items weighted by 1/log2(rank+2) *)
}

val snippet_tokens : Pipeline.t -> Snippet_tree.t -> string list
(** The tokens a tree snippet displays: tags and immediate text of its
    nodes, normalized like index tokens. *)

(* lint: allow unused-export *)
val covers : string list -> string -> bool
(** Does a token list display a (possibly multi-token) value? All of the
    value's tokens must appear. Test use only: test/test_snippet.ml
    ["multi-token covers"]. *)

val coverage : tokens:string list -> Ilist.t -> coverage
(** Score a snippet's token list against an IList. [features] scores the
    three leading dominant features. *)
