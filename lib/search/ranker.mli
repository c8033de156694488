(** Result ranking, XRank-flavoured (Guo et al., SIGMOD 2003 — the paper's
    reference [2]).

    The demo positions snippets as a {e complement} to ranking (§1:
    "various ranking schemes have been proposed … no ranking scheme can
    always perfectly assess relevance"); a full engine needs both. This
    ranker scores a query result by combining:

    - {b keyword specificity} — IDF over element match counts, so rare
      keywords dominate the score;
    - {b match decay} — a match counts through a per-level decay factor
      (XRank's ElemRank propagation): matches near the result root beat
      matches buried deep below it;
    - {b term frequency} — logarithmic in the number of matches inside the
      result;
    - {b result specificity} — smaller results outrank sprawling ones,
      echoing the SLCA intuition.

    Scores are comparable only within one query.

    A ranker is made from the query's {!Eval_ctx}: it scores from the
    posting lists the context already resolved for the engine, so a
    ranked query decodes each keyword's list once, not once per result
    and keyword. Document frequency is
    {!Extract_store.Inverted_index.keyword_count}, the unmasked list
    length. Under a visibility mask the matches of a result whose
    subtree is wholly visible (a live member, a shard block) are the
    same in the masked and unmasked lists, so its score is the unmasked
    score. *)

type t

val make : Eval_ctx.t -> t
(** A ranker for the context's query. A match's contribution decays by
    0.8 per level below the result root. *)

(* lint: allow unused-export *)
val idf : t -> string -> float
(** [ln (1 + elements / (1 + df))], where [df] is the keyword's posting
    count in the whole index (any mask ignored). Unknown keywords get the
    maximum IDF. Test use only: test/test_extensions.ml ["idf ordering"]. *)

val score : t -> Result_tree.t -> float
(** The result's score for the ranker's query. *)

val rank : t -> Result_tree.t list -> (Result_tree.t * float) list
(** Sorted by decreasing score; ties keep the input (document) order. *)
