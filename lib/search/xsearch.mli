(** XSearch-style interconnection semantics (Cohen et al., VLDB 2003 — the
    paper's reference [1]).

    XSearch deems a set of match nodes meaningfully related when the tree
    connecting them is {e interconnected}: it contains no two distinct
    nodes with the same tag, unless they are two of the match nodes
    themselves. The intuition: a path crossing two different [author]
    elements relates {e different} authors and should not form one answer.

    This implementation starts from the SLCA candidates and keeps those
    whose witness matches (one per keyword, the closest to the root) are
    pairwise interconnected; the answer tree is the match-path tree. This
    is the restriction of XSearch to its conjunctive ("all keywords")
    mode. *)

module Document = Extract_store.Document

(* lint: allow unused-export *)
val interconnected : Document.t -> Document.node -> Document.node -> bool
(** Is the path between the two nodes (through their LCA) free of two
    distinct equal-tag interior nodes? The end nodes themselves may share
    a tag. Test use only: test/test_extensions.ml and the brute-force
    comparison in test/test_properties.ml. *)

val compute_lists :
  ?limit:int -> Document.t -> Document.node array list -> Result_tree.t list
(** Interconnected answers for pre-resolved posting lists, one per
    surviving SLCA, as match-path result trees in document order. With
    [limit], stops materializing answers once that many have been
    accepted. *)
