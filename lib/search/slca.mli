(** Smallest Lowest Common Ancestor keyword semantics
    (Xu & Papakonstantinou, SIGMOD 2005 — reference [7] of the paper).

    The SLCAs of match lists [S1..Sk] are the nodes whose subtree contains
    at least one match from every list and none of whose proper descendants
    does. [compute] is the indexed-lookup merge over sorted posting lists,
    driven by the smallest list; it is property-tested against the
    exhaustive {!Lca.slca_reference}. *)

module Document = Extract_store.Document

val compute : Document.t -> Document.node array list -> Document.node list
(** SLCAs in document order. Empty when any list is empty (conjunctive
    semantics) or no list is given. *)

(* lint: allow unused-export *)
val closest_in : Document.node array -> lo:int -> hi:int -> Document.node option
(** Exposed for testing: some element of the sorted array within
    [[lo, hi]], or [None]. Test use only: test/test_search.ml ["closest_in"]. *)
