(** Reference LCA-based semantics, computed by exhaustive subtree counting.

    [covering_nodes] is the O(n·k) "count matches per subtree" method. It is
    the correctness oracle the optimized {!Slca} merge is property-tested
    against, and the substrate for {!Elca}. *)

module Document = Extract_store.Document

(* lint: allow unused-export *)
val covering_nodes : Document.t -> Document.node array list -> Document.node list
(** Elements whose subtree contains at least one match from {e every}
    list, in document order. Empty when any list is empty. The reference the
    SLCA merge is checked against: test/test_properties.ml and
    test/test_search.ml. *)

val slca_reference : Document.t -> Document.node array list -> Document.node list
(** Smallest LCAs: covering nodes none of whose proper descendants is also
    covering. Document order. *)

val subtree_match_counts : Document.t -> Document.node array -> int array
(** [counts.(n)] = number of matches from the list inside the subtree of
    [n] (matches are element ids; a match counts for itself and every
    ancestor). *)
