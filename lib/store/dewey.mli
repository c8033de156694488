(** Dewey labels over a document arena.

    The label of a node is the child-rank path from the root ([[]] for the
    root, [[2;0]] for the first child of the root's third child). SLCA-style
    algorithms use label comparison and longest-common-prefix depth instead
    of repeated parent walks. Labels for all nodes are materialized once in
    O(n). *)

type t

val of_document : Document.t -> t

val label : t -> Document.node -> int array
(** The stored label — do not mutate. *)

val compare_nodes : t -> Document.node -> Document.node -> int
(** Lexicographic order of labels; equals document (pre)order. *)

val lca : t -> Document.node -> Document.node -> Document.node
(** LCA via labels; agrees with {!Document.lca}. *)
