(** Snippet trees.

    A snippet is a connected subtree of the query result, rooted at the
    result root, built by the Instance Selector. Only element nodes are
    tracked; the text value of a leaf (attribute) element is displayed
    inline with it. The {b size} of a snippet is its number of edges
    (paper §4: "the upper bound of snippet size … is defined as the number
    of edges in the tree"), i.e. element count − 1. *)

module Document = Extract_store.Document

type t

val create : Extract_search.Result_tree.t -> t
(** The minimal snippet: just the result root, 0 edges. *)

(* lint: allow unused-export *)
val copy : t -> t
(** Independent copy (used by the exact selector's search). Test use only:
    test/test_snippet.ml ["copy"]. *)

val result : t -> Extract_search.Result_tree.t

val mem : t -> Document.node -> bool

val element_count : t -> int

val edge_count : t -> int

val cost_of : t -> Document.node -> int
(** Number of {e new} element nodes (= new edges) needed to connect the
    node to the current snippet: the node itself plus its ancestors up to
    the nearest node already present. 0 when already present.
    @raise Invalid_argument if the node is not an element of the result. *)

val add : t -> Document.node -> Document.node list
(** Connect the node (and its missing ancestors); returns the newly added
    nodes (empty when already present). *)

val remove : t -> Document.node list -> unit
(** Undo an {!add} by removing exactly the nodes it returned. Intended only
    for backtracking in the exact selector; removing arbitrary nodes can
    disconnect the snippet. *)

val nodes : t -> Document.node list
(** Member element nodes, document order. *)

(* lint: allow unused-export *)
val contains_any : t -> Document.node array -> bool
(** Is any of the candidate instances already in the snippet? Test use only:
    test/test_snippet.ml ["contains_any"]. *)

val render : ?max_value:int -> t -> string

(* lint: allow unused-export *)
val to_xml : t -> Extract_xml.Types.t
(** XML rendition; leaf (attribute) elements keep their text value. Test use
    only: test/test_snippet.ml ["xml values"]. *)
