(** Query results as intervals of the document arena.

    A query result is the whole subtree of its root — what XSeek returns
    when the search target is an entity, and what the paper's Figure 1
    shows. Snippet generation consumes exactly this structure: the
    paper's pipeline takes "the query results" produced by any XML search
    engine as input. A subtree is contiguous in document order, so a
    result is the interval [[root, Document.subtree_last doc root]] and
    every question about its members is answered from the interval and
    the arena: a child of a member is a member ({!Document.children}
    needs no filter), and membership is two comparisons. *)

module Document = Extract_store.Document

type t

val full : Document.t -> Document.node -> t
(** The whole subtree rooted at the node. O(1). *)

val document : t -> Document.t

val root : t -> Document.node

val mem : t -> Document.node -> bool

val size : t -> int
(** Number of member nodes (elements and text). *)

val element_size : t -> int

val iter_elements : t -> (Document.node -> unit) -> unit
(** Member element nodes in document order. *)

val restrict_matches : t -> Document.node array -> Document.node list
(** Posting-list entries that are members, in document order: the slice
    of the sorted list that falls in the result's interval, found by
    binary search, so the cost follows the matches under the root, not
    the posting list. *)

val text_of : t -> string
(** All member text, document order, space-joined (for the text-snippet
    baseline). *)

(* lint: allow unused-export *)
val to_xml : t -> Extract_xml.Types.t
(** Test use only: test/test_search.ml ["to_xml"]. *)
