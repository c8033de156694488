(** Binary searches over sorted posting lists.

    Posting lists ({!Inverted_index.lookup}) are sorted arrays of pre-order
    node ids, and a subtree is the contiguous interval
    [[root, Document.subtree_last doc root]] — so "the matches inside this
    result" is a range query, not a scan. These helpers are shared by the
    SLCA merge, XSearch's witnesses, match restriction and the ranker;
    they used to live privately in [Slca]. *)

val closest_in : Document.node array -> lo:Document.node -> hi:Document.node -> Document.node option
(** Some element of the sorted array within [[lo, hi]], or [None]. *)

val pred_of : Document.node array -> Document.node -> Document.node option
(** Largest element strictly below [x]. *)

val succ_of : Document.node array -> Document.node -> Document.node option
(** Smallest element strictly above [x]. *)

val in_subtree : Document.t -> Document.node array -> Document.node -> Document.node list
(** The postings inside [root]'s subtree, in document order. O(log |arr|)
    plus the output size — never a scan of the whole list. *)
