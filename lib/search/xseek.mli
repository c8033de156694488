(** XSeek-style result construction (Liu & Chen, SIGMOD 2007 — reference
    [6] of the paper, the engine the eXtract demo runs on).

    XSeek identifies the meaningful {e return node} for each match cluster
    instead of returning the bare LCA: the nearest entity ancestor-or-self
    of the smallest LCA. The query result handed to snippet generation is
    the full subtree of that return node — this is what the paper's
    Figure 1 depicts (the whole [retailer] subtree). *)

module Document = Extract_store.Document

(* lint: allow unused-export *)
val return_node :
  Extract_store.Node_kind.t -> Document.node -> Document.node
(** Nearest entity ancestor-or-self; the node itself when no ancestor (or
    self) is an entity. Test use only: test/test_search.ml ["return node"]. *)

val roots : Extract_store.Node_kind.t -> Document.node array list -> Document.node list
(** Return nodes for pre-resolved posting lists: SLCAs, mapped to return
    nodes, deduplicated (several SLCAs may share an entity), nested return
    nodes merged into the outermost. Document order, no subtrees
    materialized — the engine expands only as many as the caller's limit
    asks for. *)
