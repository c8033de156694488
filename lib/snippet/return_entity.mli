(** Return Entity Identifier (paper §2.2).

    Every query has a search goal. Entities in a query result split into
    {e return entities} — what the user is looking for — and {e supporting
    entities} that merely describe them. The paper's heuristics, implemented
    here:

    + an entity is a return entity if its tag name matches a keyword, or
      the tag name of one of its attributes matches a keyword;
    + when no entity qualifies, the {e highest} entities of the result
      (those without an entity ancestor inside the result) are the default
      return entities. *)

module Document = Extract_store.Document

(* lint: allow unused-export *)
val matches_name : Extract_search.Query.t -> string -> bool
(** Token-level test: does a tag name match one of the keywords? Test use
    only: test/test_snippet.ml ["token matching"]. *)

val return_entities :
  Extract_store.Node_kind.t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  Document.node list
(** Return-entity instances in the result, document order. Empty only when
    the result contains no entity instance at all. *)

(* lint: allow unused-export *)
val highest_entities :
  Extract_store.Node_kind.t -> Extract_search.Result_tree.t -> Document.node list
(** Entity instances with no entity ancestor inside the result. Test use only:
    test/test_snippet.ml ["highest"]. *)

(* lint: allow unused-export *)
val supporting_entities :
  Extract_store.Node_kind.t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  Document.node list
(** Entity instances that are not return entities. Test use only:
    test/test_snippet.ml ["supporting"]. *)
