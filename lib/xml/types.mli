(** XML documents as ordinary trees.

    This is the exchange representation between the dataset generators,
    the printer and the column-oriented arena ({!Extract_store.Document})
    that the search and snippet algorithms actually run on. XML text does
    not pass through it: the arena is built from {!Parser}'s events. *)

type attribute = { name : string; value : string }

type t =
  | Element of element
  | Text of string
      (** Character data. The parser delivers adjacent text and CDATA runs
          as one text event and drops whitespace-only runs between
          elements, so a tree built from its events has the same shape. *)

and element = {
  tag : string;
  attrs : attribute list;
  children : t list;
}

type document = {
  dtd : string option;
      (** Raw internal DTD subset from [<!DOCTYPE name [ ... ]>], if any,
          ready for {!Dtd.parse}. *)
  root : element;
}

val element : ?attrs:(string * string) list -> string -> t list -> t
(** [element tag children] builds an element node. *)

val leaf : string -> string -> t
(** [leaf tag value] is [element tag [text value]] — the shape of an XML
    "attribute" in the entity/attribute/connection sense of the paper. *)

val tag : t -> string option
(** [tag n] is the element tag, or [None] for text nodes. *)

(* lint: allow unused-export *)
val find_child : element -> string -> element option
(** First child element with the given tag. Test use only: test/test_xml.ml
    ["find children"]. *)

(* lint: allow unused-export *)
val find_children : element -> string -> element list
(** Test use only: test/test_xml.ml ["find children"]. *)

(* lint: allow unused-export *)
val text_content : t -> string
(** Concatenation of all text in the subtree, in document order. Test use
    only: test/test_xml.ml ["text content"], test_search.ml and
    test_snippet.ml read rendered trees with it. *)

(* lint: allow unused-export *)
val attr : element -> string -> string option
(** Test use only: test/test_xml.ml ["attributes"] and ["find children"]. *)

val count_nodes : t -> int
(** Elements and text nodes in the subtree, including the root. *)

(* lint: allow unused-export *)
val count_elements : t -> int
(** Test use only: test/test_xml.ml ["counts"] and the ["sax count = tree
    count"] property. *)
