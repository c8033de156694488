(** Column-oriented document arena.

    A document is stored as pre-order arrays: {!load_string} folds the
    parser's events straight into them, and {!of_xml} flattens a
    {!Extract_xml.Types} tree (a generator's output) into the same
    arrays. Node identifiers are pre-order ranks (the root is node [0]);
    a subtree is the contiguous id interval [[n, n + size n)], so
    ancestorship is an O(1) interval test. This is the storage every
    search and snippet algorithm runs on.

    XML attributes ([name="v"]) are converted into child leaf elements at
    load time, unifying them with the paper's data model where an
    "attribute" is an element with a single text child. *)

type node = int
(** Pre-order rank. *)

type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Node columns are untagged-int bigarrays, so a {!Snapshot} can back
    them directly with [Unix.map_file] — no per-node decode on load. *)

type char_arr = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val of_xml : ?dtd:Extract_xml.Dtd.t -> Extract_xml.Types.t -> t
(** Flatten a tree. @raise Invalid_argument if the argument is a text
    node. The DTD, when given, is carried for downstream classification. *)

val of_document : Extract_xml.Types.document -> t
(** Flatten a document tree, parsing its internal DTD subset if any. *)

val load_string : string -> t
(** Parse and build in one pass: {!Extract_xml.Parser.fold_document}'s
    events go straight into the columns, with no intermediate tree. The
    arena equals {!of_document} of the same document (property-tested).
    @raise Extract_xml.Error.Parse_error on malformed input or when a
    parser limit is exceeded. *)

val load_file : string -> t
(** Read a file and {!load_string} it. @raise Sys_error on IO failure. *)

val dtd : t -> Extract_xml.Dtd.t option

(** {1 Size and structure} *)

val node_count : t -> int

val element_count : t -> int

val root : t -> node
(** Always [0]. *)

val is_element : t -> node -> bool

val tag_id : t -> node -> int
(** Interned tag of an element. @raise Invalid_argument on a text node. *)

val tag_name : t -> node -> string

val tag_interner : t -> Extract_util.Interner.t

val tag_of_name : t -> string -> int option
(** Id of a tag name occurring in the document. *)

val text : t -> node -> string
(** Content of a text node. @raise Invalid_argument on an element. *)

val parent : t -> node -> node option
(** [None] for the root. *)

val parent_exn : t -> node -> node

val depth : t -> node -> int
(** Root has depth 0. *)

val subtree_size : t -> node -> int
(** Number of nodes in the subtree, including [node] itself. *)

val subtree_last : t -> node -> node
(** Largest id in the subtree. *)

val children : t -> node -> node list

val iter_children : t -> node -> (node -> unit) -> unit

(** {1 Relations} *)

val is_ancestor_or_self : t -> anc:node -> desc:node -> bool

val lca : t -> node -> node -> node
(** Lowest common ancestor, O(depth). *)

val ancestor_at_depth : t -> node -> int -> node
(** The unique ancestor-or-self at the given depth.
    @raise Invalid_argument if the depth exceeds the node's depth. *)

(** {1 Content} *)

val immediate_text : t -> node -> string
(** Concatenated direct text children of an element. *)

val has_only_text_children : t -> node -> bool
(** True when the element has at least one child and all children are text
    nodes — the shape of a paper "attribute". *)

val to_xml : t -> node -> Extract_xml.Types.t
(** Rebuild the subtree as an XML tree (inverse of {!of_xml} up to
    attribute conversion). *)

(** {1 Flat column access}

    The zero-copy seam used by {!Snapshot}: a document as raw columns.
    [of_source] adopts the given bigarrays without copying — they may be
    file-backed mappings — and [to_source] exposes a built document's
    columns (flattening per-node text strings into one blob + offset
    table when needed). *)

module Flat : sig
  type source = {
    dtd_source : string option;
    tag_names : string array;
    element_count : int;
    kinds : Bytes.t;
    tag : int_arr;
    parent : int_arr;
    depth : int_arr;
    size : int_arr;
    text_offsets : int_arr; (** [node_count + 1] entries; element slices are empty *)
    text_blob : char_arr;
  }

  val of_source : source -> t
  (** @raise Invalid_argument on mismatched column lengths. *)

  val to_source : t -> source
end

(**/**)

(** Internal representation access, for shard splitting and the checker's
    tests only. *)
module Internal : sig
  type repr = {
    dtd_source : string option;
    tag_names : string array;
    kinds : Bytes.t;
    tag : int array;
    parent : int array;
    depth : int array;
    size : int array;
    texts : string array;
    element_count : int;
  }

  val to_repr : t -> repr

  val of_repr : repr -> t

  (* lint: allow unused-export *)
  val load_string_with : limits:Extract_xml.Parser.limits -> string -> t
  (** {!load_string} under other parser limits. Test use only:
      test/test_xml.ml runs each ["xml.limits"] case through it. *)
end
