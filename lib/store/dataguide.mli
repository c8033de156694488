(** Structure summary (strong dataguide): one entry per distinct
    root-to-element tag path.

    Node classification, schema inference and feature statistics are
    per-path rather than per-tag, so that a [name] under [retailer] and a
    [name] under [store] are distinct schema objects even though the tag
    coincides. *)

type path = int
(** Dense path identifier; the root's path is [0]. *)

type t

val build : Document.t -> t

val adopt :
  Document.t ->
  node_path:Document.int_arr ->
  parent:int array ->
  tag:int array ->
  depth:int array ->
  counts:int array ->
  t
(** A dataguide from its stored form (what {!Snapshot} maps): the
    per-node path column ([-1] for text nodes) and the path table, one
    entry per path ([parent] is [-1] for the root path). Nothing is
    checked here; the caller has validated the table. *)

val document : t -> Document.t

val path_column : t -> Document.int_arr
(** The per-node path column ([-1] for text nodes), read-only: what
    {!Snapshot} stores and [extract check] compares. *)

val path_count : t -> int

val path_of_node : t -> Document.node -> path
(** @raise Invalid_argument for text nodes. *)

val parent_path : t -> path -> path option
(** [None] for the root path. *)

val path_tag : t -> path -> int
(** Interned tag (in the document's tag interner) of the last step. *)

val path_tag_name : t -> path -> string

val path_depth : t -> path -> int

val instance_count : t -> path -> int
(** Number of element nodes with this path. *)

val path_string : t -> path -> string
(** e.g. ["/retailer/store/city"]. *)

val find_path : t -> string list -> path option
(** [find_path t ["retailer"; "store"]] resolves a root-to-node tag
    sequence (the root tag first). *)

val paths : t -> path list
(** All paths, root first, in first-encountered (document) order. *)

val instances : t -> path -> Document.node list
(** Every element node with the given path, in document order: one scan
    of the path column. *)
