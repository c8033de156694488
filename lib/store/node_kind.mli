(** Entity / attribute / connection classification — the paper's Data
    Analyzer (Fig. 4), following Liu & Chen [6] as summarized in §2.1:

    - a node is an {b entity} if it corresponds to a *-node (see
      {!Schema_infer});
    - a node that is not a *-node and only has one child which is a text
      value is, together with that child, an {b attribute};
    - every other node is a {b connection} node.

    Classification is per dataguide path. We generalize the attribute rule
    to paths: a non-starred path is an attribute when none of its instances
    ever contains an element child (so its content is a single text value,
    possibly empty). *)

type kind =
  | Entity
  | Attribute
  | Connection

type t

val classify : ?dtd:Extract_xml.Dtd.t -> Dataguide.t -> t

val adopt : Schema_infer.t -> kind array -> t
(** The stored form {!Snapshot} maps: one kind per path of the schema's
    dataguide. Nothing is checked here. *)

val of_document : Document.t -> t
(** Convenience: build the dataguide and classify in one step. *)

val dataguide : t -> Dataguide.t

val document : t -> Document.t

val schema : t -> Schema_infer.t

val kind_of_path : t -> Dataguide.path -> kind

val kind_of_node : t -> Document.node -> kind
(** @raise Invalid_argument for text nodes. *)

val is_entity : t -> Document.node -> bool

val is_attribute : t -> Document.node -> bool

val entity_paths : t -> Dataguide.path list

val attribute_paths : t -> Dataguide.path list

val entity_of_attribute : t -> Dataguide.path -> Dataguide.path option
(** The nearest entity ancestor path of an attribute path — the entity [e]
    of the paper's feature triplet [(e, a, v)]. [None] when no ancestor
    path is an entity (attributes of the root, for instance). *)

val nearest_entity_ancestor : t -> Document.node -> Document.node option
(** Nearest proper ancestor node that is an entity. *)

val attribute_value : t -> Document.node -> string
(** The (trimmed) text value of an attribute node instance. *)

val string_of_kind : kind -> string

val pp_kind : Format.formatter -> kind -> unit
