(** Key-attribute mining — supporting the paper's Query Result Key
    Identifier (§2.2: "After mining the keys of entities in the data,
    eXtract adds the value of the key attribute of [the return entity] …").

    For every entity path we look for an attribute child path whose values
    (a) exist on every entity instance ({e total coverage}) and (b) are
    pairwise distinct across instances ({e unique}). Among qualifying
    candidates, names conventionally used as identifiers ([id], [key],
    [name], [title]) are preferred, then document order decides.

    When no attribute qualifies as a strict key, [key_path] falls back to
    the most discriminating attribute (highest distinct-value ratio,
    requiring coverage and a ratio of at least 0.5) so that snippets still
    get a best-effort title, mirroring the demo behaviour where every
    result shows a name-like field. *)

type candidate = {
  attribute : Dataguide.path;
  coverage : float;    (** instances with exactly one such attribute / instances *)
  uniqueness : float;  (** distinct values / instances that have the attribute *)
  strict : bool;       (** coverage = 1 and uniqueness = 1 *)
}

type t

val mine : Node_kind.t -> t

val adopt :
  Node_kind.t ->
  (Dataguide.path * candidate list * Dataguide.path option * Dataguide.path option) list ->
  t
(** The stored form {!Snapshot} maps: per entity path, its candidates
    (best first), its key and its strict key. Nothing is checked here. *)

val kinds : t -> Node_kind.t
(** The classification the keys were mined from; with it, the dataguide
    and the document. *)

val key_path : t -> Dataguide.path -> Dataguide.path option
(** The mined key-attribute path of an entity path. *)

val strict_key_path : t -> Dataguide.path -> Dataguide.path option
(** Only strict keys — no fallback. *)

val candidates : t -> Dataguide.path -> candidate list
(** All attribute children of the entity path with their statistics, best
    first. *)

val key_of_instance : t -> Document.node -> (Document.node * string) option
(** [key_of_instance t e] is the key attribute node of entity instance [e]
    and its value, when the entity's path has a mined key and this instance
    carries it. *)
