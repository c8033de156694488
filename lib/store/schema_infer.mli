(** Star-node ("*-node") inference.

    The paper (§2.1) classifies a node as an entity when it "corresponds to
    a *-node in the DTD", and explicitly allows using the XML data structure
    instead of a DTD. This module answers, per dataguide path, whether the
    path's tag may occur more than once under its parent:

    - when the document carries a DTD that declares the parent element, the
      DTD's content model decides;
    - otherwise the data decides: the path is starred iff some parent
      instance actually has two or more children on that path.

    The root path is never starred (a document has exactly one root). *)

type t

val infer : ?dtd:Extract_xml.Dtd.t -> Dataguide.t -> t
(** [dtd] defaults to the one stored in the underlying document, if any. *)

val adopt : Dataguide.t -> starred:bool array -> sources:bool array -> t
(** The stored form {!Snapshot} maps: per path, the starred flag and
    whether the DTD decided it. Nothing is checked here. *)

val dataguide : t -> Dataguide.t

val is_starred : t -> Dataguide.path -> bool

(* lint: allow unused-export *)
val starred_paths : t -> Dataguide.path list
(** Test use only: test/test_store.ml ["starred list"]. *)

val source : t -> Dataguide.path -> [ `Dtd | `Data ]
(** Which evidence decided the path's star status. *)
