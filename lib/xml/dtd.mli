(** DTD internal-subset parser.

    Parses [<!ELEMENT ...>] declarations into {!Content_model.t} and records
    [<!ATTLIST ...>] declarations. [<!ENTITY ...>] and [<!NOTATION ...>]
    declarations, comments and processing instructions are skipped.
    Parameter-entity references are rejected (the synthetic datasets and the
    demo datasets do not use them).

    The classifier in {!Extract_store.Node_kind} consults
    {!is_star_child}; when a document has no DTD the same question is
    answered from the data by {!Extract_store.Schema_infer}. *)

type attribute_decl = {
  att_name : string;
  att_type : string;   (** e.g. [CDATA], [ID], [(a|b)] — kept verbatim *)
  att_default : string; (** e.g. [#REQUIRED], [#IMPLIED], or a literal *)
}

type t

(* lint: allow unused-export *)
val empty : t
(** A DTD declaring nothing ([element_model] is always [None]). Test use only:
    test/test_xml.ml ["empty"]. *)

val parse : string -> t
(** Parse an internal subset (the text between [\[] and [\]] of a DOCTYPE).
    @raise Error.Parse_error on malformed declarations. *)

(* lint: allow unused-export *)
val element_names : t -> string list
(** Declared element names, in declaration order. Test use only:
    test/test_xml.ml ["element names"]. *)

val element_model : t -> string -> Content_model.t option

(* lint: allow unused-export *)
val attributes : t -> string -> attribute_decl list
(** Declared XML attributes of an element (empty when undeclared). Test use
    only: test/test_xml.ml ["attlist"]; nothing else reads ATTLIST
    declarations. *)

val is_star_child : t -> parent:string -> child:string -> bool option
(** [Some b] when [parent] is declared, where [b] tells whether [child] may
    occur more than once under it; [None] when [parent] has no
    declaration. *)

val pp : Format.formatter -> t -> unit
(** Prints the subset back in DTD syntax (element declarations only). *)
