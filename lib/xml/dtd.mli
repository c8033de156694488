(** DTD internal-subset parser.

    Parses [<!ELEMENT ...>] declarations into {!Content_model.t}.
    [<!ATTLIST ...>] declarations are syntax-checked and dropped (nothing
    reads them); [<!ENTITY ...>] and [<!NOTATION ...>] declarations,
    comments and processing instructions are skipped.
    Parameter-entity references are rejected (the synthetic datasets and the
    demo datasets do not use them).

    The classifier in {!Extract_store.Node_kind} consults
    {!is_star_child}; when a document has no DTD the same question is
    answered from the data by {!Extract_store.Schema_infer}. *)

type t

val parse : string -> t
(** Parse an internal subset (the text between [\[] and [\]] of a DOCTYPE).
    @raise Error.Parse_error on malformed declarations. *)

(* lint: allow unused-export *)
val element_names : t -> string list
(** Declared element names, in declaration order. Test use only:
    test/test_xml.ml ["element names"]. *)

(* lint: allow unused-export *)
val element_model : t -> string -> Content_model.t option
(** The declared model of an element. Test use only beyond {!is_star_child}:
    the tests' DTD validator (test/validator.ml) and test/test_xml.ml's
    content-model cases read it. *)

val is_star_child : t -> parent:string -> child:string -> bool option
(** [Some b] when [parent] is declared, where [b] tells whether [child] may
    occur more than once under it; [None] when [parent] has no
    declaration. *)

val pp : Format.formatter -> t -> unit
(** Prints the subset back in DTD syntax (element declarations only). *)
