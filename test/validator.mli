(** DTD validation of parsed documents.

    Checks every element against its [<!ELEMENT>] declaration: child
    sequences are matched against the content model with Brzozowski
    derivatives over the particle grammar (no automaton construction
    needed; models are tiny), [EMPTY] elements must be empty, [(#PCDATA)]
    elements must not contain child elements, and character data is only
    allowed where the model permits it. Elements with no declaration are
    reported when [strict] is set and ignored otherwise.

    The dataset generators are validated against their own DTDs in the
    test suite — a generator regression cannot silently ship malformed
    data into the benchmarks. Nothing outside the tests validates, so the
    module lives with them. *)

open Extract_xml

type violation = {
  element : string;       (** tag of the offending element *)
  kind : violation_kind;
}

and violation_kind =
  | Undeclared_element
  | Unexpected_children of string list
      (** the child-tag sequence did not match the content model *)
  | Unexpected_text
  | Expected_empty

val validate : ?strict:bool -> Dtd.t -> Types.element -> violation list
(** All violations in the subtree, pre-order. [strict] (default false)
    also reports elements without a declaration. An empty DTD validates
    everything vacuously (non-strict). *)

val is_valid : ?strict:bool -> Dtd.t -> Types.element -> bool
(** No violations: the generators' DTD check. *)

val matches_model : Content_model.t -> string list -> bool
(** Does a child-tag sequence satisfy a content model? ([Pcdata]/[Empty]
    accept only the empty sequence; [Any] and [Mixed] accept declared
    tags in any number and order.) *)

val pp_violation : Format.formatter -> violation -> unit
