(** A small XPath-like selector over document arenas.

    Supports the navigational core used by the CLI's [view] command and by
    tests to address nodes in fixtures:

    - [/a/b/c] — child steps from the root;
    - [//c] and [/a//c] — descendant-or-self steps;
    - [*] — any element tag;
    - [step\[3\]] — 1-based positional predicate among the step's matches
      under one parent;
    - [step\[child="v"\]] — keep elements having a child element [child]
      whose trimmed text equals [v].

    No reverse axes, no functions, no attributes (XML attributes are
    ordinary child elements in the arena — address them by name). *)

type t

(* lint: allow unused-export *)
val parse : string -> t
(** @raise Invalid_argument on syntax errors, with a description. Test use
    only beyond {!select_string}: test/test_extensions.ml ["to_string"] parses
    canonical paths. *)

(* lint: allow unused-export *)
val to_string : t -> string
(** Canonical rendition of the parsed path. Test use only:
    test/test_extensions.ml ["to_string"]. *)

val select_string : Document.t -> string -> Document.node list
(** [select] ∘ [parse]. *)
