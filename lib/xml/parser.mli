(** Recursive-descent parser for the XML 1.0 subset used by eXtract.

    Supported: prolog, [<!DOCTYPE name [internal subset]>] (the subset is
    captured verbatim for {!Dtd.parse}), elements, attributes with single or
    double quotes, character data, CDATA sections, comments, processing
    instructions, character references ([&#10;], [&#x0A;]) and the five
    predefined entities. Not supported (rejected with a parse error rather
    than mis-parsed): external DTD content, parameter entities in content,
    and custom general entities.

    Whitespace-only text between elements is dropped by default, matching
    how data-centric XML databases load documents; pass
    [~keep_whitespace:true] to retain it. Adjacent text/CDATA runs are
    merged into one {!Types.Text} node.

    Adversarial inputs are bounded: nesting depth (which would otherwise
    overflow the parser's stack), total node count and the length of any
    single token are limited, and exceeding a limit raises a clean,
    positioned {!Error.Parse_error} — never [Stack_overflow] or an
    unbounded allocation. *)

type limits = {
  max_depth : int;      (** deepest allowed element nesting (root = 1) *)
  max_nodes : int;      (** elements + retained text nodes per document *)
  max_token_len : int;  (** bytes per name, attribute value or text run *)
}

(* lint: allow unused-export *)
val default_limits : limits
(** depth 512, 50M nodes, 1MB tokens — far above any legitimate
    data-centric document, low enough to stop hostile ones. Test use only
    beyond the default argument: test/test_xml.ml derives tightened limits
    from it. *)

val parse_document : ?keep_whitespace:bool -> ?limits:limits -> string -> Types.document
(** Parse a complete document. @raise Error.Parse_error on malformed
    input or when a limit (default {!default_limits}) is exceeded. *)

val parse_file : ?keep_whitespace:bool -> ?limits:limits -> string -> Types.document
(** Read a file and parse it. @raise Sys_error on IO failure. *)
