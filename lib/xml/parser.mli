(** Event-folding parser for the XML 1.0 subset used by eXtract: the one
    loop that scans XML. [Document.load_string] and [load_file] fold its
    events straight into the arena; no shipped code builds a {!Types.t}
    tree from XML text.

    Supported: prolog, [<!DOCTYPE name [internal subset]>] (the subset is
    captured verbatim for {!Dtd.parse}), elements, attributes with single or
    double quotes, character data, CDATA sections, comments, processing
    instructions, character references ([&#10;], [&#x0A;]) and the five
    predefined entities. Not supported (rejected with a parse error rather
    than mis-parsed): external DTD content, parameter entities in content,
    and custom general entities.

    Whitespace-only text between elements is dropped, matching how
    data-centric XML databases load documents. Adjacent text, CDATA and
    reference runs are merged into one {!Text} event, delivered after
    reference expansion.

    Adversarial inputs are bounded: nesting depth, total node count and the
    length of any single token are limited, and exceeding a limit raises a
    clean, positioned {!Error.Parse_error} whose message names the limit —
    never [Stack_overflow] or an unbounded allocation. *)

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

type event =
  | Start_element of string * (string * string) list
      (** tag, XML attributes (name, value) in document order *)
  | Text of string
  | End_element of string

val fold_document :
  ?limits:limits ->
  string ->
  init:'acc ->
  f:('acc -> event -> 'acc) ->
  'acc * string option
(** Run the callback over the document's events, and return the result
    with the DOCTYPE internal subset, if any. Every start has its end
    event, also for an empty element.
    @raise Error.Parse_error on malformed input or when a limit (default
    {!default_limits}) is exceeded. *)
