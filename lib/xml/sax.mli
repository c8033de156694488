(** Streaming (SAX-style) XML parsing.

    {!fold_document} walks the document and hands events to a callback
    without ever building a {!Types.t} tree — the store uses it to
    construct its arena in one pass
    ({!Extract_store.Document.of_string_streaming}), halving peak memory
    on large inputs (benchmark E15).

    Same dialect as {!Parser} (same prolog/DOCTYPE/CDATA/reference
    handling, same whitespace policy), and the two are property-tested to
    agree: folding {!event}s and rebuilding a tree equals the root
    {!Parser.parse_document} builds.

    Text is reported after reference expansion and adjacent-run merging,
    exactly like the tree parser; XML attributes are delivered with the
    start-element event in document order. *)

type event =
  | Start_element of string * (string * string) list
      (** tag, attributes (name, value) *)
  | Text of string
  | End_element of string

val fold_document :
  ?keep_whitespace:bool ->
  string ->
  init:'acc ->
  f:('acc -> event -> 'acc) ->
  'acc * string option
(** Run the callback over the document's events, and return the result
    with the DOCTYPE internal subset, if any.
    @raise Error.Parse_error on malformed input. *)

(* lint: allow unused-export *)
val count_elements : string -> int
(** Number of elements, without building anything. Test use only:
    test/test_streaming.ml and the ["sax count = tree count"] property. *)
