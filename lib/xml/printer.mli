(** XML serialization. Round-trips with {!Parser}: for any tree [t], the
    events {!Parser.fold_document} reads from [to_string t] rebuild [t]
    (up to the parser's whitespace policy — use [~indent:None] for exact
    round-trips), and [Document.load_string] of it equals the arena
    [Document.of_xml] flattens from [t]. *)

val to_string : ?indent:int option -> Types.t -> string
(** Serialize a tree. [indent] is the indentation step: [Some 2] (default)
    pretty-prints with 2-space indentation and newlines — safe for
    data-centric XML where elements contain either text or elements, not
    both; [None] emits everything on one line with no inserted
    whitespace. *)

val document_to_string : ?indent:int option -> ?dtd:string -> Types.document -> string
(** Serialize a full document with an XML declaration, and a DOCTYPE when
    the document carries an internal subset (or [dtd] is given). *)

val write_file : string -> ?indent:int option -> Types.document -> unit
