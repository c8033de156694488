(** Markup-level parsing helpers for {!Parser.fold_document}: references,
    attributes, comments, processing instructions and the prolog.
    Internal — the stable entry point is [Parser.fold_document]. *)

val parse_reference : Lexer.t -> string
(** After ['&']: a character or predefined-entity reference, decoded to
    UTF-8 bytes. *)

val parse_attributes : Lexer.t -> (string * string) list
(** Whitespace-separated [name="value"] pairs, in document order,
    duplicates rejected. *)

val skip_comment : Lexer.t -> unit
(** After ["<!--"]. *)

val skip_pi : Lexer.t -> unit
(** After ["<?"]. *)

val skip_misc : Lexer.t -> unit
(** Whitespace, comments and non-prolog processing instructions. *)

val parse_prolog : Lexer.t -> string option
(** BOM, XML declaration, misc, optional DOCTYPE (returning its internal
    subset), misc — leaves the lexer at the root element's ['<']. *)
