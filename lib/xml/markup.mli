(** Shared markup-level parsing helpers used by both the tree parser
    ({!Parser}) and the streaming parser ({!Sax}). Internal — the stable
    entry points are [Parser.parse*] and [Sax.fold*]. *)

val parse_reference : Lexer.t -> string
(** After ['&']: a character or predefined-entity reference, decoded to
    UTF-8 bytes. *)

val parse_attributes : Lexer.t -> Types.attribute list
(** Whitespace-separated [name="value"] pairs, duplicates rejected. *)

val is_blank : string -> bool

val skip_comment : Lexer.t -> unit
(** After ["<!--"]. *)

val skip_pi : Lexer.t -> unit
(** After ["<?"]. *)

val skip_misc : Lexer.t -> unit
(** Whitespace, comments and non-prolog processing instructions. *)

val parse_prolog : Lexer.t -> string option
(** BOM, XML declaration, misc, optional DOCTYPE (returning its internal
    subset), misc — leaves the lexer at the root element's ['<']. *)
