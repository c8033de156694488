(** Byte cursor shared by the XML and DTD parsers.

    A lexer is a read-only view over a byte string and one offset into
    it. Nothing is tracked per character: {!fail} derives the line and
    column from the offset when an error is raised. Literal tests compare
    in place, without copying the input. All [expect]/[take] primitives
    raise {!Error.Parse_error} on mismatch with the current position
    attached. *)

type t

val of_string : string -> t

val offset : t -> int
(** Bytes consumed so far. *)

val at_end : t -> bool

val peek : t -> char option
(** Current character without consuming it. *)

val advance : t -> unit
(** Consume one character. No-op at end of input. *)

val looking_at : t -> string -> bool
(** [looking_at t s] is true when the unconsumed input starts with [s]. *)

val eat : t -> string -> bool
(** [eat t s] consumes [s] if the input starts with it. *)

val expect : t -> string -> unit
(** Like {!eat} but raises if the literal is not present. *)

val skip_whitespace : t -> unit
(** Consume spaces, tabs, carriage returns and newlines. *)

val expect_whitespace : t -> unit
(** Require at least one whitespace character, then skip the run. *)

val is_blank : string -> int -> int -> bool
(** [is_blank s start stop]: every byte of [s] in [[start, stop)] is
    whitespace. *)

val skip_char_data : t -> unit
(** Consume bytes up to the next ['<'] or ['&'], or to the end. *)

val take_while : t -> (char -> bool) -> string
(** Longest (possibly empty) prefix of characters satisfying the
    predicate. *)

val take_until : t -> string -> string
(** [take_until t stop] consumes up to, but not including, the next
    occurrence of [stop]. @raise Error.Parse_error when [stop] never
    occurs. *)

val at_name_start : t -> bool
(** The next byte can start a name: a letter, [_] or [:] — the XML 1.0
    NameStartChar set restricted to ASCII — or a byte >= 0x80, so UTF-8
    multibyte names pass through. *)

val take_name : t -> string
(** An XML Name. @raise Error.Parse_error if the input does not start with
    a name character. *)

val eat_name : t -> string -> bool
(** [eat_name t name] consumes [name] when the input continues with
    exactly that Name (the next byte is not a name character). Nothing is
    copied. *)

val fail : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise a parse error at the current position. *)

val fail_at : t -> int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise a parse error at the given offset. *)
