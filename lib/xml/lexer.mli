(** Character-level cursor shared by the XML and DTD parsers.

    A lexer is a read-only view over a byte string with line/column
    tracking. All [expect]/[take] primitives raise {!Error.Parse_error} on
    mismatch with the current position attached. *)

type t

val of_string : string -> t

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

val take_while : t -> (char -> bool) -> string
(** Longest (possibly empty) prefix of characters satisfying the
    predicate. *)

val take_until : t -> string -> string
(** [take_until t stop] consumes up to, but not including, the next
    occurrence of [stop]. @raise Error.Parse_error when [stop] never
    occurs. *)

val is_name_start : char -> bool
(** Letter, [_] or [:] — the XML 1.0 NameStartChar set restricted to
    ASCII, plus bytes >= 0x80 so UTF-8 multibyte names pass through. *)

val take_name : t -> string
(** An XML Name. @raise Error.Parse_error if the input does not start with
    a name character. *)

val fail : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise a parse error at the current position. *)
