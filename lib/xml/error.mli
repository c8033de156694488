(** Source positions and parse errors for the XML and DTD parsers. *)

type position = {
  line : int;    (** 1-based *)
  column : int;  (** 1-based, in bytes *)
  offset : int;  (** 0-based byte offset *)
}

exception Parse_error of position * string
(** Raised by {!Extract_xml.Parser} and {!Extract_xml.Dtd} on malformed
    input. *)

val fail : position -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail pos fmt ...] raises {!Parse_error} with a formatted message. *)

val to_string : position -> string -> string
(** [to_string pos msg] is ["line L, column C: msg"]. *)
