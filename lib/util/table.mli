(** Plain-text table rendering for the benchmark harness and the CLI.

    Columns are sized to their widest cell; numeric-looking cells are
    right-aligned, everything else left-aligned. *)

type t

val create : string list -> t
(** [create headers] is an empty table with the given column headers. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header
    width. *)

(* lint: allow unused-export *)
val row_count : t -> int
(** Test use only: test/test_util.ml ["row count"]. *)

(* lint: allow unused-export *)
val render : t -> string
(** Multi-line string, no trailing newline; what {!print} writes. Test
    use only: test/test_util.ml ["render"]. *)

val print : ?title:string -> t -> unit
(** [print t] writes the table to stdout, preceded by [title] underlined
    when given, followed by a blank line. *)
