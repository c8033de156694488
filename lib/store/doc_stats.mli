(** Document statistics, reported by the CLI's [stats] command and by the
    E1 dataset table of the benchmark harness. *)

type t = {
  nodes : int;
  elements : int;
  text_nodes : int;
  distinct_tags : int;
  distinct_paths : int;
  max_depth : int;
  entity_paths : int;
  attribute_paths : int;
  connection_paths : int;
  entity_instances : int;
  attribute_instances : int;
}

val compute : Node_kind.t -> t

val pp : Format.formatter -> t -> unit

val pp_json : Format.formatter -> t -> unit
(** The same statistics as one JSON object (the demo server's
    [/stats?format=json] embeds it). *)

val to_row : t -> string list
(** Cells matching {!header}, for table rendering. *)

val header : string list
