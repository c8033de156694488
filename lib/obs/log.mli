(** Leveled, structured JSON-lines event log.

    Each event renders as one JSON object per line:

    {v
{"ts": 1754489000.123, "level": "info", "event": "query.done", "rid": "q000001", "query": "store texas", "results": 2, "seconds": 0.0031}
    v}

    [ts] is wall-clock seconds ([Unix.gettimeofday]); [rid] is stamped
    automatically from the current {!Reqid} scope and omitted outside
    one, so every event inside a query scope correlates with that
    query's trace spans, access-log line and slowlog entry for free.

    Logging is {b off by default} and costs one atomic load per call
    when off; fields are only rendered for events that pass the level
    threshold. Lines are written to one sink — stderr by default, or an
    append-mode file — under a mutex, so events from parallel domains
    never interleave mid-line.

    Enable with {!set_level}, the CLI's [--log-level], or the
    [EXTRACT_LOG] environment variable: [EXTRACT_LOG=level] or
    [EXTRACT_LOG=level:FILE] with level one of
    [debug|info|warn|error|off]. *)

type level =
  | Debug
  | Info
  | Warn
  | Error

val set_level : level option -> unit
(** Events at or above the given level are emitted; [None] disables
    logging entirely (the default). *)

val enabled : level -> bool
(** Would an event at this level be emitted? Use to skip expensive field
    computation; the emitters already check it. *)

val level_of_string : string -> level option
(** ["debug"|"info"|"warn"|"warning"|"error"] (case-insensitive) to a
    level; ["off"|"none"] to [None].
    @raise Invalid_argument on anything else. *)

val level_name : level -> string

(* lint: allow unused-export *)
val set_sink : (string -> unit) option -> unit
(** Replace the line sink ([None] restores the stderr default). The sink
    receives one rendered line at a time, without the newline, under the
    log mutex — keep it fast and non-reentrant. Test use only:
    test/test_obs.ml and test/test_server.ml capture the emitted lines through
    it. *)

val install_from_env : unit -> unit
(** Parse [EXTRACT_LOG] ([level] or [level:FILE]) and configure level and
    sink accordingly; absent or empty means leave logging off.
    @raise Invalid_argument on a malformed value (the CLI reports it and
    exits 2, like [EXTRACT_FAULTS]). *)

val debug : string -> (string * Jsonv.t) list -> unit
(** [debug name fields] emits one line when the level passes the
    threshold. [name] goes in the ["event"] field; [fields] are appended
    after the standard [ts]/[level]/[event]/[rid] prefix. {!info} and
    {!warn} are the same at their levels. *)

val info : string -> (string * Jsonv.t) list -> unit

val warn : string -> (string * Jsonv.t) list -> unit
