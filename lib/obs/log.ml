(* Structured JSON-lines event log. Off by default: one atomic load per
   call site decides everything, so instrumented hot paths cost nothing
   until a level is set. Lines go to one sink (stderr by default, or an
   append-mode file) under a mutex, so events from parallel domains never
   interleave mid-line. *)

type level =
  | Debug
  | Info
  | Warn
  | Error

let level_int = function
  | Debug -> 1
  | Info -> 2
  | Warn -> 3
  | Error -> 4

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | "off" | "none" -> None
  | _ -> invalid_arg (Printf.sprintf "Log: unknown level %S" s)

(* 0 = disabled *)
let threshold = Atomic.make 0

let set_level lvl =
  Atomic.set threshold (match lvl with None -> 0 | Some l -> level_int l)

let enabled lvl =
  let t = Atomic.get threshold in
  t > 0 && level_int lvl >= t

let sink_lock = Mutex.create ()

let stderr_sink line =
  output_string stderr line;
  output_char stderr '\n';
  flush stderr

let sink : (string -> unit) ref = ref stderr_sink (* guarded-by: sink_lock *)

let set_sink s =
  Mutex.lock sink_lock;
  sink := (match s with None -> stderr_sink | Some f -> f);
  Mutex.unlock sink_lock

let file_sink path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  fun line ->
    output_string oc line;
    output_char oc '\n';
    flush oc

let install_from_env () =
  match Sys.getenv_opt "EXTRACT_LOG" with
  | None | Some "" -> ()
  | Some spec ->
    let level_part, file_part =
      match String.index_opt spec ':' with
      | None -> (spec, None)
      | Some i ->
        ( String.sub spec 0 i,
          Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    in
    let lvl = level_of_string level_part in
    (match file_part with
    | None | Some "" -> ()
    | Some path -> set_sink (Some (file_sink path)));
    set_level lvl

let event lvl name fields =
  if enabled lvl then begin
    let base =
      [ ("ts", Jsonv.Float (Unix.gettimeofday ()));
        ("level", Jsonv.Str (level_name lvl));
        ("event", Jsonv.Str name) ]
    in
    let rid =
      match Reqid.current () with
      | Some id -> [ ("rid", Jsonv.Str id) ]
      | None -> []
    in
    let line = Jsonv.to_string (Jsonv.Obj (base @ rid @ fields)) in
    Mutex.lock sink_lock;
    (try !sink line with _ -> ());
    Mutex.unlock sink_lock
  end

let debug name fields = event Debug name fields

let info name fields = event Info name fields

let warn name fields = event Warn name fields
