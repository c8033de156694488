exception Injected of string * string

let () =
  Printexc.register_printer (function
    | Injected (point, detail) ->
      Some (Printf.sprintf "injected fault at %s (%s)" point detail)
    | _ -> None)

type mode =
  | Always
  | Once
  | Nth of int
  | Prob of float * Prng.t

(* What happens when the point fires: [Fail] is the classic injected
   error (should_fail returns true / hit raises); [Crash] simulates a
   power cut — the process dies on the spot via [Unix._exit 137], no
   at_exit handlers, no buffer flushes, exactly like kill -9. *)
type action =
  | Fail
  | Crash

(* guarded-by: lock — hits/fired (and the Prng inside Prob) are bumped
   from every worker domain once faults are armed *)
type state = {
  mode : mode;
  action : action;
  spec : string; (* the spec as configured, for reporting *)
  mutable hits : int;
  mutable fired : int;
}

let lock = Mutex.create ()

(* guarded-by: lock *)
let table : (string, state) Hashtbl.t = Hashtbl.create 8

(* The pipeline consults fault points per result; with nothing configured
   the whole feature must cost one load — hence an Atomic flag in front
   of the mutex-guarded table. *)
let armed = Atomic.make false

let clear () =
  Mutex.protect lock (fun () -> Hashtbl.reset table);
  Atomic.set armed false

let parse_mode spec =
  let parts = String.split_on_char ';' spec in
  let assoc =
    List.map
      (fun p ->
        match String.index_opt p '=' with
        | None -> p, ""
        | Some i -> String.sub p 0 i, String.sub p (i + 1) (String.length p - i - 1))
      parts
  in
  match assoc with
  | [ ("fail", "") ] -> Ok (Always, Fail)
  | [ ("once", "") ] -> Ok (Once, Fail)
  | [ ("crash", "") ] -> Ok (Always, Crash)
  | [ ("crash", k) ] -> begin
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ok (Nth k, Crash)
    | _ -> Error (Printf.sprintf "bad occurrence %S (want crash or crash=K, K >= 1)" k)
  end
  | [ ("nth", k) ] -> begin
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ok (Nth k, Fail)
    | _ -> Error (Printf.sprintf "bad occurrence %S (want nth=K, K >= 1)" k)
  end
  | ("p", p) :: rest -> begin
    let seed =
      match rest with
      | [] -> Ok 0
      | [ ("seed", s) ] -> begin
        match int_of_string_opt s with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "bad seed %S" s)
      end
      | _ -> Error "bad probability spec (want p=F or p=F;seed=N)"
    in
    match float_of_string_opt p, seed with
    | Some p, Ok seed when p >= 0. && p <= 1. -> Ok (Prob (p, Prng.create seed), Fail)
    | _, Error e -> Error e
    | _, Ok _ -> Error (Printf.sprintf "bad probability %S (want 0 <= p <= 1)" p)
  end
  | _ ->
    Error (Printf.sprintf "unknown fault spec %S (fail|once|nth=K|crash|crash=K|p=F;seed=N)" spec)

let configure config =
  clear ();
  let entries =
    String.split_on_char ',' config |> List.filter (fun s -> String.trim s <> "")
  in
  (* parse everything first, commit under the lock only on full success *)
  let rec parse_entries acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest -> begin
      let entry = String.trim entry in
      match String.index_opt entry ':' with
      | None -> Error (Printf.sprintf "missing ':' in fault %S (want point:spec)" entry)
      | Some i -> begin
        let point = String.sub entry 0 i in
        let spec = String.sub entry (i + 1) (String.length entry - i - 1) in
        match parse_mode spec with
        | Error e -> Error (Printf.sprintf "%s: %s" point e)
        | Ok (mode, action) -> parse_entries ((point, mode, action, spec) :: acc) rest
      end
    end
  in
  match parse_entries [] entries with
  | Ok parsed ->
    Mutex.protect lock (fun () ->
        List.iter
          (fun (point, mode, action, spec) ->
            Hashtbl.replace table point { mode; action; spec; hits = 0; fired = 0 })
          parsed);
    Atomic.set armed (parsed <> []);
    Ok ()
  | Error _ as e ->
    clear ();
    e

let env_var = "EXTRACT_FAULTS"

let install_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some config -> begin
    match configure config with
    | Ok () -> ()
    | Error msg -> invalid_arg (Printf.sprintf "%s: %s" env_var msg)
  end

(* One pass through a fault point: advance the counters and decide.
   [`Crash] is acted on outside the lock — the process is about to die,
   but exiting with the table mutex held would be gratuitously rude to
   any test harness running in-process. *)
let consult point =
  if not (Atomic.get armed) then `Pass
  else
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table point with
        | None -> `Pass
        | Some st ->
          st.hits <- st.hits + 1;
          let fire =
            match st.mode with
            | Always -> true
            | Once -> st.hits = 1
            | Nth k -> st.hits = k
            | Prob (p, prng) -> Prng.float prng 1.0 < p
          in
          if fire then st.fired <- st.fired + 1;
          if not fire then `Pass
          else
            match st.action with
            | Fail -> `Fail
            | Crash -> `Crash)

let crash_exit_code = 137

let should_fail point =
  match consult point with
  | `Pass -> false
  | `Fail -> true
  | `Crash ->
    (* simulated power cut: no at_exit, no flushes — the closest a
       process can get to kill -9 from the inside. 137 = 128 + SIGKILL,
       the code a shell reports for the real thing. *)
    Unix._exit crash_exit_code

let spec_of point =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table point with
      | Some st -> st.spec
      | None -> "?")

let hit point = if should_fail point then raise (Injected (point, "spec " ^ spec_of point))

let hits point =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table point with
      | Some st -> st.hits
      | None -> 0)

let fired point =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table point with
      | Some st -> st.fired
      | None -> 0)

let configured () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun point st acc -> (point, st.spec) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
