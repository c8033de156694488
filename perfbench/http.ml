(* A minimal HTTP/1.1 keep-alive client, and the hot-http load
   generator built on it. The generator is its own process (the same
   executable, [loadgen] subcommand): one connection, one request in
   flight, every response compared byte for byte with the expected page
   once its last byte is in and its time taken. *)

(* domain-local — a connection belongs to the one loop that opened it *)
type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable received : int; (* bytes read from the socket *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; pos = 0; len = 0; received = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let refill c =
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  if n = 0 then raise End_of_file;
  c.pos <- 0;
  c.len <- n;
  c.received <- c.received + n

let read_line c =
  let b = Buffer.create 64 in
  let rec loop () =
    if c.pos >= c.len then refill c;
    let ch = Bytes.get c.buf c.pos in
    c.pos <- c.pos + 1;
    match ch with
    | '\n' -> Buffer.contents b
    | '\r' -> loop ()
    | ch ->
      Buffer.add_char b ch;
      loop ()
  in
  loop ()

let write_all fd s =
  let bytes = Bytes.unsafe_of_string s in
  let rec loop off =
    if off < Bytes.length bytes then loop (off + Unix.write fd bytes off (Bytes.length bytes - off))
  in
  loop 0

type head = {
  status : int;
  content_length : int;
  closing : bool; (* the server sent Connection: close *)
}

let read_head c =
  let status =
    match String.split_on_char ' ' (read_line c) with
    | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
    | _ -> 0
  in
  let rec headers content_length closing =
    match read_line c with
    | "" -> { status; content_length; closing }
    | line -> (
      match String.index_opt line ':' with
      | None -> headers content_length closing
      | Some i ->
        let key = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
        let value =
          String.lowercase_ascii (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        in
        if String.equal key "content-length" then
          headers (Option.value ~default:0 (int_of_string_opt value)) closing
        else if String.equal key "connection" then headers content_length (String.equal value "close")
        else headers content_length closing)
  in
  headers 0 false

(* Read an [n]-byte body into the front of [!into], which grows to
   fit; the caller compares it afterwards ([matches]). *)
let read_body c n into =
  if Bytes.length !into < n then into := Bytes.create n;
  let off = ref 0 in
  while !off < n do
    if c.pos >= c.len then refill c;
    let take = min (n - !off) (c.len - c.pos) in
    Bytes.blit c.buf c.pos !into !off take;
    c.pos <- c.pos + take;
    off := !off + take
  done

(* The first [n] bytes of [body] are [expected]. *)
let matches body n expected =
  n = String.length expected
  &&
  let rec same i =
    i = n || (Char.equal (Bytes.unsafe_get body i) (String.unsafe_get expected i) && same (i + 1))
  in
  same 0

let request_line target = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" target

(* One GET on a fresh connection, for the cold-start probe. *)
let get_once ~port target ~expected =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      write_all c.fd (request_line target);
      let h = read_head c in
      let body = ref Bytes.empty in
      read_body c h.content_length body;
      h.status = 200 && matches !body h.content_length expected)

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)

(* What the generator is told (written by the server process with
   [Marshal], read back by the same executable). *)
type plan = {
  port : int;
  targets : string array; (* distinct targets *)
  pages : string array; (* expected body of each target *)
  sequence : int array; (* indices into [targets], in request order *)
}

type report = {
  latencies : float array; (* seconds, per request, in sequence order *)
  failures : int; (* non-200, wrong body or broken connection *)
  reconnects : int; (* connections reopened after the server closed one *)
  bytes : int; (* response bytes received *)
  wall : float; (* the requests' seconds summed: the checks run off the clock *)
}

let run_plan plan =
  let n = Array.length plan.sequence in
  let latencies = Array.make n 0. in
  let failures = ref 0 and reconnects = ref 0 and bytes = ref 0 in
  let conn = ref None in
  let body = ref (Bytes.create 65536) in
  let drop c =
    bytes := !bytes + c.received;
    close c;
    conn := None
  in
  for i = 0 to n - 1 do
    let k = plan.sequence.(i) in
    let t0 = Common.now () in
    let c =
      match !conn with
      | Some c -> c
      | None ->
        if i > 0 then incr reconnects;
        let c = connect plan.port in
        conn := Some c;
        c
    in
    match
      write_all c.fd (request_line plan.targets.(k));
      let h = read_head c in
      read_body c h.content_length body;
      h
    with
    | h ->
      latencies.(i) <- Common.now () -. t0;
      if h.status <> 200 || not (matches !body h.content_length plan.pages.(k)) then incr failures;
      if h.closing then drop c
    | exception (End_of_file | Unix.Unix_error _) ->
      latencies.(i) <- Common.now () -. t0;
      incr failures;
      drop c
  done;
  Option.iter drop !conn;
  {
    latencies;
    failures = !failures;
    reconnects = !reconnects;
    bytes = !bytes;
    wall = Common.sum latencies;
  }

(* [loadgen PLAN REPORT]: the generator process's whole life. *)
let loadgen ~plan_path ~report_path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let plan : plan = Common.read_marshal plan_path in
  Common.write_marshal report_path (run_plan plan)
