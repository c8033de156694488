module Registry = Extract_obs.Registry

(* ------------------------------------------------------------------ *)
(* Transport metrics: responses by status, connections dropped while
   writing, keep-alive reuses. *)

let response_counter status =
  Registry.counter ~help:"HTTP responses written, by status"
    ~labels:[ "status", string_of_int status ]
    "extract_http_responses_total"

(* pre-register the statuses the server can produce, so /metrics shows
   the full inventory from the first scrape *)
let () =
  List.iter
    (fun s -> ignore (response_counter s))
    [ 200; 400; 404; 405; 408; 413; 431; 500; 503 ]

let transport_error_counter kind =
  Registry.counter ~help:"Connections dropped while writing the response"
    ~labels:[ "kind", kind ] "extract_transport_errors_total"

let () =
  List.iter
    (fun k -> ignore (transport_error_counter k))
    [ "epipe"; "reset"; "write_timeout" ]

let keepalive_reuses_total =
  Registry.counter ~help:"Requests served on an already-open keep-alive connection"
    "extract_keepalive_reuses_total"

type meth = Get | Post

type response = {
  status : int;
  reason : string;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

let error ?(headers = []) status reason detail =
  {
    status;
    reason;
    content_type = "text/plain; charset=utf-8";
    headers;
    body = Printf.sprintf "%d %s\n%s\n" status reason detail;
  }

let overloaded detail =
  error ~headers:[ "Retry-After", "1" ] 503 "Service Unavailable" detail

type config = {
  timeout_ms : int;
  deadline_ms : int option;
  max_header_bytes : int;
  workers : int;
  queue_depth : int;
  max_requests_per_conn : int;
  log : string -> unit;
}

let default_config =
  {
    timeout_ms = 5_000;
    deadline_ms = None;
    max_header_bytes = 32_768;
    workers = 1;
    queue_depth = 64;
    max_requests_per_conn = 100;
    log = (fun msg -> Printf.eprintf "extract-serve: %s\n%!" msg);
  }

(* A dying client must cost us one connection, not the process: without
   this, the kernel answers a write to a closed peer with SIGPIPE and the
   default disposition kills the server. Ignored, the write fails with
   EPIPE, which the per-connection handler logs and drops. The once-guard
   is an Atomic exchange rather than a lazy: forcing a lazy from two
   domains at once raises Lazy.Undefined in one of them. *)
let sigpipe_installed = Atomic.make false

let ensure_sigpipe_ignored () =
  if not (Atomic.exchange sigpipe_installed true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    with Invalid_argument _ | Sys_error _ -> ()

(* Every accepted socket, served or shed, gets TCP_NODELAY: a response
   longer than one write(2) (64 KiB) leaves in several, and under
   Nagle's algorithm its last short segment could wait for the peer's
   ACK of the earlier ones. The read/write timeouts apply only when
   [timeout_ms] is positive. *)
let configure_socket fd timeout_ms =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  if timeout_ms > 0 then begin
    let seconds = float_of_int timeout_ms /. 1000. in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  end

let listen ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a deep kernel backlog: under load-test bursts the accept queue, not
     the kernel's, is the bound we want clients to hit *)
  Unix.listen sock 128;
  sock

let bound_port sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Http.bound_port: not an inet socket"

(* ------------------------------------------------------------------ *)
(* The request reader. A connection reads through one buffer: a refill
   is one read(2) of whatever has arrived, and it happens only once
   every buffered byte is consumed, so the reader blocks only when the
   bytes already read cannot decide the request. A line that spans a
   refill keeps its start in [spill]. *)

let max_request_line = 8192

(* GET carries no useful body, but a client that declared one must have
   it consumed before the next request can be framed on a keep-alive
   connection. Bounded: a declared length past the cap is refused with
   413 instead of being read. *)
let max_body_bytes = 1_048_576

let buffer_size = 4096

(* domain-local — a connection is served by the one worker that took it *)
type reader = {
  refill : Bytes.t -> int -> int -> int;
  buf : Bytes.t;
  mutable pos : int; (* first unconsumed byte *)
  mutable len : int; (* end of the bytes read *)
  spill : Buffer.t; (* the start of a line read before the last refill *)
}

let reader refill =
  { refill; buf = Bytes.create buffer_size; pos = 0; len = 0; spill = Buffer.create 128 }

(* One read(2) into the buffer, whose bytes are all consumed or spilled;
   false at end of stream. The buffer is emptied first, so a read that
   raises leaves no stale bytes behind for the body. *)
let refill r =
  r.pos <- 0;
  r.len <- 0;
  let n = r.refill r.buf 0 (Bytes.length r.buf) in
  r.len <- n;
  n > 0

(* The line whose bytes since the last refill are [start, stop) of the
   buffer: its one copy. *)
let take r start stop =
  if Buffer.length r.spill = 0 then Bytes.sub_string r.buf start (stop - start)
  else begin
    Buffer.add_subbytes r.spill r.buf start (stop - start);
    Buffer.contents r.spill
  end

type line = Line of string | Line_eof | Line_timeout | Too_long | Bad_cr

(* Up to the first LF or CRLF, at most [max_request_line] content bytes.
   [start, i) are the line's bytes since the last refill and [n] its
   content bytes so far; the bound is checked before each byte is
   looked at. *)
let read_request_line r =
  let rec scan start i n =
    if n >= max_request_line then Too_long
    else if i = r.len then begin
      Buffer.add_subbytes r.spill r.buf start (i - start);
      if refill r then scan 0 0 n else Line_eof
    end
    else
      match Bytes.get r.buf i with
      | '\n' ->
        r.pos <- i + 1;
        Line (take r start i)
      | '\r' -> after_cr start i
      | _ -> scan start (i + 1) (n + 1)
  (* CR is only valid as the first half of the CRLF terminator *)
  and after_cr start i =
    if i + 1 < r.len then
      if Bytes.get r.buf (i + 1) = '\n' then begin
        r.pos <- i + 2;
        Line (take r start i)
      end
      else Bad_cr
    else begin
      Buffer.add_subbytes r.spill r.buf start (i - start);
      if not (refill r) then Line_eof
      else if Bytes.get r.buf 0 = '\n' then begin
        r.pos <- 1;
        Line (take r 0 0)
      end
      else Bad_cr
    end
  in
  Buffer.clear r.spill;
  try scan r.pos r.pos 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) -> Line_timeout
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> Line_eof

(* Append [start, stop) of the buffer to the spill, CRs dropped. *)
let spill_without_cr r start stop =
  let rec run from i =
    if i = stop then Buffer.add_subbytes r.spill r.buf from (i - from)
    else if Bytes.get r.buf i = '\r' then begin
      Buffer.add_subbytes r.spill r.buf from (i - from);
      run (i + 1) (i + 1)
    end
    else run from (i + 1)
  in
  run start start

(* A header line whose bytes since the last refill are [start, stop),
   [crs] of them CRs, with its CRs dropped. The usual line has one, at
   its end, and is copied straight out of the buffer. *)
let header_line r start stop crs =
  if Buffer.length r.spill = 0 && crs = 0 then Bytes.sub_string r.buf start (stop - start)
  else if Buffer.length r.spill = 0 && crs = 1 && Bytes.get r.buf (stop - 1) = '\r' then
    Bytes.sub_string r.buf start (stop - 1 - start)
  else begin
    spill_without_cr r start stop;
    Buffer.contents r.spill
  end

type request_headers = {
  connection : string list; (* lowercased tokens *)
  content_length : int option;
  headers_eof : bool; (* peer closed before finishing the block *)
}

type header_outcome =
  | Headers of request_headers
  | Header_overflow
  | Header_timeout
  | Bad_content_length

(* Consume the header block up to the blank line, bounded (an unmetered
   sink would hand a hostile client free memoryless work): every byte
   before the final LF counts, CRs included. While draining, remember
   the two headers the transport acts on: [Connection] (comma-split,
   case-insensitive tokens) and [Content-Length]. EOF before the blank
   line still yields the headers seen so far — the request is served,
   but the connection cannot be kept alive. *)
let read_headers ~max_bytes r =
  let connection = ref [] in
  let content_length = ref None in
  let bad_length = ref false in
  let lowercase_trim s = String.lowercase_ascii (String.trim s) in
  let process_line l =
    match String.index_opt l ':' with
    | None -> ()
    | Some i ->
      let name = lowercase_trim (String.sub l 0 i) in
      let value = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
      (match name with
      | "connection" ->
        connection :=
          !connection @ List.map lowercase_trim (String.split_on_char ',' value)
      | "content-length" -> begin
        match int_of_string_opt value with
        | Some n when n >= 0 -> content_length := Some n
        | Some _ | None -> bad_length := true
      end
      | _ -> ())
  in
  let finish eof =
    if !bad_length then Bad_content_length
    else
      Headers
        {
          connection = !connection;
          content_length = !content_length;
          headers_eof = eof;
        }
  in
  (* [start, i) are the current line's bytes since the last refill,
     [crs] of them CRs (dropped); [consumed] counts the block's bytes
     before [i] *)
  let rec scan start i crs consumed =
    if consumed >= max_bytes then Header_overflow
    else if i = r.len then begin
      spill_without_cr r start i;
      if refill r then scan 0 0 0 consumed else finish true
    end
    else
      match Bytes.get r.buf i with
      | '\n' ->
        if Buffer.length r.spill = 0 && i - start = crs then begin
          r.pos <- i + 1;
          finish false
        end
        else begin
          process_line (header_line r start i crs);
          Buffer.clear r.spill;
          scan (i + 1) (i + 1) 0 (consumed + 1)
        end
      | '\r' -> scan start (i + 1) (crs + 1) (consumed + 1)
      | _ -> scan start (i + 1) crs (consumed + 1)
  in
  Buffer.clear r.spill;
  try scan r.pos r.pos 0 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
    Header_timeout
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> finish true

(* POST bodies are captured rather than drained — same bound, same
   timeout discipline. The buffered bytes come first; the rest is read
   straight into the body, never past its end. *)
let read_body ~length r =
  let body = Bytes.create length in
  let buffered = min length (r.len - r.pos) in
  Bytes.blit r.buf r.pos body 0 buffered;
  r.pos <- r.pos + buffered;
  let rec loop off =
    if off >= length then `Body (Bytes.unsafe_to_string body)
    else
      match r.refill body off (length - off) with
      | 0 -> `Eof
      | n -> loop (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
        `Timeout
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
  in
  loop buffered

(* A GET body is consumed through the buffer; what follows it stays
   there for the next request. *)
let drain_body ~length r =
  let rec loop remaining =
    let k = min remaining (r.len - r.pos) in
    r.pos <- r.pos + k;
    if k = remaining then `Drained
    else
      match refill r with
      | true -> loop (remaining - k)
      | false -> `Eof
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
        `Timeout
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
  in
  loop length

type request = {
  meth : meth;
  target : string;
  http11 : bool;
  headers : request_headers;
  body : string;
  truncated : bool;
}

type outcome =
  | Request of request
  | Eof
  | Timed_out
  | Rejected of { http11 : bool; response : response }

let reject ?(http11 = false) status reason detail =
  Rejected { http11; response = error status reason detail }

let read_request ~max_header_bytes r =
  match read_request_line r with
  | Line_eof -> Eof
  | Line_timeout -> Timed_out
  | Too_long ->
    reject 400 "Bad Request" (Printf.sprintf "request line longer than %d bytes" max_request_line)
  | Bad_cr -> reject 400 "Bad Request" "bare CR in request line"
  | Line line -> begin
    match String.split_on_char ' ' line with
    | (("GET" | "POST") as meth_str) :: target :: rest -> begin
      let meth = if meth_str = "POST" then Post else Get in
      let http11 = List.mem "HTTP/1.1" rest in
      let request ?(body = "") ?(truncated = false) headers =
        Request { meth; target; http11; headers; body; truncated }
      in
      match read_headers ~max_bytes:max_header_bytes r with
      | Header_overflow ->
        reject ~http11 431 "Request Header Fields Too Large"
          (Printf.sprintf "headers longer than %d bytes" max_header_bytes)
      | Header_timeout ->
        reject ~http11 408 "Request Timeout" "headers not finished within the read timeout"
      | Bad_content_length -> reject ~http11 400 "Bad Request" "invalid Content-Length"
      | Headers h -> begin
        let body_timeout () =
          reject ~http11 408 "Request Timeout" "request body not finished within the read timeout"
        in
        match h.content_length with
        | None | Some 0 -> request h
        | Some n when n > max_body_bytes ->
          reject ~http11 413 "Payload Too Large"
            (Printf.sprintf "request body longer than %d bytes" max_body_bytes)
        | Some n when meth = Post -> begin
          match read_body ~length:n r with
          | `Body body -> request ~body h
          | `Eof -> reject ~http11 400 "Bad Request" "request body truncated (peer closed mid-body)"
          | `Timeout -> body_timeout ()
        end
        | Some n -> begin
          (* a GET body is dead weight: consume it for keep-alive
             framing, never hand it to the routes *)
          match drain_body ~length:n r with
          | `Drained -> request h
          | `Eof -> request ~truncated:true h
          | `Timeout -> body_timeout ()
        end
      end
    end
    | _ -> reject 400 "Bad Request" (Printf.sprintf "unsupported request %S" line)
  end

(* ------------------------------------------------------------------ *)
(* Responses *)

(* A connection's send buffer: each response's head and body are copied
   into it and leave in one write(2) (up to the Unix library's 64 KiB
   chunk), so the client takes the whole response in one wake-up however
   the two sides are timed; written apart, whether the head alone woke
   the client depended on that timing. The buffer is reused for the
   connection's later responses and grows to its largest one, so a
   page-cache hit allocates no copy of the page. *)
(* domain-local — a connection is served by the one worker that took it *)
type send_buffer = { mutable bytes : Bytes.t }

let send_buffer () = { bytes = Bytes.empty }

(* The response echoes the request's HTTP version (an HTTP/1.0 client
   gets an HTTP/1.0 status line) and always carries Content-Length and
   an explicit Connection header — keep-alive framing depends on both,
   and error responses always say [close]. *)
let write_response ~http11 ~keep_alive out fd (r : response) =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  let head =
    Printf.sprintf
      "%s %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: %s\r\n\r\n"
      (if http11 then "HTTP/1.1" else "HTTP/1.0")
      r.status r.reason r.content_type (String.length r.body) extra
      (if keep_alive then "keep-alive" else "close")
  in
  let head_length = String.length head in
  let length = head_length + String.length r.body in
  if Bytes.length out.bytes < length then out.bytes <- Bytes.create length;
  Bytes.blit_string head 0 out.bytes 0 head_length;
  Bytes.blit_string r.body 0 out.bytes head_length (String.length r.body);
  let rec write_all off =
    if off < length then write_all (off + Unix.write fd out.bytes off (length - off))
  in
  write_all 0

let respond_once config fd (r : response) =
  configure_socket fd config.timeout_ms;
  Registry.incr (response_counter r.status);
  try write_response ~http11:false ~keep_alive:false (send_buffer ()) fd r
  with Unix.Unix_error _ -> ()

type handler = meth:meth -> body:string -> queue_wait:float -> string -> response

(* One connection, up to [max_requests] requests with HTTP/1.1
   keep-alive. Errors (≥ 400) always close: a client that just sent a
   malformed request cannot be trusted to have framed the rest of the
   stream correctly. *)
let serve_connection ?(queue_wait = 0.) ~requests ~max_requests config handler fd =
  configure_socket fd config.timeout_ms;
  let r = reader (Unix.read fd) in
  let out = send_buffer () in
  let rec loop served =
    let last = served + 1 >= max_requests in
    let finish ~http11 ~may_continue response =
      let keep_alive = may_continue && (not last) && response.status < 400 in
      Registry.incr (response_counter response.status);
      Registry.incr requests;
      if served > 0 then Registry.incr keepalive_reuses_total;
      match write_response ~http11 ~keep_alive out fd response with
      | () -> if keep_alive then loop (served + 1)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        Registry.incr (transport_error_counter "epipe");
        config.log "client went away before the response was written (EPIPE); dropped"
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPROTOTYPE), _, _) ->
        Registry.incr (transport_error_counter "reset");
        config.log "connection reset by peer while writing response; dropped"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
        ->
        Registry.incr (transport_error_counter "write_timeout");
        config.log "response write timed out (slow reader); dropped"
    in
    match read_request ~max_header_bytes:config.max_header_bytes r with
    (* between keep-alive requests, a vanished or idle peer is normal
       connection end, not an error worth a response *)
    | (Eof | Timed_out) when served > 0 -> ()
    | Eof -> finish ~http11:false ~may_continue:false (error 400 "Bad Request" "empty request")
    | Timed_out ->
      finish ~http11:false ~may_continue:false
        (error 408 "Request Timeout" "no request line within the read timeout")
    | Rejected { http11; response } -> finish ~http11 ~may_continue:false response
    | Request q ->
      let h = q.headers in
      let wants_keepalive =
        if List.mem "close" h.connection then false
        else if List.mem "keep-alive" h.connection then true
        else q.http11 (* HTTP/1.1 defaults to persistent connections *)
      in
      finish ~http11:q.http11
        ~may_continue:(wants_keepalive && (not h.headers_eof) && not q.truncated)
        (handler ~meth:q.meth ~body:q.body
           (* the queue wait belongs to the first request only: a
              keep-alive reuse never sat in the accept queue *)
           ~queue_wait:(if served = 0 then queue_wait else 0.)
           q.target)
  in
  loop 0
