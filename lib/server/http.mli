(** The HTTP/1.1 transport under {!Demo_server}: socket options, the
    per-connection request reader, response framing with its send
    buffer, the transport metrics and the keep-alive connection loop.
    Routing is the caller's: the loop hands each complete request to a
    {!handler}. {!Pool} accepts the connections and runs the loop on its
    worker domains.

    Each connection reads through one buffer of a fixed 4 KiB: a refill
    is one [read(2)] of whatever the peer has sent, the request line and
    header block are parsed out of it, and bytes past one request's end
    stay buffered for the next pipelined request. The bounds are those of
    DESIGN.md §9: a request line of at most {!read_request}'s 8,192
    content bytes, a header block of [max_header_bytes], a declared body
    of 1 MiB, and [SO_RCVTIMEO] on every [read(2)]. *)

type meth = Get | Post

type response = {
  status : int;
  reason : string;
  content_type : string;
  headers : (string * string) list;  (** extra headers, e.g. [Retry-After] on 503 *)
  body : string;
}

val error : ?headers:(string * string) list -> int -> string -> string -> response
(** [error status reason detail] is a plain-text response whose body is
    ["STATUS REASON\nDETAIL\n"]. *)

val overloaded : string -> response
(** [503 Service Unavailable] with [Retry-After: 1]: load shed up front. *)

type config = {
  timeout_ms : int;
      (** per-connection socket read/write timeout ([SO_RCVTIMEO] /
          [SO_SNDTIMEO]); [0] disables. Default 5000. [TCP_NODELAY] is
          set either way. *)
  deadline_ms : int option;
      (** per-request snippet budget, started after the request is fully
          read; [None] (default) = no deadline. The {!handler} reads it. *)
  max_header_bytes : int;
      (** bound on the post-request-line header drain (default 32 KiB);
          beyond it the request is answered 431. *)
  workers : int;
      (** worker domains in the {!Pool} (default 1; values < 1 are
          clamped to 1). Each worker runs connections to completion, so
          [workers] bounds concurrently-served connections. *)
  queue_depth : int;
      (** accepted connections allowed to wait for a worker (default 64;
          clamped to ≥ 1). Beyond it the acceptor sheds with 503. *)
  max_requests_per_conn : int;
      (** keep-alive requests served on one connection before the server
          closes it (default 100) — bounds how long one client can hold
          a worker. *)
  log : string -> unit;
      (** dropped-connection and handler-failure reports (default:
          stderr). *)
}

val default_config : config

val ensure_sigpipe_ignored : unit -> unit
(** Ignore SIGPIPE (once per process), so a write to a vanished peer
    fails with [EPIPE] instead of killing the server. *)

val listen : port:int -> Unix.file_descr
(** Bind and listen on 127.0.0.1:[port] ([port] 0 picks a free one). *)

val bound_port : Unix.file_descr -> int

val respond_once : config -> Unix.file_descr -> response -> unit
(** Count [response] and write it as HTTP/1.0 with [Connection: close]
    on a fresh socket, ignoring write errors; the caller closes the
    socket. The acceptor's shed path. Like {!serve_connection}, it first
    sets [TCP_NODELAY] and, when [config.timeout_ms] is positive,
    [SO_RCVTIMEO] and [SO_SNDTIMEO]: every accepted socket gets them,
    served or shed. *)

type handler = meth:meth -> body:string -> queue_wait:float -> string -> response
(** Answer one request: its method, its body (a [POST]'s; [""] for a
    [GET]), how long its connection waited for a worker (the first
    request of a connection only, else [0.]) and its target. Called once
    the request has been read whole. *)

val serve_connection :
  ?queue_wait:float ->
  requests:Extract_obs.Registry.counter ->
  max_requests:int ->
  config ->
  handler ->
  Unix.file_descr ->
  unit
(** Serve up to [max_requests] requests on one accepted connection with
    HTTP/1.1 keep-alive, counting each response in [requests]. Every
    response echoes the request's HTTP version and carries
    [Content-Length] and an explicit [Connection] header; an error
    response (status ≥ 400) always closes. A malformed request is
    answered by the transport itself: 400 (bad request line, bare CR,
    line over the bound, bad [Content-Length], a [POST] body cut short),
    408 (read timeout), 413 (declared body over 1 MiB) or 431 (header
    block over [max_header_bytes]). A peer that vanishes or stalls
    between keep-alive requests ends the connection quietly; a write
    that fails ([EPIPE], reset, write timeout) is counted, logged via
    [config.log] and dropped. Does not close [fd]. *)

(** {1 The request reader (exposed for tests)} *)

type reader
(** A connection's read side: its refill function and its 4 KiB buffer,
    holding bytes read past the current request. *)

(* lint: allow unused-export *)
val reader : (Bytes.t -> int -> int -> int) -> reader
(** [reader refill] reads through [refill buf off len], which returns
    the bytes it put at [buf.[off]] (at most [len], [0] at end of
    stream) and may raise [Unix.Unix_error]; the server passes
    [Unix.read fd]. Test use only beyond {!serve_connection}:
    test/test_http.ml feeds strings cut into chosen read sizes. *)

type request_headers = {
  connection : string list;  (** [Connection] tokens, lowercased *)
  content_length : int option;
  headers_eof : bool;  (** the peer closed before the blank line *)
}

type request = {
  meth : meth;
  target : string;
  http11 : bool;  (** the request line names [HTTP/1.1] *)
  headers : request_headers;
  body : string;  (** a [POST]'s body; [""] for a [GET] *)
  truncated : bool;  (** the peer closed inside a [GET]'s declared body *)
}

type outcome =
  | Request of request
  | Eof  (** the peer closed (or reset) before a full request line *)
  | Timed_out  (** [SO_RCVTIMEO] expired before a full request line *)
  | Rejected of { http11 : bool; response : response }
      (** a request the transport answers with this error, then closes *)

(* lint: allow unused-export *)
val read_request : max_header_bytes:int -> reader -> outcome
(** Read the next request: its line, its header block and its declared
    body. The line ends at LF or CRLF and holds at most 8,192 content
    bytes; a CR not followed by LF is rejected, never dropped. Every
    byte of the header block before its final LF counts against
    [max_header_bytes], CRs included, and a CR inside a header line is
    dropped. A [POST] body is read whole and a [GET]'s is read and
    discarded, up to 1 MiB. Allocates nothing per byte. Test use only
    beyond {!serve_connection}: test/test_http.ml "same outcomes as the
    byte-wise reader", test/test_server.ml "request line forms" and
    "request line bound". *)
