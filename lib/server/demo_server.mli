(** The demo web service.

    The original demonstration ran as a web site (Apache + PHP, paper §4):
    the user picks an XML data set, issues keyword queries, customizes the
    snippet size bound and browses snippets with links to the complete
    results. This module is that service, self-contained: a tiny HTTP/1.1
    server (plain [Unix] sockets, no dependencies) over a {!Corpus}, with
    keep-alive connections, a fixed pool of OCaml 5 domain workers behind
    a bounded accept queue, and a sharded LRU cache of rendered pages
    shared across the workers.

    Routing:

    - [GET /] — home page: data sets and a search form;
    - [GET /search?data=NAME&q=QUERY&bound=N] — the Fig. 5 result page
      (HTML from {!Extract_snippet.Html_view});
    - [GET /complete?data=NAME&prefix=P] — query-box completions, plain
      text, one [token count] per line;
    - [GET /stats?data=NAME] — document statistics, plain text;
    - [GET /stats?format=json&data=NAME] — cache statistics, degraded
      count, the whole metrics registry, and (when [data] names a data
      set) its document statistics, as one JSON object;
    - [GET /metrics] — the {!Extract_obs.Registry} snapshot in the
      Prometheus text exposition format: per-stage latency histograms,
      cache hit/miss/eviction series, snapshot packs, maps and mapped
      bytes, degraded and shed counts, transport outcomes;
    - [GET /explain?data=NAME&q=QUERY&bound=N&format=json|text] — the
      {!Extract_snippet.Explain} bundle for the query: per-IList-entry
      selection fates, dominance scores, edge-budget accounting,
      posting and timing sections and the request id (default JSON;
      never cached: every request runs the pipeline);
    - [GET /debug/slowlog] — the {!Extract_obs.Slowlog} snapshot: the
      slowest queries plus every recent degraded/faulted query, JSON;
    - [GET /debug/trace?last=N] — the newest buffered trace roots (all
      when [last] is absent) as Chrome trace-event JSON
      ({!Extract_obs.Trace_export}), Perfetto-loadable;
    - [GET /debug/runtime] — the {!Extract_obs.Runtime} sample: GC
      stats, domain counts and the collector inventory, JSON;
    - [GET /healthz] — liveness: [200 ok] whenever requests are being
      routed at all;
    - [GET /readyz] — readiness: [503] + [Retry-After] until serving
      has started ({!mark_ready}, done by {!start_pool}/{!serve}) and
      whenever the accept queue has reached its shed threshold, [200]
      otherwise, with a JSON component breakdown either way — the
      load-balancer gate;
    - anything else — 404.

    When created with a live corpus ([create ?live], the CLI's
    [serve --live DIR]), four more routes serve online updates:

    - [POST /admin/add?name=NAME] (body: the XML document) — journalled
      add/replace via {!Extract_snippet.Live_corpus.add}; unparsable XML
      or a bad name answers 400 and never reaches the journal;
    - [POST /admin/remove?name=NAME] — journalled remove (404 when the
      member does not exist);
    - [POST /admin/compact] — fold journalled updates into a fresh
      snapshot generation, plain-text reply names it;
    - [GET /live] — generation and member names, plain text;
    - [GET /live/search?q=QUERY&bound=N&limit=K] — search the live
      corpus (base + deltas, HTML like [/search]). Live pages bypass
      the page cache: its key does not encode the store generation, and
      the query-view swap inside {!Extract_snippet.Live_corpus} already
      reuses every unchanged analyzed segment.

    Updates serialise on the live corpus's writer lock; searches read one
    atomic query-view snapshot and never block behind a writer. [GET] on
    an admin route (and [POST] anywhere else) answers 405 with an
    [Allow] header; admin routes without a live corpus answer 404.

    Every request runs under a fresh {!Extract_obs.Reqid}; with
    [EXTRACT_LOG] (or the CLI's [--log-level]) enabled, each request
    emits an [http.access] event whose [rid] matches the pipeline's
    event-log lines, the trace spans and the slowlog entry produced by
    the same request.

    [handle] is the pure request → response core (unit-testable without
    sockets); [serve], [serve_once] and {!start_pool} add the transport.

    {2 Resilience (DESIGN.md §9)}

    The transport assumes hostile or broken clients: SIGPIPE is ignored
    (a dying client costs one connection, not the process), reads and
    writes carry [SO_RCVTIMEO]/[SO_SNDTIMEO] timeouts so a slowloris
    client can wedge at most one worker for one timeout, the request
    line, header block and declared body are byte-bounded, and every
    per-connection failure is logged and dropped while the pool keeps
    serving. Each request may run under a deadline
    ({!config.deadline_ms}): snippets that would start after expiry
    degrade to the baseline (tagged in the HTML and counted on
    [/stats]), and a request whose budget is gone before search starts is
    shed with [503] + [Retry-After].

    {2 Multi-core serving (DESIGN.md §12)}

    {!serve} runs an acceptor domain feeding a bounded queue of accepted
    connections to [config.workers] worker domains; when the queue is
    full the acceptor itself answers [503] + [Retry-After] immediately.
    Each worker runs the keep-alive loop: up to
    [config.max_requests_per_conn] requests per connection, [Connection]
    and [Content-Length] honored, every error response closing the
    connection. Responses echo the request's HTTP version and always
    carry [Content-Length] and an explicit [Connection] header. A
    response leaves in one write from a send buffer the connection
    reuses, so a cached page is sent without allocating a copy of it;
    every accepted socket sets [TCP_NODELAY], so the last segment of a
    response longer than one write does not wait for the peer's
    acknowledgement of the earlier ones. *)

type t

val create :
  ?cache_size:int ->
  ?live:Extract_snippet.Live_corpus.t ->
  ?sharded:Extract_snippet.Shard_set.t ->
  Extract_snippet.Corpus.t ->
  t
(** [cache_size] bounds the rendered-page LRU (default 64 pages). The
    cache is sharded 8 ways ({!Extract_util.Sharded_lru}) so pool
    workers contend only on hash collisions. [live] attaches a
    crash-safe updatable corpus and enables the [/admin] and [/live]
    routes. [sharded] attaches a read-only split corpus
    ({!Extract_snippet.Shard_set}) and enables the [/shards] (status)
    and [/shards/search] (every shard one segment of a ranked merge)
    routes — the CLI's [serve DIR] on a directory written by
    [extract pack --shards].

    Creation also (re-)registers the server's runtime collectors
    ({!Extract_obs.Runtime.register_collector}): cache-occupancy gauges
    and, with [live], the journal-lag gauge. *)

val mark_ready : t -> unit
(** Flip the readiness latch: [/readyz] answers 200 (queue permitting)
    from now on. {!start_pool}, {!serve} and {!serve_once} call this
    when they start accepting; embedders driving {!handle_request}
    directly call it themselves once their corpus is in place. *)

type response = {
  status : int;
  reason : string;
  content_type : string;
  headers : (string * string) list;  (** extra headers, e.g. [Retry-After] on 503 *)
  body : string;
}

type meth = Get | Post

val handle_request :
  ?deadline:Extract_util.Deadline.t ->
  ?meth:meth ->
  ?body:string ->
  ?queue_wait:float ->
  t ->
  string ->
  response
(** [handle_request t target] serves one request (path + optional query
    string, e.g. ["/search?data=retail&q=store+texas&bound=6"]). [meth]
    (default [Get]) selects the route table; [body] (default [""]) is
    the captured request body, consumed only by [POST /admin/add]. Never
    raises: errors become 4xx/5xx responses — an injected transient fault
    ({!Extract_util.Faults.Injected}) maps to 503 + [Retry-After], any
    other escape to 500. An already-expired [deadline] sheds the search
    routes with 503 before any pipeline work; one that expires
    mid-request degrades the remaining snippets instead (a 200, never a
    timeout).

    When the request is picked by the trace sampler
    ([EXTRACT_TRACE_SAMPLE], {!Extract_obs.Trace.sampled}) — or tracing
    is enabled process-wide — the whole request records an
    [http.request] span tree, including a [queue.wait] child covering
    [queue_wait] seconds (how long the connection sat in the accept
    queue before a worker picked it up; default [0.], omitted). *)

val handle : ?deadline:Extract_util.Deadline.t -> t -> string -> response
(** [handle_request] with [~meth:Get ~body:""] — the pre-update entry
    point, kept for GET-only callers. *)

val cache_stats : t -> int * int
(** (hits, misses) of the page cache. *)

val snippet_cache_stats : t -> int * int
(** Always [(0, 0)]: the server keeps one cache level, the page cache
    ({!cache_stats}). Its only reader is the served-query benchmark
    ([perfbench/]), whose [snippet_cache.hit_ratio] metric it feeds. *)

(* lint: allow unused-export *)
val degraded_served : t -> int
(** Deadline-degraded snippets served since startup on every search
    route (also on [/stats]). Pages containing any are never cached.
    Test use only: test/test_server.ml reads the counter directly. *)

(** {1 Transport} *)

type config = {
  timeout_ms : int;
      (** per-connection socket read/write timeout ([SO_RCVTIMEO] /
          [SO_SNDTIMEO]); [0] disables. Default 5000. [TCP_NODELAY] is
          set either way. *)
  deadline_ms : int option;
      (** per-request snippet budget, started after the request is fully
          read; [None] (default) = no deadline. *)
  max_header_bytes : int;
      (** bound on the post-request-line header drain (default 32 KiB);
          beyond it the request is answered 431. *)
  workers : int;
      (** worker domains in the pool (default 1; values < 1 are clamped
          to 1). Each worker runs connections to completion, so
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

val listen : port:int -> Unix.file_descr
(** Bind and listen on 127.0.0.1:[port] ([port] 0 picks a free one). *)

val bound_port : Unix.file_descr -> int

val serve_once : ?config:config -> t -> Unix.file_descr -> unit
(** Accept one connection on a listening socket, answer one request,
    close (keep-alive is never granted: the single-shot entry point).
    Malformed requests get a 400, an overlong request line 400, an
    overlong header block 431, a read timeout 408, an oversized declared
    body 413; a client that disappears mid-response (EPIPE/reset) or
    reads too slowly is logged via [config.log] and dropped. Never
    raises for any of these per-connection conditions. *)

type pool
(** A running acceptor + worker-domain pool (see {!start_pool}). *)

(* lint: allow unused-export *)
val check_domain_budget : workers:int -> unit
(** Refuse a pool OCaml cannot run. [workers] workers hold 2 +
    [workers] live domains: the main domain, the acceptor and the
    workers. OCaml 5.1 runs at most 128 on 64-bit builds and 16 on
    32-bit ones.
    @raise Invalid_argument naming the numbers when the pool needs
    more. Test use only beyond {!start_pool}: test/test_pool.ml checks the
    budget without spawning a domain. *)

val start_pool : ?config:config -> t -> Unix.file_descr -> pool
(** Start the domain pool on an already-listening socket and return
    immediately: one acceptor domain pushing accepted connections into a
    bounded queue ([config.queue_depth], overflow answered 503 +
    [Retry-After] by the acceptor), [config.workers] worker domains each
    running the keep-alive connection loop. The caller keeps ownership
    of the listening socket.
    @raise Invalid_argument before spawning anything when the pool
    fails {!check_domain_budget}. *)

val stop_pool : pool -> unit
(** Graceful stop: close the queue, wake the acceptor (a loopback poke —
    closing the fd from another domain is not reliably observed), join
    all domains. Connections already queued or in flight are served to
    completion; the listening socket is left open for the caller. *)

val serve : ?config:config -> t -> port:int -> unit
(** [listen] + {!start_pool}, then announce the port on stdout and park
    forever, with SIGPIPE ignored
    and a catch-all around each connection: no single client can stop
    the pool. On SIGTERM the {!Extract_obs.Slowlog} snapshot is dumped
    to stderr before exiting 0, so the worst and the degraded queries
    survive a shutdown. Never returns; intended for the CLI's [serve]
    command. *)

(** {1 Parsing helpers (exposed for tests)} *)

(* lint: allow unused-export *)
val url_decode : string -> string
(** Decode [%XX] escapes and [+] as space; malformed escapes are kept
    verbatim. Test use only: test/test_server.ml ["decode"]. *)

(* lint: allow unused-export *)
val parse_target : string -> string * (string * string) list
(** Split a request target into path and decoded query parameters. Test use
    only: test/test_server.ml ["parse target"]. *)

(* lint: allow unused-export *)
val max_request_line : int
(** 8192 — the byte bound on the request line, terminator excluded;
    {!read_request_line} reads not one byte past it. Test use only:
    test/test_server.ml ["request line bound"]. *)

type read_outcome =
  | Line of string  (** a complete request line, terminator stripped *)
  | Eof  (** peer closed before a full line *)
  | Timed_out  (** [SO_RCVTIMEO] expired mid-line *)
  | Too_long  (** no terminator within {!max_request_line} bytes *)
  | Bad_cr  (** a CR not immediately followed by LF *)

(* lint: allow unused-export *)
val read_request_line : Unix.file_descr -> read_outcome
(** Read one LF- or CRLF-terminated line, byte-bounded. A bare CR inside
    the line is rejected as {!Bad_cr} (answered 400), not silently
    dropped. Test use only: test/test_server.ml ["request line forms"] and
    ["request line bound"]. *)
