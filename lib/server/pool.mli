(** The domain pool that accepts connections for {!Http}: one acceptor
    domain pushes accepted sockets into a bounded queue, and a fixed set
    of worker domains pop them and run {!Http.serve_connection} on each,
    to completion. When the queue is full the acceptor answers [503] +
    [Retry-After] itself and closes — cheap, immediate backpressure
    instead of unbounded queueing (DESIGN.md §12).

    Metrics: [extract_worker_requests_total] and
    [extract_worker_connections_total] by worker, the accept queue's
    depth, deepest depth and shed count, and the seconds each connection
    waited for a worker. *)

type t
(** A running acceptor + worker-domain pool. *)

val check_domain_budget : workers:int -> unit
(** Refuse a pool OCaml cannot run. [workers] workers hold 2 +
    [workers] live domains: the main domain, the acceptor and the
    workers. OCaml 5.1 runs at most 128 on 64-bit builds and 16 on
    32-bit ones.
    @raise Invalid_argument naming the numbers when the pool needs
    more. *)

val start : ?config:Http.config -> Http.handler -> Unix.file_descr -> t
(** Start the pool on an already-listening socket and return
    immediately: one acceptor domain pushing accepted connections into a
    bounded queue ([config.queue_depth], overflow answered 503 +
    [Retry-After] by the acceptor), [config.workers] worker domains each
    running the keep-alive connection loop with [handler]. The caller
    keeps ownership of the listening socket.
    @raise Invalid_argument before spawning anything when the pool
    fails {!check_domain_budget}. *)

val queue_stat : t -> int * int
(** (depth, capacity) of the accept queue now. *)

val stop : t -> unit
(** Graceful stop: close the queue, wake the acceptor (a loopback poke —
    closing the fd from another domain is not reliably observed), join
    all domains. Connections already queued or in flight are served to
    completion; the listening socket is left open for the caller. *)

val serve_once : ?config:Http.config -> Http.handler -> Unix.file_descr -> unit
(** Accept one connection on a listening socket on the calling domain,
    answer one request as worker 0, close. *)
