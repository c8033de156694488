module Registry = Extract_obs.Registry
module Deadline = Extract_util.Deadline

(* per-worker request/connection counters (the "worker" label), the
   accept-queue occupancy and its shed path *)
let worker_requests_total w =
  Registry.counter ~help:"Requests handled, by pool worker"
    ~labels:[ "worker", string_of_int w ] "extract_worker_requests_total"

let worker_connections_total w =
  Registry.counter ~help:"Connections handled, by pool worker"
    ~labels:[ "worker", string_of_int w ] "extract_worker_connections_total"

let accept_queue_shed_total =
  Registry.counter
    ~help:"Connections answered 503 up front because the accept queue was full"
    "extract_accept_queue_shed_total"

let accept_queue_depth =
  Registry.gauge ~help:"Connections waiting in the accept queue"
    "extract_accept_queue_depth"

let accept_queue_depth_peak =
  Registry.gauge ~help:"Deepest accept-queue occupancy observed"
    "extract_accept_queue_depth_peak"

let queue_wait_seconds =
  Registry.histogram ~help:"Seconds accepted connections waited for a pool worker"
    "extract_queue_wait_seconds"

type conn_queue = {
  lock : Mutex.t;
  nonempty : Condition.t;
  items : (Unix.file_descr * float) Queue.t; (* guarded-by: lock — fd, enqueue time *)
  depth : int;
  mutable peak : int; (* guarded-by: lock — deepest occupancy seen *)
  mutable closed : bool; (* guarded-by: lock *)
}

let queue_create depth =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    depth;
    peak = 0;
    closed = false;
  }

let queue_try_push q fd =
  Mutex.lock q.lock;
  let accepted = (not q.closed) && Queue.length q.items < q.depth in
  if accepted then begin
    Queue.add (fd, Deadline.now ()) q.items;
    let len = Queue.length q.items in
    Registry.set accept_queue_depth (float_of_int len);
    if len > q.peak then begin
      q.peak <- len;
      Registry.set accept_queue_depth_peak (float_of_int len)
    end;
    Condition.signal q.nonempty
  end;
  Mutex.unlock q.lock;
  accepted

(* blocks until an item or close; after close, drains remaining items
   so no accepted connection is leaked. Returns the fd and how long it
   sat in the queue — the saturation signal exported as the
   queue-wait histogram and span. *)
let queue_pop q =
  Mutex.lock q.lock;
  let rec wait () =
    if not (Queue.is_empty q.items) then begin
      let fd, enqueued = Queue.take q.items in
      Registry.set accept_queue_depth (float_of_int (Queue.length q.items));
      Some (fd, Float.max 0. (Deadline.now () -. enqueued))
    end
    else if q.closed then None
    else begin
      Condition.wait q.nonempty q.lock;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock q.lock;
  r

let queue_close q =
  Mutex.lock q.lock;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.lock

type t = {
  listening : Unix.file_descr;
  queue : conn_queue;
  acceptor : unit Domain.t;
  workers : unit Domain.t list;
  stopping : bool Atomic.t;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let acceptor_loop ~config queue stopping listening =
  let rec loop () =
    match Unix.accept listening with
    | fd, _ ->
      if Atomic.get stopping then close_quietly fd (* the stop poke; exit *)
      else if queue_try_push queue fd then loop ()
      else begin
        (* queue full: shed on the acceptor itself so the client hears
           503 now rather than waiting behind everyone else *)
        Registry.incr accept_queue_shed_total;
        Http.respond_once config fd (Http.overloaded "accept queue full");
        close_quietly fd;
        loop ()
      end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Atomic.get stopping then () else loop ()
    | exception Unix.Unix_error (e, fn, _) ->
      config.Http.log
        (Printf.sprintf "accept failed: %s in %s" (Unix.error_message e) fn);
      if Atomic.get stopping then () else loop ()
  in
  loop ()

let worker_loop ~config handler queue w =
  let connections = worker_connections_total w in
  let requests = worker_requests_total w in
  let rec loop () =
    match queue_pop queue with
    | None -> ()
    | Some (fd, waited) ->
      Registry.incr connections;
      Registry.observe queue_wait_seconds waited;
      (* nothing a single connection does may stop a worker *)
      (match
         Fun.protect
           ~finally:(fun () -> close_quietly fd)
           (fun () ->
             Http.serve_connection ~queue_wait:waited ~requests
               ~max_requests:config.Http.max_requests_per_conn config handler fd)
       with
      | () -> ()
      | exception Unix.Unix_error (e, fn, _) ->
        config.Http.log
          (Printf.sprintf "connection dropped: %s in %s" (Unix.error_message e) fn)
      | exception e ->
        config.Http.log
          (Printf.sprintf "connection handler failed: %s" (Printexc.to_string e)));
      loop ()
  in
  loop ()

(* The runtime's cap on live domains; a spawn past it fails. OCaml 5.1
   fixes it when the compiler is built (Max_domains in caml/domain.h: 128
   on 64-bit builds, 16 on 32-bit ones). Newer runtimes may let
   OCAMLRUNPARAM change it, and 5.1's standard library has no call that
   reads it, so this is the 5.1 value: under another cap the check can
   refuse a pool the runtime would run, or pass one whose spawns fail. *)
let max_domains = if Sys.word_size = 64 then 128 else 16

let check_domain_budget ~workers =
  (* the main domain, the acceptor and the workers *)
  if workers > max_domains - 2 then
    invalid_arg
      (Printf.sprintf "%d worker(s) need 2 + %d domains; OCaml runs at most %d" workers
         workers max_domains)

let start ?(config = Http.default_config) handler listening =
  let count = max 1 config.Http.workers in
  check_domain_budget ~workers:count;
  Http.ensure_sigpipe_ignored ();
  let queue = queue_create (max 1 config.Http.queue_depth) in
  let stopping = Atomic.make false in
  let acceptor = Domain.spawn (fun () -> acceptor_loop ~config queue stopping listening) in
  let workers =
    List.init count (fun w -> Domain.spawn (fun () -> worker_loop ~config handler queue w))
  in
  { listening; queue; acceptor; workers; stopping }

let queue_stat t =
  let q = t.queue in
  Mutex.lock q.lock;
  let s = Queue.length q.items, q.depth in
  Mutex.unlock q.lock;
  s

let stop t =
  Atomic.set t.stopping true;
  queue_close t.queue;
  (* wake the acceptor parked in accept(2): closing the listening fd
     from another domain is not reliably observed, so poke it with a
     loopback connection instead — it sees [stopping] and exits *)
  (try
     let port = Http.bound_port t.listening in
     let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      with Unix.Unix_error _ -> ());
     close_quietly s
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  Domain.join t.acceptor;
  List.iter Domain.join t.workers

let serve_once ?(config = Http.default_config) handler listening =
  Http.ensure_sigpipe_ignored ();
  let fd, _ = Unix.accept listening in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      Http.serve_connection ~requests:(worker_requests_total 0) ~max_requests:1 config handler
        fd)
