(** Slow-query capture ring.

    A small, always-on, mutex-guarded store answering two questions
    after the fact: {e what were the slowest queries}, and {e what did
    every recent degraded or faulted query look like}. Two retention
    rules:

    - the N slowest queries ever recorded (default 16), and
    - a circular ring of the most recent degraded/faulted queries
      (default 64) — retained regardless of speed, because a degraded
      answer is interesting even when it was produced quickly.

    Entries carry the request id, the query, wall-clock seconds, the
    degraded-result count, whether an injected/infrastructure fault was
    involved, and a compact explain {e digest} (per-result roots,
    coverage and edge use — not the full bundle), so memory stays
    O(capacity). Served at [GET /debug/slowlog] and dumped by
    [extract serve] on SIGTERM. *)

type entry = {
  rid : string;
  query : string;
  seconds : float;
  degraded : int; (** results degraded to the baseline snippet *)
  faulted : bool; (** the query died on an injected or IO fault *)
  digest : Jsonv.t; (** compact per-result explain digest *)
}

val record : entry -> unit
(** Consider [entry] for both retentions. Cheap (list insert under a
    mutex) — call once per query. *)

(* lint: allow unused-export *)
val snapshot : unit -> entry list * entry list
(** [(slowest, degraded)] — slowest first, resp. most recent first. Test use
    only: test/test_obs.ml, test_pool.ml and test_server.ml inspect the
    retentions. *)

val render_json : unit -> string
(** Both retentions as pretty JSON:
    [{"slowest": [...], "degraded": [...]}]. *)

(* lint: allow unused-export *)
val configure : ?slowest:int -> ?ring:int -> unit -> unit
(** Set capacities (defaults 16 and 64), truncating current contents.
    @raise Invalid_argument on a negative capacity. Test use only:
    test/test_obs.ml shrinks the retentions. *)

(* lint: allow unused-export *)
val reset : unit -> unit
(** Drop all entries, keeping capacities. Test isolation. Test use only. *)
