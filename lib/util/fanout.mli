(** Fork-join fan-out: one share of the work runs on the calling domain
    and each other job on a domain spawned for it. Every spawn site on a
    request path goes through {!run}.

    Re-raising the caller's exception at once would leave the domains not
    yet joined working after the request had failed, and would lose
    their exceptions; {!run} joins them all first. A spawn that fails
    midway is handled the same way: the domains spawned before it are
    joined before its exception reaches the caller.

    Fault point: ["fanout.spawn"], passed before each spawn. *)

val run : (unit -> unit) -> (unit -> unit) list -> unit
(** [run share jobs] spawns one domain per job, one at a time, runs
    [share] on this domain, then joins every spawned domain in order,
    even when [share] or a join raises. Afterwards it re-raises the first
    exception, with its backtrace: the one from [share], else the one
    from the earliest job that raised.

    When a spawn fails, [share] does not run: the domains already
    spawned are joined and the spawn's exception is re-raised.

    Jobs run with no trace context of their own; callers that want their
    spans under the current request wrap each job in
    [Trace.with_context] first. *)
