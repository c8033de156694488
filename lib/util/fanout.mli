(** Finishing a fork-join fan-out that runs one share of the work on the
    calling domain and the rest on domains it spawned.

    Re-raising the caller's exception at once would leave the domains not
    yet joined working after the request had failed, and would lose
    their exceptions; {!finish} joins them all first. *)

val finish : (unit -> unit) -> unit Domain.t list -> unit
(** [finish share spawned] runs [share] on this domain, then joins every
    domain of [spawned] in order, even when [share] or a join raises.
    Afterwards it re-raises the first exception, with its backtrace: the
    one from [share], else the one from the earliest domain in
    [spawned] that raised. *)
