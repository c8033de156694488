(** Monotonic-clock deadlines.

    A deadline is an absolute point on a monotonized wall clock; budgeted
    stages ({!Extract_snippet.Pipeline}, the demo server's request
    handling) carry one and check {!expired} at cheap checkpoints,
    degrading their remaining work instead of failing when the budget runs
    out. The clock never goes backwards even if the system clock steps
    (values are clamped to the highest observation), so an expired
    deadline stays expired.

    Deadlines are plain floats under the hood: creating and checking one
    costs a clock read, nothing is allocated, and {!never} makes the
    expiry check a single comparison — callers thread a deadline
    unconditionally and pass {!never} when unbounded. *)

type t

val never : t
(** The absent deadline: {!expired} is always [false]. *)

val after : float -> t
(** [after s] expires [s] seconds from now. *)

val of_ms_opt : int option -> t
(** [of_ms_opt (Some ms)] expires [ms] milliseconds from now; [None] is
    {!never}. *)

val expired : t -> bool

val now : unit -> float
(** The deadline clock (seconds; monotonized wall clock, or the injected
    test clock). *)

(* lint: allow unused-export *)
val set_clock : (unit -> float) option -> unit
(** Inject a deterministic clock for tests ([None] restores the real
    one). Affects every module using deadlines — test use only:
    [util.deadline "expiry"] and ["zero budget"] drive it by hand. *)
