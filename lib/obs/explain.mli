(** Ambient explain capture.

    An explain bundle wants facts from layers below the one that
    assembles it: posting-list sizes from the evaluation context, stage
    timings and differentiator scores from the pipeline. Rather than
    widening every signature on that path, a {!with_capture} scope
    installs a domain-local accumulator and instrumented code
    contributes named JSON sections through {!record} — which costs one
    domain-local read and does nothing outside a scope, so
    instrumentation is free on the normal path.

    Scopes are per-domain and nest (inner scopes capture independently);
    sections come back in record order. The snippet layer's
    [Extract_snippet.Explain] turns captured sections plus the pipeline's
    results into the user-facing bundle. *)

val with_capture : (unit -> 'a) -> 'a * (string * Jsonv.t) list
(** [with_capture f] runs [f] with capture enabled on this domain and
    returns its result together with the sections recorded during the
    run, in record order. The scope is removed even when [f] raises. *)

val record : string -> (unit -> Jsonv.t) -> unit
(** [record name mk] adds section [name] with value [mk ()] to the
    innermost enclosing capture scope; without one, [mk] is never
    called. Force any mutable state into the value now — thunks run at
    record time, not at bundle-assembly time. *)

val capturing : unit -> bool
(** Is a capture scope active on this domain? For guarding preparation
    work too spread out for a single {!record} thunk. *)
