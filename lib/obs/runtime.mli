(** Runtime collector: GC and subsystem gauges.

    One sample reads {!Gc.quick_stat} and publishes it as
    [extract_gc_*] registry gauges (minor/major collections,
    compactions, heap words), then runs every registered subsystem
    collector — small callbacks the server and stores install to refresh
    their own gauges (cache occupancy, journal lag, live generation,
    snapshot residency). Collector registration is {b idempotent by
    name}: registering a name again replaces its callback, so re-created
    servers don't stack stale closures, and gauges are registered inside
    each sample (the registry deduplicates), so repeated sampling never
    duplicates a family.

    {!start} samples on a background systhread every 5 s — a thread, not
    a domain: it sleeps almost always and only
    touches thread-safe state. Collector callbacks that raise are
    swallowed, so one failing subsystem cannot kill the sampler. *)

val register_collector : string -> (unit -> unit) -> unit
(** [register_collector name f]: run [f] on every sample. Replaces any
    collector previously registered under [name]. *)

val start : unit -> unit
(** Start the background sampling thread (every 5 s). No-op when it is
    already running. *)

val render_json : unit -> string
(** A fresh sample, rendered compactly: the [gc] block, the current and
    recommended domain counts, and the collector inventory — the
    [/debug/runtime] payload. Also publishes the GC gauges and runs
    every registered collector, as a background sample does. *)
