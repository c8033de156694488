(* Periodic runtime sampler: publishes GC statistics and any registered
   subsystem collectors (cache occupancy, journal lag, ...) as registry
   gauges, on demand via [sample] or from a background thread. The
   thread is plain Thread.create — it only reads Gc.quick_stat and pokes
   the registry (both safe from any thread), and a systhread costs no
   core while sleeping, unlike a domain. *)

let state_lock = Mutex.create ()

(* named, idempotent: re-registering a name replaces its callback *)
(* guarded-by: state_lock *)
let collectors : (string * (unit -> unit)) list ref = ref []

let thread : Thread.t option ref = ref None (* guarded-by: state_lock *)

let period_s = 5.0

let register_collector name f =
  Mutex.protect state_lock (fun () ->
      collectors := List.remove_assoc name !collectors @ [ (name, f) ])

let set_gauge name help v = Registry.set (Registry.gauge ~help name) v

let gc_sample () =
  let s = Gc.quick_stat () in
  set_gauge "extract_gc_minor_collections" "Minor collections since start"
    (float_of_int s.Gc.minor_collections);
  set_gauge "extract_gc_major_collections" "Major collection cycles since start"
    (float_of_int s.Gc.major_collections);
  set_gauge "extract_gc_compactions" "Heap compactions since start"
    (float_of_int s.Gc.compactions);
  set_gauge "extract_gc_heap_words" "Major heap size in words"
    (float_of_int s.Gc.heap_words);
  set_gauge "extract_gc_top_heap_words" "Largest major heap size in words"
    (float_of_int s.Gc.top_heap_words);
  set_gauge "extract_gc_minor_words" "Words allocated in the minor heap"
    s.Gc.minor_words;
  s

let sample () =
  ignore (gc_sample ());
  let cbs = Mutex.protect state_lock (fun () -> !collectors) in
  List.iter (fun (_, f) -> try f () with _ -> ()) cbs

let rec loop () =
  sample ();
  Thread.delay period_s;
  loop ()

let start () =
  Mutex.protect state_lock (fun () ->
      if Option.is_none !thread then thread := Some (Thread.create loop ()))

let json () =
  let s = gc_sample () in
  let cbs, running =
    Mutex.protect state_lock (fun () -> !collectors, Option.is_some !thread)
  in
  List.iter (fun (_, f) -> try f () with _ -> ()) cbs;
  Jsonv.Obj
    [
      ( "gc",
        Jsonv.Obj
          [
            ("minor_collections", Jsonv.Int s.Gc.minor_collections);
            ("major_collections", Jsonv.Int s.Gc.major_collections);
            ("compactions", Jsonv.Int s.Gc.compactions);
            ("heap_words", Jsonv.Int s.Gc.heap_words);
            ("top_heap_words", Jsonv.Int s.Gc.top_heap_words);
            ("minor_words", Jsonv.Float s.Gc.minor_words);
            ("promoted_words", Jsonv.Float s.Gc.promoted_words);
            ("major_words", Jsonv.Float s.Gc.major_words);
          ] );
      ( "domains",
        Jsonv.Obj
          [
            ("self", Jsonv.Int (Domain.self () :> int));
            ("recommended", Jsonv.Int (Domain.recommended_domain_count ()));
          ] );
      ( "collector",
        Jsonv.Obj
          [
            ("running", Jsonv.Bool running);
            ("period_s", Jsonv.Float period_s);
            ("names", Jsonv.Arr (List.map (fun (n, _) -> Jsonv.Str n) cbs));
          ] );
    ]

let render_json () = Jsonv.to_string (json ())
