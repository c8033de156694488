(* Tests for the observability subsystem (lib/obs): registry identity and
   value semantics, histogram bucket boundaries and percentile estimates,
   the Prometheus/JSON renders, concurrent recording from parallel
   domains, the span tracer's tree shape, and the query-level layer —
   JSON values, request ids, the structured event log, the slowlog. *)

module Registry = Extract_obs.Registry
module Trace = Extract_obs.Trace
module Trace_export = Extract_obs.Trace_export
module Runtime = Extract_obs.Runtime
module Jsonv = Extract_obs.Jsonv
module Reqid = Extract_obs.Reqid
module Log = Extract_obs.Log
module Slowlog = Extract_obs.Slowlog

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let feq what expected actual =
  check (Alcotest.float 1e-9) what expected actual

let contains s sub =
  let n = String.length sub in
  let rec scan k = k + n <= String.length s && (String.sub s k n = sub || scan (k + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Registry: counters, gauges, identity *)

let test_counter_basics () =
  Registry.reset ();
  let c = Registry.counter ~labels:[ "who", "obs-test" ] "obs_test_total" in
  check int "fresh counter is zero" 0 (Registry.counter_value c);
  Registry.incr c;
  Registry.add c 4;
  check int "incr + add accumulate" 5 (Registry.counter_value c);
  let again = Registry.counter ~labels:[ "who", "obs-test" ] "obs_test_total" in
  check int "same identity, same cell" 5 (Registry.counter_value again);
  let other = Registry.counter ~labels:[ "who", "someone-else" ] "obs_test_total" in
  check int "different labels, different cell" 0 (Registry.counter_value other)

let test_counter_monotonic () =
  Registry.reset ();
  let c = Registry.counter "obs_test_monotonic_total" in
  check bool "negative add rejected" true
    (match Registry.add c (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  check int "failed add left the value alone" 0 (Registry.counter_value c)

let test_gauge () =
  Registry.reset ();
  let g = Registry.gauge "obs_test_gauge" in
  feq "fresh gauge is zero" 0.0 (Registry.gauge_value g);
  Registry.set g 17.5;
  feq "set overwrites" 17.5 (Registry.gauge_value g);
  Registry.set g 3.0;
  feq "gauges may go down" 3.0 (Registry.gauge_value g)

let test_kind_clash () =
  Registry.reset ();
  let _c = Registry.counter "obs_test_kind_clash" in
  check bool "same name as another kind is refused" true
    (match Registry.gauge "obs_test_kind_clash" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Histograms: bucket boundaries and percentile estimates *)

let test_bucket_boundaries () =
  Registry.reset ();
  let h = Registry.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "obs_test_bounds_seconds" in
  (* bounds are inclusive upper edges: 1.0 lands in the first bucket,
     1.0000001 in the second; 8.0 overflows into +Inf *)
  List.iter (Registry.observe h) [ 0.5; 1.0; 1.0000001; 3.9; 4.0; 8.0 ];
  check int "count sees every observation" 6 (Registry.histogram_count h);
  feq "sum sees every observation" 18.4000001 (Registry.histogram_sum h);
  let text = Registry.render_prometheus () in
  check bool "le=1 cumulative = 2" true
    (contains text "obs_test_bounds_seconds_bucket{le=\"1\"} 2");
  check bool "le=2 cumulative = 3" true
    (contains text "obs_test_bounds_seconds_bucket{le=\"2\"} 3");
  check bool "le=4 cumulative = 5" true
    (contains text "obs_test_bounds_seconds_bucket{le=\"4\"} 5");
  check bool "+Inf cumulative = count" true
    (contains text "obs_test_bounds_seconds_bucket{le=\"+Inf\"} 6")

let test_bad_buckets () =
  Registry.reset ();
  let refused buckets =
    match Registry.histogram ~buckets "obs_test_bad_seconds" with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check bool "empty buckets refused" true (refused [||]);
  check bool "non-increasing buckets refused" true (refused [| 1.0; 1.0; 2.0 |]);
  check bool "decreasing buckets refused" true (refused [| 2.0; 1.0 |])

let test_percentiles () =
  Registry.reset ();
  let h = Registry.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "obs_test_pct_seconds" in
  (* one observation per bucket, one overflow: ranks are fully determined *)
  List.iter (Registry.observe h) [ 0.5; 1.5; 3.0; 8.0 ];
  (* p50: target rank 2 falls exactly at the (1,2] bucket's upper edge *)
  feq "p50 interpolates to the second bucket edge" 2.0 (Registry.percentile h 0.5);
  (* p99: target rank is in the +Inf bucket, clamped to the last finite bound *)
  feq "p99 clamps overflow to the largest finite bound" 4.0 (Registry.percentile h 0.99);
  (* p25: rank 1 at the first bucket's edge; the bucket starts at 0 *)
  feq "p25 is the first bucket edge" 1.0 (Registry.percentile h 0.25);
  check bool "q outside (0,1] rejected" true
    (match Registry.percentile h 0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_empty_percentile () =
  Registry.reset ();
  let h = Registry.histogram ~buckets:[| 1.0 |] "obs_test_empty_seconds" in
  feq "empty histogram estimates 0" 0.0 (Registry.percentile h 0.5)

(* ------------------------------------------------------------------ *)
(* Renders *)

let test_prometheus_render () =
  Registry.reset ();
  let c = Registry.counter ~help:"A test counter" ~labels:[ "k", "v" ] "obs_test_render_total" in
  Registry.add c 3;
  let text = Registry.render_prometheus () in
  check bool "HELP line present" true (contains text "# HELP obs_test_render_total A test counter");
  check bool "TYPE line present" true (contains text "# TYPE obs_test_render_total counter");
  check bool "sample with labels" true (contains text "obs_test_render_total{k=\"v\"} 3")

(* Prometheus label-value escaping: the exposition format escapes exactly
   backslash, double quote and newline — a regression test, because %S
   used to leak OCaml-style escapes into scraped label values. *)
let test_label_value_escaping () =
  Registry.reset ();
  let g = Registry.gauge ~labels:[ "path", "a\\b\"c\nd" ] "obs_test_escape_info" in
  Registry.set g 1.0;
  let text = Registry.render_prometheus () in
  check bool "backslash, quote and newline escaped" true
    (contains text "obs_test_escape_info{path=\"a\\\\b\\\"c\\nd\"} 1");
  check bool "no raw newline inside the label" false (contains text "c\nd\"");
  let json = Registry.render_json () in
  check bool "json labels escaped the same way" true (contains json "a\\\\b\\\"c\\nd")

let test_build_info_pinned () =
  let build_info () =
    Registry.gauge
      ~labels:[ "ocaml_version", Sys.ocaml_version; "version", Registry.version ]
      "extract_build_info"
  in
  let start_time () = Registry.gauge "extract_process_start_time_seconds" in
  feq "build info gauge is 1" 1.0 (Registry.gauge_value (build_info ()));
  check bool "start time is a plausible epoch" true
    (Registry.gauge_value (start_time ()) > 1.0e9);
  let text = Registry.render_prometheus () in
  check bool "build info exposed with version label" true
    (contains text ("version=\"" ^ Registry.version ^ "\"} 1"));
  check bool "ocaml version labelled" true
    (contains text ("ocaml_version=\"" ^ Sys.ocaml_version ^ "\""));
  (* pins survive the reset that every other metric is subject to *)
  Registry.reset ();
  feq "build info survives reset" 1.0 (Registry.gauge_value (build_info ()));
  check bool "start time survives reset" true
    (Registry.gauge_value (start_time ()) > 1.0e9)

let test_json_render () =
  Registry.reset ();
  let c = Registry.counter ~labels:[ "k", "v" ] "obs_test_json_total" in
  Registry.incr c;
  let h = Registry.histogram ~buckets:[| 1.0; 2.0 |] "obs_test_json_seconds" in
  Registry.observe h 0.5;
  let json = Registry.render_json () in
  check bool "top-level sections" true
    (contains json "\"counters\"" && contains json "\"gauges\"" && contains json "\"histograms\"");
  check bool "counter entry" true (contains json "\"obs_test_json_total\"");
  check bool "histogram percentiles" true (contains json "\"p95\"")

(* ------------------------------------------------------------------ *)
(* Concurrency: recording from parallel domains must lose nothing *)

let test_parallel_recording () =
  Registry.reset ();
  let c = Registry.counter "obs_test_parallel_total" in
  let h = Registry.histogram ~buckets:[| 0.5; 1.5 |] "obs_test_parallel_seconds" in
  let per_domain = 10_000 in
  let worker () =
    for i = 1 to per_domain do
      Registry.incr c;
      Registry.observe h (if i mod 2 = 0 then 1.0 else 2.0)
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check int "no lost counter increments" (4 * per_domain) (Registry.counter_value c);
  check int "no lost observations" (4 * per_domain) (Registry.histogram_count h)

(* ------------------------------------------------------------------ *)
(* Tracer *)

let test_trace_tree () =
  Trace.clear ();
  Trace.set_enabled true;
  let result =
    Trace.with_span "outer" (fun () ->
        ignore (Trace.with_span "first" (fun () -> 1));
        ignore (Trace.with_span "second" (fun () -> 2));
        "done")
  in
  Trace.set_enabled false;
  check (Alcotest.string) "with_span is transparent" "done" result;
  match Trace.finished () with
  | [ root ] ->
    check (Alcotest.string) "root name" "outer" root.Trace.name;
    check (Alcotest.list Alcotest.string) "children in order" [ "first"; "second" ]
      (List.map (fun s -> s.Trace.name) root.Trace.children);
    check bool "root spans its children" true
      (List.for_all (fun s -> s.Trace.duration <= root.Trace.duration) root.Trace.children);
    let rendered = Trace.render [ root ] in
    check bool "render shows the tree" true
      (contains rendered "outer" && contains rendered "  first")
  | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)

let test_trace_disabled_is_free () =
  Trace.clear ();
  Trace.set_enabled false;
  ignore (Trace.with_span "ignored" (fun () -> ()));
  check int "disabled tracer records nothing" 0 (List.length (Trace.finished ()))

let test_trace_exception () =
  Trace.clear ();
  Trace.set_enabled true;
  (try ignore (Trace.with_span "raiser" (fun () -> raise Exit)) with Exit -> ());
  Trace.set_enabled false;
  check int "span recorded even when the body raises" 1 (List.length (Trace.finished ()))

let test_trace_rid () =
  Trace.clear ();
  Trace.set_enabled true;
  Reqid.with_id "q000777" (fun () -> ignore (Trace.with_span "scoped" (fun () -> ())));
  ignore (Trace.with_span "unscoped" (fun () -> ()));
  Trace.set_enabled false;
  match Trace.finished () with
  | [ scoped; unscoped ] ->
    check bool "span opened inside a scope carries the rid" true
      (scoped.Trace.rid = Some "q000777");
    check bool "span outside any scope has none" true (unscoped.Trace.rid = None);
    let rendered = Trace.render [ scoped; unscoped ] in
    check bool "render suffixes the rid" true (contains rendered "scoped [q000777]");
    check bool "no suffix without a rid" false (contains rendered "unscoped [")
  | spans -> Alcotest.failf "expected two root spans, got %d" (List.length spans)

(* ------------------------------------------------------------------ *)
(* Tracer: sampling, the bounded buffer *)

let span_names spans = List.map (fun s -> s.Trace.name) spans

(* Four domains, one query each, as the server's pool workers record
   them: every domain keeps its own span stack, so each query comes out
   as one root with its own rid over an intact subtree. *)
let test_trace_four_domain_trees () =
  Trace.clear ();
  let query p () =
    Reqid.with_id (Printf.sprintf "q%06d" (100 + p)) (fun () ->
        Trace.with_recording (fun () ->
            for _ = 1 to 50 do
              Trace.with_span ~args:[ ("query", string_of_int p) ] "query" (fun () ->
                  Trace.with_span "child" (fun () -> Trace.with_span "grandchild" ignore))
            done))
  in
  List.iter Domain.join (List.init 4 (fun p -> Domain.spawn (query p)));
  let roots = Trace.finished () in
  check int "one root per query" 200 (List.length roots);
  List.iter
    (fun root ->
      let p = int_of_string (List.assoc "query" root.Trace.args) in
      let rid = Some (Printf.sprintf "q%06d" (100 + p)) in
      check bool "the root carries its own query's rid" true (root.Trace.rid = rid);
      match root.Trace.children with
      | [ child ] ->
        check (Alcotest.list Alcotest.string) "subtree intact" [ "grandchild" ]
          (span_names child.Trace.children);
        check bool "children carry the same rid" true
          (child.Trace.rid = rid
          && List.for_all (fun g -> g.Trace.rid = rid) child.Trace.children)
      | children -> Alcotest.failf "query %d has %d children" p (List.length children))
    roots

let test_trace_sampling_determinism () =
  Trace.set_sample_interval 3;
  let picks = List.init 9 (fun _ -> Trace.sampled ()) in
  check (Alcotest.list bool) "phase resets, then exactly one in three"
    [ true; false; false; true; false; false; true; false; false ]
    picks;
  Trace.set_sample_interval 0;
  check bool "interval 0 never samples" false (Trace.sampled ());
  Unix.putenv "EXTRACT_TRACE_SAMPLE" "1/8";
  Trace.install_from_env ();
  let one_in_eight () = List.init 16 (fun _ -> Trace.sampled ()) in
  let every_eighth = List.init 16 (fun i -> i mod 8 = 0) in
  check (Alcotest.list bool) "EXTRACT_TRACE_SAMPLE=1/8 installs 8" every_eighth
    (one_in_eight ());
  Unix.putenv "EXTRACT_TRACE_SAMPLE" "nonsense";
  Trace.install_from_env ();
  check (Alcotest.list bool) "malformed env leaves the interval alone" every_eighth
    (one_in_eight ());
  Trace.set_sample_interval 0

let test_trace_buffer_cap () =
  Trace.clear ();
  Trace.set_buffer_capacity 4;
  Trace.with_recording (fun () ->
      for i = 0 to 9 do
        Trace.with_span (Printf.sprintf "r%d" i) (fun () -> ())
      done);
  check (Alcotest.list Alcotest.string) "newest roots kept, oldest first"
    [ "r6"; "r7"; "r8"; "r9" ]
    (span_names (Trace.recent ()));
  check (Alcotest.list Alcotest.string) "recent ~last trims from the old end"
    [ "r8"; "r9" ]
    (span_names (Trace.recent ~last:2 ()));
  check (Alcotest.list Alcotest.string) "recent is non-destructive"
    [ "r6"; "r7"; "r8"; "r9" ]
    (span_names (Trace.recent ()));
  check (Alcotest.list Alcotest.string) "finished drains the same window"
    [ "r6"; "r7"; "r8"; "r9" ]
    (span_names (Trace.finished ()));
  check int "buffer empty after finished" 0 (List.length (Trace.recent ()));
  Trace.set_buffer_capacity 512

let test_trace_add_span () =
  Trace.clear ();
  Trace.with_recording (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.add_span "queue.wait" ~start:1.0 ~duration:0.5;
          Trace.add_span "clamped" ~start:2.0 ~duration:(-1.0)));
  match Trace.finished () with
  | [ root ] ->
    check (Alcotest.list Alcotest.string) "synthetic spans attach as children"
      [ "queue.wait"; "clamped" ]
      (span_names root.Trace.children);
    let clamped = List.nth root.Trace.children 1 in
    feq "negative duration clamps to zero" 0.0 clamped.Trace.duration
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_trace_export_json () =
  Trace.clear ();
  Reqid.with_id "q000042" (fun () ->
      Trace.with_recording (fun () ->
          Trace.with_span "query" (fun () ->
              Trace.with_span ~args:[ ("shard", "1") ] "shard.run" (fun () -> ()))));
  let spans = Trace.finished () in
  let json = Trace_export.render spans in
  check bool "trace-event envelope" true
    (contains json "\"traceEvents\"" && contains json "\"displayTimeUnit\": \"ms\"");
  check bool "complete events" true (contains json "\"ph\": \"X\"");
  check bool "rid exported in args" true (contains json "\"rid\": \"q000042\"");
  check bool "labels exported in args" true (contains json "\"shard\": \"1\"");
  check bool "domain id exported as tid" true (contains json "\"tid\": 0");
  (* timestamps are rebased on the earliest span, so the root's ts is 0
     and microsecond precision survives float rendering *)
  check bool "timestamps rebased to the trace start" true (contains json "\"ts\": 0")

(* ------------------------------------------------------------------ *)
(* Runtime collector *)

let count_substring hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_runtime_collector_idempotent () =
  let hits = ref [] in
  Runtime.register_collector "obs.test.hits" (fun () -> hits := "old" :: !hits);
  Runtime.register_collector "obs.test.hits" (fun () -> hits := "new" :: !hits);
  Runtime.register_collector "obs.test.boom" (fun () -> failwith "collector bug");
  let json = Runtime.render_json () in
  check (Alcotest.list Alcotest.string)
    "re-registration replaces the callback instead of stacking" [ "new" ] !hits;
  check int "name registered once" 1 (count_substring json "\"obs.test.hits\"");
  (* the raising collector was swallowed and the sampler keeps going *)
  ignore (Runtime.render_json ());
  check int "sampler survives a failing collector" 2 (List.length !hits)

let test_runtime_gauges_and_json () =
  Registry.reset ();
  ignore (Runtime.render_json ());
  ignore (Runtime.render_json ());
  let text = Registry.render_prometheus () in
  check bool "gc gauges published" true
    (contains text "extract_gc_heap_words"
    && contains text "extract_gc_minor_collections");
  check int "repeated sampling registers each family once" 1
    (count_substring text "# TYPE extract_gc_heap_words gauge");
  let json = Runtime.render_json () in
  check bool "json carries the gc block" true
    (contains json "\"gc\"" && contains json "\"heap_words\"");
  check bool "json carries domain counts" true
    (contains json "\"domains\"" && contains json "\"recommended\"");
  check bool "json carries the collector inventory" true
    (contains json "\"collector\"" && contains json "\"obs.test.hits\"")

(* ------------------------------------------------------------------ *)
(* Jsonv: escaping, number formatting, renders *)

let test_jsonv_escaping () =
  check (Alcotest.string) "named and numeric escapes"
    "\"a\\\"b\\\\c\\nd\\u0001\\r\\t\""
    (Jsonv.quote "a\"b\\c\nd\x01\r\t");
  check (Alcotest.string) "plain text untouched" "\"store texas\""
    (Jsonv.quote "store texas")

let test_jsonv_numbers () =
  check (Alcotest.string) "integral float, no trailing dot" "3" (Jsonv.number 3.0);
  check (Alcotest.string) "fractional float" "2.5" (Jsonv.number 2.5);
  check (Alcotest.string) "huge integral falls back to %g" "1e+20"
    (Jsonv.number 1e20);
  check (Alcotest.string) "nan renders null in values" "null"
    (Jsonv.to_string (Jsonv.Float Float.nan));
  check (Alcotest.string) "infinity renders null in values" "null"
    (Jsonv.to_string (Jsonv.Float Float.infinity))

let test_jsonv_compact () =
  check (Alcotest.string) "compact object render"
    "{\"k\": [1, true, null], \"s\": \"x\", \"f\": 2.5}"
    (Jsonv.to_string
       (Jsonv.Obj
          [
            "k", Jsonv.Arr [ Jsonv.Int 1; Jsonv.Bool true; Jsonv.Null ];
            "s", Jsonv.Str "x";
            "f", Jsonv.Float 2.5;
          ]))

let test_jsonv_pretty () =
  (* flat members stay on one line: a list of entry records renders one
     grep-able line per entry *)
  let v =
    Jsonv.Obj
      [
        ( "rows",
          Jsonv.Arr
            [
              Jsonv.Obj [ "a", Jsonv.Int 1; "b", Jsonv.Str "x" ];
              Jsonv.Obj [ "a", Jsonv.Int 2; "b", Jsonv.Str "y" ];
            ] );
        "n", Jsonv.Int 3;
      ]
  in
  check (Alcotest.string) "pretty keeps flat rows inline"
    "{\n  \"rows\": [\n    {\"a\": 1, \"b\": \"x\"},\n    {\"a\": 2, \"b\": \"y\"}\n  ],\n  \"n\": 3\n}"
    (Jsonv.pretty v)

(* ------------------------------------------------------------------ *)
(* Reqid: sequential ids, nested scopes, ensure *)

let test_reqid_scopes () =
  Reqid.reset_counter ();
  check bool "no current id outside any scope" true (Reqid.current () = None);
  check (Alcotest.string) "ids are sequential from q000001" "q000001" (Reqid.ensure Fun.id);
  Reqid.with_id "q000042" (fun () ->
      check bool "current inside the scope" true (Reqid.current () = Some "q000042");
      Reqid.with_id "q000043" (fun () ->
          check bool "scopes nest" true (Reqid.current () = Some "q000043"));
      check bool "inner scope restored the outer id" true
        (Reqid.current () = Some "q000042"));
  check bool "outer scope restored to none" true (Reqid.current () = None);
  (try Reqid.with_id "q000099" (fun () -> raise Exit) with Exit -> ());
  check bool "restored on exceptions too" true (Reqid.current () = None)

let test_reqid_ensure () =
  Reqid.reset_counter ();
  check (Alcotest.string) "ensure reuses the enclosing scope's id" "q000777"
    (Reqid.with_id "q000777" (fun () -> Reqid.ensure (fun rid -> rid)));
  check (Alcotest.string) "ensure mints and scopes a fresh id otherwise" "q000001"
    (Reqid.ensure (fun rid ->
         check bool "the fresh id is current inside" true
           (Reqid.current () = Some rid);
         rid));
  check bool "ensure's scope ends with the call" true (Reqid.current () = None)

(* ------------------------------------------------------------------ *)
(* Log: level gating, line shape, rid stamping *)

let with_captured_log level f =
  let lines = ref [] in
  Log.set_sink (Some (fun l -> lines := l :: !lines));
  Log.set_level (Some level);
  Fun.protect
    ~finally:(fun () ->
      Log.set_level None;
      Log.set_sink None)
    (fun () -> f lines)

let test_log_shape_and_gating () =
  with_captured_log Log.Info (fun lines ->
      check bool "info passes the threshold" true (Log.enabled Log.Info);
      check bool "debug is gated" false (Log.enabled Log.Debug);
      Log.debug "invisible" [ "x", Jsonv.Int 1 ];
      Reqid.with_id "q000123" (fun () ->
          Log.info "query.done" [ "results", Jsonv.Int 2; "query", Jsonv.Str "a\"b" ]);
      Log.warn "unscoped" [];
      match List.rev !lines with
      | [ scoped; unscoped ] ->
        check bool "one JSON object per line, ts first" true
          (String.length scoped > 8 && String.sub scoped 0 8 = "{\"ts\": 1");
        check bool "event named" true (contains scoped "\"event\": \"query.done\"");
        check bool "level named" true (contains scoped "\"level\": \"info\"");
        check bool "rid stamped from the current scope" true
          (contains scoped "\"rid\": \"q000123\"");
        check bool "fields appended, escaped" true
          (contains scoped "\"results\": 2" && contains scoped "\"query\": \"a\\\"b\"");
        check bool "no rid outside a scope" false (contains unscoped "\"rid\"");
        check bool "warn level named" true (contains unscoped "\"level\": \"warn\"")
      | l -> Alcotest.failf "expected 2 emitted lines, got %d" (List.length l))

let test_log_off_by_default_and_levels () =
  check bool "logging starts off" false (Log.enabled Log.Error);
  with_captured_log Log.Warn (fun lines ->
      Log.info "dropped" [];
      Log.warn "kept" [];
      check int "only the warning passed" 1 (List.length !lines))

let test_log_level_parsing () =
  check bool "warning is an alias of warn" true
    (Log.level_of_string "WARNING" = Some Log.Warn);
  check bool "debug parses" true (Log.level_of_string "debug" = Some Log.Debug);
  check bool "off disables" true (Log.level_of_string "off" = None);
  check bool "none disables" true (Log.level_of_string "none" = None);
  check bool "garbage rejected" true
    (match Log.level_of_string "loud" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Slowlog: the two retentions *)

let slow_entry ?(rid = "q000000") ?(query = "q") ?(seconds = 0.001) ?(degraded = 0)
    ?(faulted = false) () =
  { Slowlog.rid; query; seconds; degraded; faulted; digest = Jsonv.Null }

let with_small_slowlog f =
  Slowlog.configure ~slowest:2 ~ring:2 ();
  Slowlog.reset ();
  Fun.protect
    ~finally:(fun () ->
      Slowlog.configure ();
      Slowlog.reset ())
    f

let test_slowlog_slowest_retention () =
  with_small_slowlog (fun () ->
      Slowlog.record (slow_entry ~rid:"a" ~seconds:0.010 ());
      Slowlog.record (slow_entry ~rid:"b" ~seconds:0.030 ());
      Slowlog.record (slow_entry ~rid:"c" ~seconds:0.020 ());
      let slowest, ring = Slowlog.snapshot () in
      check bool "slowest first, capacity enforced" true
        (List.map (fun e -> e.Slowlog.rid) slowest = [ "b"; "c" ]);
      check int "fast clean queries stay out of the ring" 0 (List.length ring);
      (* a slower query displaces the tail, a faster one is ignored *)
      Slowlog.record (slow_entry ~rid:"d" ~seconds:0.025 ());
      Slowlog.record (slow_entry ~rid:"e" ~seconds:0.001 ());
      let slowest, _ = Slowlog.snapshot () in
      check bool "displacement keeps the order" true
        (List.map (fun e -> e.Slowlog.rid) slowest = [ "b"; "d" ]))

let test_slowlog_degraded_ring () =
  with_small_slowlog (fun () ->
      Slowlog.record (slow_entry ~rid:"d1" ~seconds:0.0001 ~degraded:1 ());
      Slowlog.record (slow_entry ~rid:"f1" ~seconds:0.0001 ~faulted:true ());
      Slowlog.record (slow_entry ~rid:"d2" ~seconds:0.0001 ~degraded:2 ());
      let _, ring = Slowlog.snapshot () in
      check bool "most recent degraded/faulted first, capacity enforced" true
        (List.map (fun e -> e.Slowlog.rid) ring = [ "d2"; "f1" ]);
      let json = Slowlog.render_json () in
      check bool "render names both retentions" true
        (contains json "\"slowest\"" && contains json "\"degraded\"");
      check bool "entries carry rid and flags" true
        (contains json "\"rid\": \"d2\"" && contains json "\"faulted\": true"))

let test_slowlog_configure_rejects_negatives () =
  check bool "negative capacity refused" true
    (match Slowlog.configure ~slowest:(-1) () with
    | () -> false
    | exception Invalid_argument _ -> true);
  check bool "reset drops entries" true
    (Slowlog.reset ();
     Slowlog.snapshot () = ([], []))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "obs.registry",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "counters are monotonic" `Quick test_counter_monotonic;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "kind clash refused" `Quick test_kind_clash;
        Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
        Alcotest.test_case "bad buckets refused" `Quick test_bad_buckets;
        Alcotest.test_case "percentile estimates" `Quick test_percentiles;
        Alcotest.test_case "empty percentile" `Quick test_empty_percentile;
        Alcotest.test_case "prometheus render" `Quick test_prometheus_render;
        Alcotest.test_case "label value escaping" `Quick test_label_value_escaping;
        Alcotest.test_case "build info pinned" `Quick test_build_info_pinned;
        Alcotest.test_case "json render" `Quick test_json_render;
        Alcotest.test_case "parallel recording" `Quick test_parallel_recording;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "span tree" `Quick test_trace_tree;
        Alcotest.test_case "disabled is free" `Quick test_trace_disabled_is_free;
        Alcotest.test_case "exception safety" `Quick test_trace_exception;
        Alcotest.test_case "request id on spans" `Quick test_trace_rid;
        Alcotest.test_case "four-domain span trees" `Quick test_trace_four_domain_trees;
        Alcotest.test_case "sampling determinism" `Quick test_trace_sampling_determinism;
        Alcotest.test_case "bounded buffer" `Quick test_trace_buffer_cap;
        Alcotest.test_case "synthetic spans" `Quick test_trace_add_span;
        Alcotest.test_case "chrome export" `Quick test_trace_export_json;
      ] );
    ( "obs.runtime",
      [
        Alcotest.test_case "collector idempotence" `Quick test_runtime_collector_idempotent;
        Alcotest.test_case "gauges and json" `Quick test_runtime_gauges_and_json;
      ] );
    ( "obs.jsonv",
      [
        Alcotest.test_case "escaping" `Quick test_jsonv_escaping;
        Alcotest.test_case "numbers" `Quick test_jsonv_numbers;
        Alcotest.test_case "compact render" `Quick test_jsonv_compact;
        Alcotest.test_case "pretty render" `Quick test_jsonv_pretty;
      ] );
    ( "obs.reqid",
      [
        Alcotest.test_case "scopes" `Quick test_reqid_scopes;
        Alcotest.test_case "ensure" `Quick test_reqid_ensure;
      ] );
    ( "obs.log",
      [
        Alcotest.test_case "shape and gating" `Quick test_log_shape_and_gating;
        Alcotest.test_case "off by default" `Quick test_log_off_by_default_and_levels;
        Alcotest.test_case "level parsing" `Quick test_log_level_parsing;
      ] );
    ( "obs.slowlog",
      [
        Alcotest.test_case "slowest retention" `Quick test_slowlog_slowest_retention;
        Alcotest.test_case "degraded ring" `Quick test_slowlog_degraded_ring;
        Alcotest.test_case "configure" `Quick test_slowlog_configure_rejects_negatives;
      ] );
  ]
