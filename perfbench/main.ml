(* perfbench: the served-query benchmark.

     main.exe run --workload W --seed N --seconds S --trace 0|1 --work DIR --spans FILE
     main.exe part W PLAN REPORT
     main.exe loadgen PLAN REPORT

   [run] builds W's inputs from the seed, measures, checks every answer
   and prints two JSON lines: the run's description, then the result
   ({"correct", "attempted", "failed", "metrics"}). With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ledger
   (every per-layer metric; 0 where the workload bypasses the layer).
   perfbench/run.py builds this executable and calls it. [part] replays
   one slice of an untraced run in a fresh process ({!Common.parts});
   [loadgen] is the hot-http load generator's process. *)

open Common

let end_to_end = [ "setup_s"; "latency_p50_ms"; "latency_p99_ms"; "throughput_rps"; "heap_mb" ]

let per_layer =
  [ "transport.self_us", "us"; "transport.bytes", "B"; "transport.reconnects", "count/1000req";
    "demo_server.self_us", "us"; "page_cache.hit_ratio", "ratio"; "snippet_cache.hit_ratio", "ratio";
    "eval_ctx.busy_ms", "ms"; "eval_ctx.postings", "count"; "eval_ctx.minor_kw", "kw";
    "engine.busy_ms", "ms"; "engine.results", "count"; "engine.minor_kw", "kw";
    "feature.busy_ms", "ms"; "feature.minor_kw", "kw";
    "ilist.busy_ms", "ms"; "ilist.entries", "count"; "ilist.minor_kw", "kw";
    "selector.busy_ms", "ms"; "selector.minor_kw", "kw";
    "html_view.busy_ms", "ms"; "html_view.bytes", "B"; "html_view.minor_kw", "kw";
    "shard_set.shard_ms", "ms"; "shard_set.slowest_share", "ratio"; "shard_set.merge_us", "us";
    "shard_set.useful_ratio", "ratio";
    "live_corpus.run_ms", "ms"; "live_corpus.deltas", "count"; "live_corpus.useful_ratio", "ratio";
    "live.parse_index_ms", "ms"; "live.analysis_ms", "ms"; "live.journal_ms", "ms";
    "journal.bytes", "B"; "live.compact_ms", "ms"; "live.compact_bytes", "B";
    "update_p50_ms", "ms"; "update_p90_ms", "ms";
    "snapshot.load_ms", "ms"; "dataguide.build_ms", "ms"; "node_kind.classify_ms", "ms";
    "key_miner.mine_ms", "ms"; "document.parse_ms", "ms"; "inverted_index.build_ms", "ms";
    "live.recover_ms", "ms"; "live.replayed", "count"; "setup.first_request_ms", "ms";
    "gc.minor_kw", "kw"; "gc.major_collections", "count/1000req";
    "ledger.residual_share", "ratio"; "ledger.trace_overhead_share", "ratio" ]

(* The metrics the run reports, in declared order: every end-to-end one
   must be measured; a per-layer one the workload never reaches is 0. *)
let complete ~trace measured =
  let find name = List.find_opt (fun m -> String.equal m.name name) measured in
  let declared = if trace then List.map fst per_layer else end_to_end in
  List.iter
    (fun m ->
      if not (List.exists (String.equal m.name) declared) then die "undeclared metric %s" m.name;
      if not (Float.is_finite m.value) then die "metric %s is not finite" m.name)
    measured;
  if trace then
    List.map (fun (name, unit) -> Option.value (find name) ~default:(metric name unit 0.)) per_layer
  else
    List.map
      (fun name -> match find name with Some m -> m | None -> die "metric %s was not measured" name)
      end_to_end

let ocaml_version = Sys.ocaml_version

let run_workload ~workload ~seed ~seconds ~trace ~work ~spans =
  let spans_path = spans in
  let t0 = now () in
  (* before hot-http pins the process to one CPU *)
  let nproc = Domain.recommended_domain_count () in
  let outcome =
    match workload with
    | "hot-http" -> Hot_http.run ~seed ~seconds ~trace ~work ~spans_path
    | "cold-snapshot" -> Served.run Served.Search ~seed ~seconds ~trace ~work ~spans_path
    | "sharded" -> Served.run Served.Shards ~seed ~seconds ~trace ~work ~spans_path
    | "live-write" -> Live_write.run ~seed ~seconds ~trace ~work ~spans_path
    | w -> die "unknown workload %S" w
  in
  let metrics = complete ~trace outcome.metrics in
  let info =
    [ "workload", json_string workload; "seed", json_int seed; "seconds", json_int seconds;
      "trace", json_bool trace ]
    @ outcome.info
    @ [ "nproc", json_int nproc;
        "ocaml", json_string ocaml_version;
        "run_s", json_number (now () -. t0) ]
    @ if trace then [ "spans", json_string spans ] else []
  in
  print_endline (json_object [ "info", json_object info ]);
  let correct = outcome.failed = 0 in
  print_endline
    (json_object
       [ "correct", json_bool correct;
         "attempted", json_int outcome.attempted;
         "failed", json_int outcome.failed;
         "metrics",
         json_object
           (List.map
              (fun m ->
                m.name, json_object [ "value", json_number m.value; "unit", json_string m.unit ])
              metrics) ]);
  if not correct then exit 1

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 --work DIR --spans FILE\n\
    \       main.exe part W PLAN REPORT\n\
    \       main.exe loadgen PLAN REPORT";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "loadgen" :: plan_path :: report_path :: [] -> Http.loadgen ~plan_path ~report_path
  | _ :: "part" :: workload :: plan_path :: report_path :: [] -> (
    match workload with
    | "hot-http" -> serve_part Hot_http.part ~plan_path ~report_path
    | "cold-snapshot" | "sharded" -> serve_part Served.part ~plan_path ~report_path
    | "live-write" -> serve_part Live_write.part ~plan_path ~report_path
    | _ -> usage ())
  | _ :: "run" :: args ->
    let rec options acc = function
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = options [] args in
    let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
    let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let seconds = int "seconds" in
    if seconds < 1 then usage ();
    run_workload ~workload:(get "workload") ~seed:(int "seed") ~seconds ~trace ~work:(get "work")
      ~spans:(get "spans")
  | _ -> usage ()
