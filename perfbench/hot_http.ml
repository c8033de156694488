(* hot-http: the default retail corpus served by the real domain pool
   (Demo_server.start_pool, `extract serve`'s defaults: one worker,
   64-page and 256-entry caches in 8 shards) on a loopback port, driven
   by a separate single-threaded load-generator process over one
   keep-alive connection. The hot target set fits the page cache, so
   after one warm-up pass transport, routing and the page cache do the
   work. With taskset available the server is pinned to CPU 0 and the
   generator to CPU 1. *)

module Document = Extract_store.Document
module Dataguide = Extract_store.Dataguide
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Inverted_index = Extract_store.Inverted_index
module Pipeline = Extract_snippet.Pipeline
module Corpus = Extract_snippet.Corpus
module Html_view = Extract_snippet.Html_view
module Demo_server = Extract_server.Demo_server

open Common

let hot_targets = 20

let skew = 1.0

(* requests per second of --seconds: a fixed count, not a duration *)
let requests_per_second = 2_500

let limit = 25

let title = "eXtract — retail"

(* ------------------------------------------------------------------ *)
(* CPU pinning                                                         *)

let quiet_run prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      match Unix.create_process prog (Array.append [| prog |] args) Unix.stdin devnull devnull with
      | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> true
        | _ -> false)
      | exception Unix.Unix_error _ -> false)

(* Pin this process (every thread; domains spawned later inherit it) to
   CPU 0, if taskset can also place the generator on CPU 1. *)
let pin_server () =
  quiet_run "taskset" [| "-c"; "1"; "true" |]
  && quiet_run "taskset" [| "-a"; "-p"; "-c"; "0"; string_of_int (Unix.getpid ()) |]

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

type inputs = {
  xml_path : string;
  nodes : int;
  distinct_queries : int;
  targets : string array;
  probe : string;
  probe_page : string;
  sequence : int array;
}

let prepare ~seed ~seconds ~work =
  let xml_path = Filename.concat work "retail.xml" in
  Out_channel.with_open_bin xml_path (fun oc ->
      Out_channel.output_string oc (Mix.xml_of_document (Mix.retail_default ())));
  let flat = Pipeline.build (Document.load_file xml_path) in
  let queries = Mix.query_pool (Pipeline.kinds flat) in
  let page (r : Mix.read) =
    Html_view.result_page ~title ~query:r.Mix.query ~bound:r.Mix.bound
      (Pipeline.run ~bound:r.Mix.bound ~limit flat r.Mix.query)
  in
  let hot =
    Mix.stratified
      (Array.mapi (fun i query -> { Mix.query; bound = Mix.bound_of i }) queries)
      ~size:(fun r -> String.length (page r))
      ~strata:(min hot_targets (Array.length queries))
  in
  let probe = Mix.probe queries ~results:(fun q -> List.length (Pipeline.search flat q)) in
  ( {
      xml_path;
      nodes = Document.node_count (Pipeline.document flat);
      distinct_queries = Array.length queries;
      targets = Array.map Mix.search_target hot;
      probe = Mix.search_target probe;
      probe_page = page probe;
      sequence =
        Mix.zipf_sequence (Mix.stream ~seed 3) ~distinct:(Array.length hot) ~skew
          ~count:(requests_per_second * seconds);
    },
    (* the expected page of each target *)
    Array.map page hot )

(* ------------------------------------------------------------------ *)
(* Cold starts                                                         *)

type pool = {
  server : Demo_server.t;
  socket : Unix.file_descr;
  pool : Demo_server.pool;
  port : int;
}

let stop p =
  Demo_server.stop_pool p.pool;
  Unix.close p.socket

(* XML on disk -> parse, Pipeline.build, pool listening -> probe answered
   over HTTP. Returns the pool, the total and the first request's time. *)
let cold_start inputs =
  let t0 = now () in
  let db = Pipeline.build (Document.load_file inputs.xml_path) in
  let server = Demo_server.create (Corpus.of_list [ "retail", db ]) in
  let socket = Demo_server.listen ~port:0 in
  let pool = Demo_server.start_pool server socket in
  let port = Demo_server.bound_port socket in
  let t1 = now () in
  let ok = Http.get_once ~port inputs.probe ~expected:inputs.probe_page in
  let t2 = now () in
  { server; socket; pool; port }, t2 -. t0, t2 -. t1, ok

(* The start-up layers, timed one by one from outside. *)
let startup_layers inputs =
  let doc, parse = timed (fun () -> Document.load_file inputs.xml_path) in
  let guide, g = timed (fun () -> Dataguide.build doc) in
  let kinds, c = timed (fun () -> Node_kind.classify guide) in
  let _, m = timed (fun () -> Key_miner.mine kinds) in
  let _, b = timed (fun () -> Inverted_index.build doc) in
  [| parse; g; c; m; b |]

(* ------------------------------------------------------------------ *)
(* The generator process                                               *)

let generate ~exe ~pinned ~work plan =
  let plan_path = Filename.concat work "loadgen.plan" in
  let report_path = Filename.concat work "loadgen.report" in
  write_marshal plan_path plan;
  let args = [| exe; "loadgen"; plan_path; report_path |] in
  let prog, argv =
    if pinned then "taskset", Array.append [| "taskset"; "-c"; "1" |] args else exe, args
  in
  let pid = Unix.create_process prog argv Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (read_marshal report_path : Http.report)
  | _ -> die "the load generator failed"

(* In-process replay of the same sequence on the warm server: each
   request's handle_request time, optionally inside a ledger span. *)
let in_process server targets sequence ~ledger ~digests =
  let n = Array.length sequence in
  let times = Array.make n 0. in
  let failed = ref 0 in
  Array.iteri
    (fun i k ->
      let call () = Demo_server.handle_request server targets.(k) in
      let t0 = now () in
      let resp =
        match ledger with
        | Some l ->
          Ledger.begin_request l i;
          Ledger.span l Ledger.Demo_server call
        | None -> call ()
      in
      times.(i) <- now () -. t0;
      Option.iter (fun l -> Ledger.end_request l ~start:t0 ~seconds:times.(i)) ledger;
      if resp.Demo_server.status <> 200
         || not (Digest.equal digests.(k) (Digest.string resp.Demo_server.body))
      then incr failed)
    sequence;
  times, !failed

(* The timed phase on a started pool: one warm-up pass puts every hot
   page in the cache, then the generator replays [sequence]. Returns its
   report, the warm-up's failures, GC marks around the replay (the pool
   stopped first, so its domains' counts are in) and the heap after. *)
let timed_phase p pages sequence ~targets ~exe ~pinned ~work =
  let warmup_failed = ref 0 in
  Array.iteri
    (fun k t -> if not (Http.get_once ~port:p.port t ~expected:pages.(k)) then incr warmup_failed)
    targets;
  settle ();
  let gc0 = gc_mark () in
  let report = generate ~exe ~pinned ~work { Http.port = p.port; targets; pages; sequence } in
  Demo_server.stop_pool p.pool;
  let gc1 = gc_mark () in
  let heap = live_heap_mb () in
  Unix.close p.socket;
  report, !warmup_failed, gc0, gc1, heap

(* One slice of the untraced run, in a process of its own (which
   inherits the pinning to CPU 0): start the pool, answer the probe,
   then the timed phase. *)
type plan = {
  inputs : inputs;
  pages : string array;
  part_sequence : int array;
  pinned : bool;
  plan_work : string;
}

let part plan =
  let p, _, _, probe_ok = cold_start plan.inputs in
  let report, warmup_failed, _, _, heap_mb =
    timed_phase p plan.pages plan.part_sequence ~targets:plan.inputs.targets
      ~exe:Sys.executable_name ~pinned:plan.pinned ~work:plan.plan_work
  in
  {
    latencies = report.Http.latencies;
    failed = report.Http.failures + warmup_failed + (if probe_ok then 0 else 1);
    wall = report.Http.wall;
    heap_mb;
  }

let run ~seed ~seconds ~trace ~work ~spans_path =
  let pinned = pin_server () in
  let inputs, pages = prepare ~seed ~seconds ~work in
  let layers = ref [] in
  let start () =
    if trace then layers := startup_layers inputs :: !layers;
    cold_start inputs
  in
  let starts =
    cold_starts ~count:(if trace then starts_per_run else starts_before) ~discard:stop start
  in
  let failed = ref starts.wrong in
  let p = starts.last in
  let n = Array.length inputs.sequence in
  let attempted = n + starts_per_run + Array.length inputs.targets in
  let info =
    [ "route", json_string "/search over HTTP";
      "nodes", json_int inputs.nodes;
      "distinct_queries", json_int inputs.distinct_queries;
      "distinct_targets", json_int (Array.length inputs.targets);
      "requests", json_int n;
      "page_cache_capacity", json_int 64;
      "snippet_cache_capacity", json_int 256;
      "zipf_skew", json_number skew;
      "write_ratio", json_int 0;
      "pinned", json_bool pinned ]
  in
  if not trace then begin
    stop p;
    let reports, later_setups, later_wrong =
      run_parts ~workload:"hot-http" ~work
        ~between:(fun () -> discarded_starts ~count:starts_between ~discard:stop start)
        (fun k ->
          { inputs; pages; part_sequence = slice inputs.sequence k; pinned; plan_work = work })
    in
    let latencies, part_failed, wall, heap = pool reports in
    {
      (* each slice's process answers the probe and a warm-up pass *)
      attempted = n + starts_per_run + (parts * (1 + Array.length inputs.targets));
      failed = !failed + part_failed + later_wrong;
      metrics =
        end_to_end_metrics ~setups:(Array.append starts.setups later_setups) ~reads:latencies
          ~requests:n ~wall ~heap;
      info = info @ [ "processes", json_int parts ];
    }
  end
  else begin
    let digests = Array.map Digest.string pages in
    let pages0 = Demo_server.cache_stats p.server in
    let snips0 = Demo_server.snippet_cache_stats p.server in
    let report, warmup_failed, gc0, gc1, _ =
      timed_phase p pages inputs.sequence ~targets:inputs.targets ~exe:Sys.executable_name
        ~pinned ~work
    in
    failed := !failed + warmup_failed + report.Http.failures;
    let latencies = report.Http.latencies in
    let page_hits, page_misses =
      let h, m = Demo_server.cache_stats p.server in
      (* the warm-up pass misses once per target *)
      h - fst pages0, m - snd pages0 - Array.length inputs.targets
    in
    let snip_hits, snip_misses =
      let h, m = Demo_server.snippet_cache_stats p.server in
      h - fst snips0, m - snd snips0 - Array.length inputs.targets
    in
    settle ();
    let untraced, f1 =
      in_process p.server inputs.targets inputs.sequence ~ledger:None ~digests
    in
    let ledger = Ledger.create () in
    settle ();
    let traced, f2 =
      in_process p.server inputs.targets inputs.sequence ~ledger:(Some ledger) ~digests
    in
    Ledger.write ledger spans_path;
    failed := !failed + f1 + f2;
    let client = mean latencies in
    let span_mean = Ledger.total_seconds ledger Ledger.Demo_server /. float_of_int n in
    let startup i = median (Array.of_list (List.map (fun a -> a.(i)) !layers)) *. 1000. in
    let metrics =
      [ metric "transport.self_us" "us"
          (median (Array.mapi (fun i l -> l -. untraced.(i)) latencies) *. 1e6);
        metric "transport.bytes" "B" (float_of_int report.Http.bytes /. float_of_int n);
        metric "transport.reconnects" "count/1000req"
          (float_of_int report.Http.reconnects *. 1000. /. float_of_int n);
        metric "demo_server.self_us" "us" (median untraced *. 1e6);
        metric "page_cache.hit_ratio" "ratio"
          (ratio (float_of_int page_hits) (float_of_int (page_hits + page_misses)));
        metric "snippet_cache.hit_ratio" "ratio"
          (ratio (float_of_int snip_hits) (float_of_int (snip_hits + snip_misses)));
        metric "document.parse_ms" "ms" (startup 0);
        metric "dataguide.build_ms" "ms" (startup 1);
        metric "node_kind.classify_ms" "ms" (startup 2);
        metric "key_miner.mine_ms" "ms" (startup 3);
        metric "inverted_index.build_ms" "ms" (startup 4);
        metric "setup.first_request_ms" "ms" (median starts.firsts *. 1000.);
        (* spans cannot see inside the transport, so on this workload
           the residual is the transport's share *)
        metric "ledger.residual_share" "ratio" (ratio (client -. span_mean) client);
        metric "ledger.trace_overhead_share" "ratio"
          (ratio (mean traced -. mean untraced) (mean untraced)) ]
      @ gc_metrics ~requests:n gc0 gc1
    in
    { attempted = attempted + (2 * n); failed = !failed; metrics; info }
  end
