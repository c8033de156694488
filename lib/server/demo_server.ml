module Corpus = Extract_snippet.Corpus
module Live_corpus = Extract_snippet.Live_corpus
module Shard_set = Extract_snippet.Shard_set
module Pipeline = Extract_snippet.Pipeline
module Html_view = Extract_snippet.Html_view
module Explain = Extract_snippet.Explain
module Sharded_lru = Extract_util.Sharded_lru
module Deadline = Extract_util.Deadline
module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry
module Log = Extract_obs.Log
module Reqid = Extract_obs.Reqid
module Slowlog = Extract_obs.Slowlog
module Jsonv = Extract_obs.Jsonv
module Trace = Extract_obs.Trace
module Trace_export = Extract_obs.Trace_export
module Runtime = Extract_obs.Runtime
module Live_store = Extract_store.Live

(* ------------------------------------------------------------------ *)
(* Server metrics: cache behaviour, shed load and per-connection
   transport outcomes. Pipeline-level series (stage latencies, degraded
   snippets, posting resolution) are recorded by the libraries
   themselves; /metrics renders the whole registry. *)

let page_hits_total =
  Registry.counter ~help:"Cache hits" ~labels:[ "cache", "page" ]
    "extract_cache_hits_total"

let page_misses_total =
  Registry.counter ~help:"Cache misses" ~labels:[ "cache", "page" ]
    "extract_cache_misses_total"

let shed_total =
  Registry.counter ~help:"Requests shed with 503 because the budget was spent up front"
    "extract_requests_shed_total"

let response_counter status =
  Registry.counter ~help:"HTTP responses written, by status"
    ~labels:[ "status", string_of_int status ]
    "extract_http_responses_total"

(* pre-register the statuses the server can produce, so /metrics shows
   the full inventory from the first scrape *)
let () =
  List.iter
    (fun s -> ignore (response_counter s))
    [ 200; 400; 404; 405; 408; 413; 431; 500; 503 ]

let admin_updates_total op =
  Registry.counter ~help:"Live-store updates applied via /admin, by operation"
    ~labels:[ "op", op ] "extract_admin_updates_total"

let () = List.iter (fun op -> ignore (admin_updates_total op)) [ "add"; "remove"; "compact" ]

let transport_error_counter kind =
  Registry.counter ~help:"Connections dropped while writing the response"
    ~labels:[ "kind", kind ] "extract_transport_errors_total"

let () =
  List.iter
    (fun k -> ignore (transport_error_counter k))
    [ "epipe"; "reset"; "write_timeout" ]

(* domain-pool series: per-worker request/connection counters (the
   "worker" label), the accept-queue occupancy and its shed path *)
let worker_requests_total w =
  Registry.counter ~help:"Requests handled, by pool worker"
    ~labels:[ "worker", string_of_int w ] "extract_worker_requests_total"

let worker_connections_total w =
  Registry.counter ~help:"Connections handled, by pool worker"
    ~labels:[ "worker", string_of_int w ] "extract_worker_connections_total"

let keepalive_reuses_total =
  Registry.counter ~help:"Requests served on an already-open keep-alive connection"
    "extract_keepalive_reuses_total"

let accept_queue_shed_total =
  Registry.counter
    ~help:"Connections answered 503 up front because the accept queue was full"
    "extract_accept_queue_shed_total"

let accept_queue_depth =
  Registry.gauge ~help:"Connections waiting in the accept queue"
    "extract_accept_queue_depth"

let accept_queue_depth_peak =
  Registry.gauge ~help:"Deepest accept-queue occupancy observed"
    "extract_accept_queue_depth_peak"

let queue_wait_seconds =
  Registry.histogram ~help:"Seconds accepted connections waited for a pool worker"
    "extract_queue_wait_seconds"

let live_journal_lag =
  Registry.gauge
    ~help:"Journal records applied since the last checkpoint (compaction resets to 0)"
    "extract_live_journal_lag"

type t = {
  corpus : Corpus.t;
  live : Live_corpus.t option; (* crash-safe updatable corpus, when serving one *)
  sharded : Shard_set.t option; (* split corpus, when serving one *)
  pages : (string, string) Sharded_lru.t; (* request target -> rendered body *)
  degraded_served : int Atomic.t; (* deadline-degraded snippets sent so far *)
  ready : bool Atomic.t; (* readiness latch: set once serving starts *)
  queue_probe : (unit -> int * int) option Atomic.t;
      (* (depth, capacity) of the accept queue while a pool runs *)
}

type response = {
  status : int;
  reason : string;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

(* ------------------------------------------------------------------ *)
(* URL parsing *)

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let url_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i < n then begin
      match s.[i] with
      | '+' ->
        Buffer.add_char buf ' ';
        loop (i + 1)
      | '%' when i + 2 < n -> begin
        match hex_value s.[i + 1], hex_value s.[i + 2] with
        | Some h, Some l ->
          Buffer.add_char buf (Char.chr ((h * 16) + l));
          loop (i + 3)
        | _ ->
          Buffer.add_char buf '%';
          loop (i + 1)
      end
      | c ->
        Buffer.add_char buf c;
        loop (i + 1)
    end
  in
  loop 0;
  Buffer.contents buf

let parse_target target =
  match String.index_opt target '?' with
  | None -> url_decode target, []
  | Some q ->
    let path = String.sub target 0 q in
    let query = String.sub target (q + 1) (String.length target - q - 1) in
    let params =
      String.split_on_char '&' query
      |> List.filter_map (fun pair ->
             if pair = "" then None
             else
               match String.index_opt pair '=' with
               | None -> Some (url_decode pair, "")
               | Some eq ->
                 Some
                   ( url_decode (String.sub pair 0 eq),
                     url_decode (String.sub pair (eq + 1) (String.length pair - eq - 1)) ))
    in
    url_decode path, params

(* ------------------------------------------------------------------ *)
(* Pages *)

let ok ?(content_type = "text/html; charset=utf-8") body =
  { status = 200; reason = "OK"; content_type; headers = []; body }

let text_ok body = ok ~content_type:"text/plain; charset=utf-8" body

let error ?(headers = []) status reason detail =
  {
    status;
    reason;
    content_type = "text/plain; charset=utf-8";
    headers;
    body = Printf.sprintf "%d %s\n%s\n" status reason detail;
  }

(* load shedding: the budget is already gone, so decline the expensive
   work up front instead of producing an all-degraded page *)
let overloaded detail =
  error ~headers:[ "Retry-After", "1" ] 503 "Service Unavailable" detail

let home_page t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>eXtract</title></head><body>";
  Buffer.add_string buf "<h1>eXtract — snippet generation for XML search</h1>";
  Buffer.add_string buf "<form action=\"/search\" method=\"get\">";
  Buffer.add_string buf "<select name=\"data\">";
  List.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf "<option>%s</option>" (Html_view.escape name)))
    (Corpus.names t.corpus);
  Buffer.add_string buf "</select> ";
  Buffer.add_string buf "<input name=\"q\" placeholder=\"keywords\"> ";
  Buffer.add_string buf "bound <input name=\"bound\" value=\"6\" size=\"3\"> ";
  Buffer.add_string buf "<button>Search</button></form>";
  Buffer.add_string buf "<p>Data sets: ";
  Buffer.add_string buf (String.concat ", " (List.map Html_view.escape (Corpus.names t.corpus)));
  Buffer.add_string buf "</p></body></html>\n";
  Buffer.contents buf

let current_rid () = Option.value ~default:"-" (Reqid.current ())

(* Slowlog capture around the query routes: one entry per pipeline run
   (slowest retention), plus unconditional retention of every degraded
   or faulted query. [entry] describes a finished run. An injected fault
   is recorded before it propagates to the 503 path, so the slowlog
   still names the query that died. *)
let slowlogged ~query ~entry f =
  let t0 = Deadline.now () in
  match f () with
  | out ->
    Slowlog.record (entry out ~seconds:(Deadline.now () -. t0));
    out
  | exception (Faults.Injected (point, _) as e) ->
    Slowlog.record
      {
        Slowlog.rid = current_rid ();
        query;
        seconds = Deadline.now () -. t0;
        degraded = 0;
        faulted = true;
        digest = Jsonv.Obj [ "fault", Jsonv.Str point ];
      };
    raise e

let with_db t params f =
  match List.assoc_opt "data" params with
  | None -> error 400 "Bad Request" "missing ?data= parameter"
  | Some name -> begin
    match Corpus.find t.corpus name with
    | None -> error 404 "Not Found" (Printf.sprintf "unknown data set %S" name)
    | Some db -> f name db
  end

let bound_param params =
  match Option.bind (List.assoc_opt "bound" params) int_of_string_opt with
  | Some b when b >= 0 -> b
  | Some _ | None -> Pipeline.default_bound

(* The missing-q 400 and the budget-shed 503 every query route starts
   with: when the budget is already gone, decline the work up front. *)
let with_query ~deadline params f =
  match List.assoc_opt "q" params with
  | None | Some "" -> error 400 "Bad Request" "missing ?q= parameter"
  | Some q ->
    if Deadline.expired deadline then begin
      Registry.incr shed_total;
      overloaded "per-request budget exhausted before search started"
    end
    else f q

let count_degraded results =
  List.fold_left
    (fun n (r : Pipeline.snippet_result) -> if r.Pipeline.degraded then n + 1 else n)
    0 results

let limit_param params =
  match Option.bind (List.assoc_opt "limit" params) int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 25

(* The body of every search route. [run q ~bound ~limit] answers the
   query; [limit] fixes the result count, else [?limit=] does (default
   25). [page_key] caches the rendered page under that key: a page with
   degraded snippets is served but never cached, since the degradation
   reflects this request's budget, not the query's answer. [title] is
   read after the run, so a live page names the generation it answered
   from. *)
let search_route t ~deadline ?page_key ?limit params ~title run =
  with_query ~deadline params @@ fun q ->
  let bound = bound_param params in
  let limit = match limit with Some n -> n | None -> limit_param params in
  match Option.bind page_key (Sharded_lru.find t.pages) with
  | Some body ->
    Registry.incr page_hits_total;
    ok body
  | None ->
    if Option.is_some page_key then Registry.incr page_misses_total;
    let results =
      slowlogged ~query:q
        ~entry:(fun results ~seconds ->
          {
            Slowlog.rid = current_rid ();
            query = q;
            seconds;
            degraded = count_degraded results;
            faulted = false;
            digest = Explain.digest_of_results results;
          })
        (fun () -> run q ~bound ~limit)
    in
    let degraded = count_degraded results in
    ignore (Atomic.fetch_and_add t.degraded_served degraded);
    let body = Html_view.result_page ~title:(title ()) ~query:q ~bound results in
    (match page_key with
    | Some key when degraded = 0 -> Sharded_lru.put t.pages key body
    | Some _ | None -> ());
    ok body

let search_page t ~deadline target params =
  with_db t params (fun name db ->
      search_route t ~deadline ~page_key:target ~limit:25 params
        ~title:(fun () -> Printf.sprintf "eXtract — %s" name)
        (fun q ~bound ~limit -> Pipeline.run ~bound ~limit ~deadline db q))

(* The explain endpoint runs the same pipeline as /search and assembles
   the bundle around it; explain pages are never cached — the bundle's
   stage timings and request id describe this run. *)
let explain_page t ~deadline params =
  with_db t params (fun _name db ->
      with_query ~deadline params @@ fun q ->
      let bound = bound_param params in
      let _, bundle =
        slowlogged ~query:q
          ~entry:(fun (_, bundle) ~seconds:_ ->
            {
              Slowlog.rid = bundle.Explain.request_id;
              query = q;
              seconds = bundle.Explain.seconds;
              degraded = bundle.Explain.degraded;
              faulted = false;
              digest = Explain.digest bundle;
            })
          (fun () -> Explain.run ~bound ~limit:25 ~deadline db q)
      in
      match List.assoc_opt "format" params with
      | Some "text" -> text_ok (Explain.to_text bundle)
      | Some "json" | None ->
        ok ~content_type:"application/json; charset=utf-8" (Explain.render_json bundle ^ "\n")
      | Some other -> error 400 "Bad Request" (Printf.sprintf "unknown format %S" other))

let slowlog_page () =
  ok ~content_type:"application/json; charset=utf-8" (Slowlog.render_json () ^ "\n")

let complete_page t params =
  with_db t params (fun _ db ->
      match List.assoc_opt "prefix" params with
      | None | Some "" -> error 400 "Bad Request" "missing ?prefix= parameter"
      | Some prefix ->
        let completions = Extract_store.Inverted_index.complete (Pipeline.index db) prefix in
        text_ok
          (String.concat ""
             (List.map (fun (tok, count) -> Printf.sprintf "%s %d\n" tok count) completions)))

let cache_report t =
  let page_hits, page_misses = Sharded_lru.stats t.pages in
  Printf.sprintf
    "page cache: %d hits, %d misses, %d/%d entries, %d shard(s)\n\
     degraded snippets served: %d\n"
    page_hits page_misses
    (Sharded_lru.length t.pages)
    (Sharded_lru.capacity t.pages)
    (Sharded_lru.shards t.pages)
    (Atomic.get t.degraded_served)

(* Gauges describing current cache occupancy are set at scrape time from
   the live structures (they are instantaneous state, not events). The
   per-shard series carry a "shard" label next to the aggregated ones,
   so a hot or cold shard is visible without changing the dashboards
   that read the totals. *)
let refresh_cache_gauges t =
  let set name v =
    Registry.set (Registry.gauge ~labels:[ "cache", "page" ] name) (float_of_int v)
  in
  set "extract_cache_entries" (Sharded_lru.length t.pages);
  set "extract_cache_capacity" (Sharded_lru.capacity t.pages);
  set "extract_cache_evictions" (Sharded_lru.evictions t.pages);
  Array.iteri
    (fun i (s : Sharded_lru.shard_stats) ->
      let g name v =
        Registry.set
          (Registry.gauge ~labels:[ "cache", "page"; "shard", string_of_int i ] name)
          (float_of_int v)
      in
      g "extract_cache_shard_hits" s.Sharded_lru.hits;
      g "extract_cache_shard_misses" s.Sharded_lru.misses;
      g "extract_cache_shard_evictions" s.Sharded_lru.evictions;
      g "extract_cache_shard_entries" s.Sharded_lru.entries)
    (Sharded_lru.shard_stats t.pages);
  Registry.set
    (Registry.gauge ~help:"Deadline-degraded snippets served by this server"
       "extract_degraded_snippets_served")
    (float_of_int (Atomic.get t.degraded_served))

let refresh_live_gauges live =
  Registry.set live_journal_lag
    (float_of_int (Live_store.pending_updates (Live_corpus.store live)))

let create ?(cache_size = 64) ?live ?sharded corpus =
  let t =
    {
      corpus;
      live;
      sharded;
      pages = Sharded_lru.create ~capacity:cache_size;
      degraded_served = Atomic.make 0;
      ready = Atomic.make false;
      queue_probe = Atomic.make None;
    }
  in
  (* runtime-collector hooks: named registration replaces the previous
     server's closure, so repeatedly created servers don't stack *)
  Runtime.register_collector "server.caches" (fun () -> refresh_cache_gauges t);
  (match live with
  | Some lv ->
    Runtime.register_collector "server.live" (fun () -> refresh_live_gauges lv)
  | None -> ());
  t

let mark_ready t = Atomic.set t.ready true

let metrics_page t =
  refresh_cache_gauges t;
  ok ~content_type:"text/plain; version=0.0.4; charset=utf-8" (Registry.render_prometheus ())

let stats_json t params =
  refresh_cache_gauges t;
  let page_hits, page_misses = Sharded_lru.stats t.pages in
  let dataset =
    match Option.bind (List.assoc_opt "data" params) (Corpus.find t.corpus) with
    | None -> "null"
    | Some db ->
      let stats = Extract_store.Doc_stats.compute (Pipeline.kinds db) in
      Format.asprintf "%a" Extract_store.Doc_stats.pp_json stats
  in
  ok ~content_type:"application/json; charset=utf-8"
    (Printf.sprintf
       "{ \"caches\": { \"page\": { \"hits\": %d, \"misses\": %d, \"entries\": %d, \
        \"capacity\": %d, \"evictions\": %d } }, \"degraded_served\": %d, \"dataset\": \
        %s, \"metrics\": %s }\n"
       page_hits page_misses
       (Sharded_lru.length t.pages)
       (Sharded_lru.capacity t.pages)
       (Sharded_lru.evictions t.pages)
       (Atomic.get t.degraded_served)
       dataset (Registry.render_json ()))

let stats_page t params =
  if List.assoc_opt "format" params = Some "json" then stats_json t params
  else
    with_db t params (fun name db ->
        let stats = Extract_store.Doc_stats.compute (Pipeline.kinds db) in
        text_ok
          (Format.asprintf "data set: %s@.%a@.%s" name Extract_store.Doc_stats.pp stats
             (cache_report t)))

(* ------------------------------------------------------------------ *)
(* Live corpus: online updates over POST, searches that bypass the page
   cache. Its key is the raw target, which does not encode the live
   store's generation, so a cached live page could survive the update
   that invalidated it. The query view swap inside Live_corpus is the
   cache: unchanged segments keep their analyzed pipelines. *)

type meth = Get | Post

let meth_name = function Get -> "GET" | Post -> "POST"

let with_live t f =
  match t.live with
  | None ->
    error 404 "Not Found" "no live store attached (start the server with --live DIR)"
  | Some live -> f live

let name_param params f =
  match List.assoc_opt "name" params with
  | None | Some "" -> error 400 "Bad Request" "missing ?name= parameter"
  | Some name -> f name

(* update errors are the client's fault: unparsable XML or a bad member
   name answers 400 with the parser's own message, and the journal never
   sees the record (Live validates before appending) *)
let admin_add t params body =
  with_live t (fun live ->
      name_param params (fun name ->
          if body = "" then error 400 "Bad Request" "empty request body (expected XML)"
          else
            match Live_corpus.add live ~name ~xml:body with
            | () ->
              Registry.incr (admin_updates_total "add");
              text_ok
                (Printf.sprintf "added %s (generation %d, %d member(s))\n" name
                   (Live_corpus.generation live)
                   (List.length (Live_corpus.names live)))
            | exception Extract_xml.Error.Parse_error (pos, msg) ->
              error 400 "Bad Request" (Extract_xml.Error.to_string pos msg)
            | exception Invalid_argument msg -> error 400 "Bad Request" msg))

let admin_remove t params =
  with_live t (fun live ->
      name_param params (fun name ->
          match Live_corpus.remove live name with
          | true ->
            Registry.incr (admin_updates_total "remove");
            text_ok (Printf.sprintf "removed %s (%d member(s) left)\n" name
                       (List.length (Live_corpus.names live)))
          | false -> error 404 "Not Found" (Printf.sprintf "no member %S" name)
          | exception Invalid_argument msg -> error 400 "Bad Request" msg))

let admin_compact t =
  with_live t (fun live ->
      let generation = Live_corpus.compact live in
      Registry.incr (admin_updates_total "compact");
      text_ok (Printf.sprintf "compacted to generation %d\n" generation))

let live_status t =
  with_live t (fun live ->
      let names = Live_corpus.names live in
      text_ok
        (Printf.sprintf "generation %d, %d member(s)\n%s" (Live_corpus.generation live)
           (List.length names)
           (String.concat "" (List.map (fun n -> Printf.sprintf "%s\n" n) names))))

let live_search_page t ~deadline params =
  with_live t (fun live ->
      search_route t ~deadline params
        ~title:(fun () ->
          Printf.sprintf "eXtract — live (generation %d)" (Live_corpus.generation live))
        (fun q ~bound ~limit ->
          List.map
            (fun (h : Live_corpus.hit) -> h.Live_corpus.snippet)
            (Live_corpus.run ~bound ~limit ~deadline live q)))

(* ------------------------------------------------------------------ *)
(* Sharded serving: the /shards routes mirror /live, backed by a
   Shard_set — every shard one segment of a ranked merge. The shard set
   is read-only; no admin routes. *)

let with_sharded t f =
  match t.sharded with
  | None ->
    error 404 "Not Found"
      "no shard set attached (serve a directory written by extract pack --shards)"
  | Some s -> f s

let shards_status t =
  with_sharded t (fun s ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf (Printf.sprintf "%d shard(s)\n" (Shard_set.shard_count s));
      for i = 0 to Shard_set.shard_count s - 1 do
        let g0, g1 = Shard_set.provenance s i in
        let db = Shard_set.shard_db s i in
        Buffer.add_string buf
          (Printf.sprintf "shard %d: nodes %d..%d (%d), %d tokens\n" i g0 g1 (g1 - g0 + 1)
             (Extract_store.Inverted_index.token_count (Pipeline.index db)))
      done;
      text_ok (Buffer.contents buf))

let shards_search_page t ~deadline params =
  with_sharded t (fun s ->
      search_route t ~deadline params
        ~title:(fun () ->
          Printf.sprintf "eXtract — sharded (%d shards)" (Shard_set.shard_count s))
        (fun q ~bound ~limit ->
          List.map
            (fun (h : Shard_set.hit) -> h.Shard_set.result)
            (Shard_set.run ~bound ~limit ~deadline s q)))

(* ------------------------------------------------------------------ *)
(* Health surface: /healthz answers 200 whenever the process routes
   requests at all (liveness — a hung process answers nothing); /readyz
   is the load-balancer gate: 503 until serving has started (corpus
   built, any journal recovered, pool accepting) and whenever the
   accept queue has reached its shed threshold, 200 otherwise. *)

let health_page () = text_ok "ok\n"

let readiness t =
  let queue_ok, queue_depth, queue_capacity =
    match Atomic.get t.queue_probe with
    | None -> true, 0, 0
    | Some probe ->
      let depth, capacity = probe () in
      depth < capacity, depth, capacity
  in
  let serving = Atomic.get t.ready in
  let ready = serving && queue_ok in
  let body =
    Jsonv.Obj
      [
        ("ready", Jsonv.Bool ready);
        ( "components",
          Jsonv.Obj
            [
              ("serving", Jsonv.Bool serving);
              ("accept_queue", Jsonv.Bool queue_ok);
              ("journal_recovered", Jsonv.Bool (t.live <> None));
              ("shards_mapped", Jsonv.Bool (t.sharded <> None));
            ] );
        ("corpus_members", Jsonv.Int (List.length (Corpus.names t.corpus)));
        ( "live_generation",
          match t.live with
          | Some lv -> Jsonv.Int (Live_corpus.generation lv)
          | None -> Jsonv.Null );
        ( "shards",
          match t.sharded with
          | Some s -> Jsonv.Int (Shard_set.shard_count s)
          | None -> Jsonv.Null );
        ( "queue",
          Jsonv.Obj
            [ ("depth", Jsonv.Int queue_depth); ("capacity", Jsonv.Int queue_capacity) ]
        );
      ]
  in
  ready, Jsonv.to_string body ^ "\n"

let ready_page t =
  let ready, body = readiness t in
  let content_type = "application/json; charset=utf-8" in
  if ready then ok ~content_type body
  else
    {
      status = 503;
      reason = "Service Unavailable";
      content_type;
      headers = [ "Retry-After", "1" ];
      body;
    }

let trace_page params =
  let last = Option.bind (List.assoc_opt "last" params) int_of_string_opt in
  ok ~content_type:"application/json; charset=utf-8"
    (Trace_export.render (Trace.recent ?last ()) ^ "\n")

let runtime_page () =
  ok ~content_type:"application/json; charset=utf-8" (Runtime.render_json () ^ "\n")

(* Every request runs under a fresh request id: the access-log line, the
   pipeline's event-log lines, the trace spans and the slowlog entry of
   one request all carry the same id. Requests picked by the trace
   sampler (EXTRACT_TRACE_SAMPLE) record an [http.request] span tree —
   including the time the connection waited for a worker — even while
   process-wide tracing is off. *)
let handle_request ?(deadline = Deadline.never) ?(meth = Get) ?(body = "")
    ?(queue_wait = 0.) t target =
  let sampled = Trace.sampled () in
  let in_scope f = if sampled then Trace.with_recording f else f () in
  in_scope @@ fun () ->
  Reqid.ensure (fun _rid ->
      Trace.with_span ~args:[ ("target", target) ] "http.request" @@ fun () ->
      let t0 = Deadline.now () in
      if queue_wait > 0. then
        Trace.add_span "queue.wait" ~start:(t0 -. queue_wait) ~duration:queue_wait;
      let method_not_allowed allow =
        error
          ~headers:[ "Allow", allow ]
          405 "Method Not Allowed"
          (Printf.sprintf "%s is not supported on this route" (meth_name meth))
      in
      let response =
        match parse_target target with
        | exception _ -> error 400 "Bad Request" "unparsable target"
        | path, params -> begin
          try
            match path, meth with
            | "/admin/add", Post -> admin_add t params body
            | "/admin/remove", Post -> admin_remove t params
            | "/admin/compact", Post -> admin_compact t
            | ("/admin/add" | "/admin/remove" | "/admin/compact"), Get ->
              method_not_allowed "POST"
            | _, Post -> method_not_allowed "GET"
            | "/", Get | "/index.html", Get -> ok (home_page t)
            | "/search", Get -> search_page t ~deadline target params
            | "/explain", Get -> explain_page t ~deadline params
            | "/complete", Get -> complete_page t params
            | "/stats", Get -> stats_page t params
            | "/metrics", Get -> metrics_page t
            | "/live", Get -> live_status t
            | "/live/search", Get -> live_search_page t ~deadline params
            | "/shards", Get -> shards_status t
            | "/shards/search", Get -> shards_search_page t ~deadline params
            | "/healthz", Get -> health_page ()
            | "/readyz", Get -> ready_page t
            | "/debug/slowlog", Get -> slowlog_page ()
            | "/debug/trace", Get -> trace_page params
            | "/debug/runtime", Get -> runtime_page ()
            | _, Get -> error 404 "Not Found" (Printf.sprintf "no route for %s" path)
          with
          | Faults.Injected (point, _) ->
            overloaded (Printf.sprintf "transient fault at %s" point)
          | e -> error 500 "Internal Server Error" (Printexc.to_string e)
        end
      in
      Log.info "http.access"
        [ "method", Jsonv.Str (meth_name meth);
          "target", Jsonv.Str target;
          "status", Jsonv.Int response.status;
          "seconds", Jsonv.Float (Deadline.now () -. t0) ];
      response)

let handle ?deadline t target = handle_request ?deadline ~meth:Get t target

let cache_stats t = Sharded_lru.stats t.pages

let snippet_cache_stats _ = 0, 0

let degraded_served t = Atomic.get t.degraded_served

(* ------------------------------------------------------------------ *)
(* Transport *)

type config = {
  timeout_ms : int;
  deadline_ms : int option;
  max_header_bytes : int;
  workers : int;
  queue_depth : int;
  max_requests_per_conn : int;
  log : string -> unit;
}

let default_config =
  {
    timeout_ms = 5_000;
    deadline_ms = None;
    max_header_bytes = 32_768;
    workers = 1;
    queue_depth = 64;
    max_requests_per_conn = 100;
    log = (fun msg -> Printf.eprintf "extract-serve: %s\n%!" msg);
  }

(* A dying client must cost us one connection, not the process: without
   this, the kernel answers a write to a closed peer with SIGPIPE and the
   default disposition kills the server. Ignored, the write fails with
   EPIPE, which the per-connection handler logs and drops. The once-guard
   is an Atomic exchange rather than a lazy: forcing a lazy from two
   domains at once raises Lazy.Undefined in one of them. *)
let sigpipe_installed = Atomic.make false

let ensure_sigpipe_ignored () =
  if not (Atomic.exchange sigpipe_installed true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    with Invalid_argument _ | Sys_error _ -> ()

(* Every accepted socket, served or shed, gets TCP_NODELAY: a response
   longer than one write(2) (64 KiB) leaves in several, and under
   Nagle's algorithm its last short segment could wait for the peer's
   ACK of the earlier ones. The read/write timeouts apply only when
   [timeout_ms] is positive. *)
let configure_socket fd timeout_ms =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  if timeout_ms > 0 then begin
    let seconds = float_of_int timeout_ms /. 1000. in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  end

let listen ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a deep kernel backlog: under load-test bursts the accept queue, not
     the kernel's, is the bound we want clients to hit *)
  Unix.listen sock 128;
  sock

let bound_port sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Demo_server.bound_port: not an inet socket"

let max_request_line = 8192

type read_outcome =
  | Line of string
  | Eof
  | Timed_out
  | Too_long
  | Bad_cr

let read_request_line fd =
  (* byte-wise up to the first line terminator; ample for a request line *)
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec loop n =
    if n >= max_request_line then Too_long
    else if Unix.read fd byte 0 1 <> 1 then Eof
    else begin
      match Bytes.get byte 0 with
      | '\n' -> Line (Buffer.contents buf)
      | '\r' ->
        (* CR is only valid as the first half of the CRLF terminator *)
        if Unix.read fd byte 0 1 <> 1 then Eof
        else if Bytes.get byte 0 = '\n' then Line (Buffer.contents buf)
        else Bad_cr
      | c ->
        Buffer.add_char buf c;
        loop (n + 1)
    end
  in
  try loop 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) -> Timed_out
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> Eof

(* Consume the header block up to the blank line, bounded (an unmetered
   sink would hand a hostile client free memoryless work), and while
   draining remember the two headers the transport acts on: [Connection]
   (comma-split, case-insensitive tokens) and [Content-Length]. EOF
   before the blank line still yields the headers seen so far — the
   request is served, but the connection cannot be kept alive. *)
type request_headers = {
  connection : string list; (* lowercased tokens *)
  content_length : int option;
  headers_eof : bool; (* peer closed before finishing the block *)
}

type header_outcome =
  | Headers of request_headers
  | Header_overflow
  | Header_timeout
  | Bad_content_length

let read_headers ~max_bytes fd =
  let byte = Bytes.create 1 in
  let line = Buffer.create 64 in
  let connection = ref [] in
  let content_length = ref None in
  let bad_length = ref false in
  let lowercase_trim s = String.lowercase_ascii (String.trim s) in
  let process_line l =
    match String.index_opt l ':' with
    | None -> ()
    | Some i ->
      let name = lowercase_trim (String.sub l 0 i) in
      let value = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
      (match name with
      | "connection" ->
        connection :=
          !connection @ List.map lowercase_trim (String.split_on_char ',' value)
      | "content-length" -> begin
        match int_of_string_opt value with
        | Some n when n >= 0 -> content_length := Some n
        | Some _ | None -> bad_length := true
      end
      | _ -> ())
  in
  let finish eof =
    if !bad_length then Bad_content_length
    else
      Headers
        {
          connection = !connection;
          content_length = !content_length;
          headers_eof = eof;
        }
  in
  let rec loop consumed =
    if consumed >= max_bytes then Header_overflow
    else if Unix.read fd byte 0 1 <> 1 then finish true
    else
      match Bytes.get byte 0 with
      | '\n' ->
        let l = Buffer.contents line in
        Buffer.clear line;
        if l = "" then finish false
        else begin
          process_line l;
          loop (consumed + 1)
        end
      | '\r' -> loop (consumed + 1) (* CRLF handled at '\n'; bare CR dropped *)
      | c ->
        Buffer.add_char line c;
        loop (consumed + 1)
  in
  try loop 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
    Header_timeout
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> finish true

(* GET carries no useful body, but a client that declared one must have
   it consumed before the next request can be framed on a keep-alive
   connection. Bounded: a declared length past the cap is refused with
   413 instead of being read. *)
let max_body_bytes = 1_048_576

let drain_body ~length fd =
  let chunk = Bytes.create 4096 in
  let rec loop remaining =
    if remaining <= 0 then `Drained
    else
      match Unix.read fd chunk 0 (min remaining (Bytes.length chunk)) with
      | 0 -> `Eof
      | n -> loop (remaining - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
        ->
        `Timeout
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
  in
  loop length

(* POST bodies are captured rather than drained — same bound, same
   timeout discipline. A peer that closes mid-body gets 400, not a
   request served from a silently truncated payload. *)
let read_body ~length fd =
  if length = 0 then `Body ""
  else begin
    let buf = Bytes.create length in
    let rec loop off =
      if off >= length then `Body (Bytes.unsafe_to_string buf)
      else
        match Unix.read fd buf off (length - off) with
        | 0 -> `Eof
        | n -> loop (off + n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
          ->
          `Timeout
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
    in
    loop 0
  end

(* A connection's send buffer: each response's head and body are copied
   into it and leave in one write(2) (up to the Unix library's 64 KiB
   chunk), so the client takes the whole response in one wake-up however
   the two sides are timed; written apart, whether the head alone woke
   the client depended on that timing. The buffer is reused for the
   connection's later responses and grows to its largest one, so a
   page-cache hit allocates no copy of the page. *)
(* domain-local — a connection is served by the one worker that took it *)
type send_buffer = { mutable bytes : Bytes.t }

let send_buffer () = { bytes = Bytes.empty }

(* The response echoes the request's HTTP version (an HTTP/1.0 client
   gets an HTTP/1.0 status line) and always carries Content-Length and
   an explicit Connection header — keep-alive framing depends on both,
   and error responses always say [close]. *)
let write_response ~http11 ~keep_alive out fd r =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) r.headers)
  in
  let head =
    Printf.sprintf
      "%s %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: %s\r\n\r\n"
      (if http11 then "HTTP/1.1" else "HTTP/1.0")
      r.status r.reason r.content_type (String.length r.body) extra
      (if keep_alive then "keep-alive" else "close")
  in
  let head_length = String.length head in
  let length = head_length + String.length r.body in
  if Bytes.length out.bytes < length then out.bytes <- Bytes.create length;
  Bytes.blit_string head 0 out.bytes 0 head_length;
  Bytes.blit_string r.body 0 out.bytes head_length (String.length r.body);
  let rec write_all off =
    if off < length then write_all (off + Unix.write fd out.bytes off (length - off))
  in
  write_all 0

(* One connection, up to [max_requests] requests with HTTP/1.1
   keep-alive. Every request gets a fresh deadline from the config —
   the budget protects a request, not a connection. Errors (≥ 400)
   always close: a client that just sent a malformed request cannot be
   trusted to have framed the rest of the stream correctly. *)
let handle_connection ?(worker = 0) ?(queue_wait = 0.) ~config ~max_requests t fd =
  configure_socket fd config.timeout_ms;
  let out = send_buffer () in
  let requests = worker_requests_total worker in
  let rec loop served =
    let last = served + 1 >= max_requests in
    let finish ~http11 ~may_continue response =
      let keep_alive = may_continue && (not last) && response.status < 400 in
      Registry.incr (response_counter response.status);
      Registry.incr requests;
      if served > 0 then Registry.incr keepalive_reuses_total;
      match write_response ~http11 ~keep_alive out fd response with
      | () -> if keep_alive then loop (served + 1)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        Registry.incr (transport_error_counter "epipe");
        config.log "client went away before the response was written (EPIPE); dropped"
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPROTOTYPE), _, _) ->
        Registry.incr (transport_error_counter "reset");
        config.log "connection reset by peer while writing response; dropped"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
        ->
        Registry.incr (transport_error_counter "write_timeout");
        config.log "response write timed out (slow reader); dropped"
    in
    match read_request_line fd with
    (* between keep-alive requests, a vanished or idle peer is normal
       connection end, not an error worth a response *)
    | Eof when served > 0 -> ()
    | Timed_out when served > 0 -> ()
    | Eof -> finish ~http11:false ~may_continue:false (error 400 "Bad Request" "empty request")
    | Timed_out ->
      finish ~http11:false ~may_continue:false
        (error 408 "Request Timeout" "no request line within the read timeout")
    | Too_long ->
      finish ~http11:false ~may_continue:false
        (error 400 "Bad Request"
           (Printf.sprintf "request line longer than %d bytes" max_request_line))
    | Bad_cr ->
      finish ~http11:false ~may_continue:false
        (error 400 "Bad Request" "bare CR in request line")
    | Line line -> begin
      match String.split_on_char ' ' line with
      | (("GET" | "POST") as meth_str) :: target :: rest -> begin
        let meth = if meth_str = "POST" then Post else Get in
        let http11 = List.mem "HTTP/1.1" rest in
        match read_headers ~max_bytes:config.max_header_bytes fd with
        | Header_overflow ->
          finish ~http11 ~may_continue:false
            (error 431 "Request Header Fields Too Large"
               (Printf.sprintf "headers longer than %d bytes" config.max_header_bytes))
        | Header_timeout ->
          finish ~http11 ~may_continue:false
            (error 408 "Request Timeout" "headers not finished within the read timeout")
        | Bad_content_length ->
          finish ~http11 ~may_continue:false
            (error 400 "Bad Request" "invalid Content-Length")
        | Headers h -> begin
          let wants_keepalive =
            if List.mem "close" h.connection then false
            else if List.mem "keep-alive" h.connection then true
            else http11 (* HTTP/1.1 defaults to persistent connections *)
          in
          let body =
            match h.content_length with
            | None | Some 0 -> `Body ""
            | Some n when n > max_body_bytes -> `Too_big
            | Some n ->
              if meth = Post then read_body ~length:n fd
              else begin
                (* a GET body is dead weight: consume it for keep-alive
                   framing, never hand it to the routes *)
                match drain_body ~length:n fd with
                | `Drained -> `Body ""
                | (`Eof | `Timeout) as r -> r
              end
          in
          match body with
          | `Too_big ->
            finish ~http11 ~may_continue:false
              (error 413 "Payload Too Large"
                 (Printf.sprintf "request body longer than %d bytes" max_body_bytes))
          | `Timeout ->
            finish ~http11 ~may_continue:false
              (error 408 "Request Timeout"
                 "request body not finished within the read timeout")
          | `Eof when meth = Post ->
            finish ~http11 ~may_continue:false
              (error 400 "Bad Request" "request body truncated (peer closed mid-body)")
          | (`Eof | `Body _) as b ->
            (* the budget clock starts once the request is fully read *)
            let body = match b with `Body s -> s | `Eof -> "" in
            let may_continue =
              wants_keepalive && (not h.headers_eof)
              && (match b with `Body _ -> true | `Eof -> false)
            in
            finish ~http11 ~may_continue
              (handle_request
                 ~deadline:(Deadline.of_ms_opt config.deadline_ms)
                 ~meth ~body
                 (* the queue wait belongs to the first request only: a
                    keep-alive reuse never sat in the accept queue *)
                 ~queue_wait:(if served = 0 then queue_wait else 0.)
                 t target)
        end
      end
      | _ ->
        finish ~http11:false ~may_continue:false
          (error 400 "Bad Request" (Printf.sprintf "unsupported request %S" line))
    end
  in
  loop 0

let serve_once ?(config = default_config) t listening =
  ensure_sigpipe_ignored ();
  mark_ready t;
  let fd, _ = Unix.accept listening in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> handle_connection ~config ~max_requests:1 t fd)

(* ------------------------------------------------------------------ *)
(* Domain pool: one acceptor domain feeds a bounded queue of accepted
   connections; a fixed pool of worker domains drains it, each running
   the full keep-alive request loop. When the queue is full the
   acceptor answers 503 + Retry-After itself — cheap, immediate
   backpressure instead of unbounded queueing. *)

type conn_queue = {
  lock : Mutex.t;
  nonempty : Condition.t;
  items : (Unix.file_descr * float) Queue.t; (* guarded-by: lock — fd, enqueue time *)
  depth : int;
  mutable peak : int; (* guarded-by: lock — deepest occupancy seen *)
  mutable closed : bool; (* guarded-by: lock *)
}

let queue_create depth =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    depth;
    peak = 0;
    closed = false;
  }

let queue_try_push q fd =
  Mutex.lock q.lock;
  let accepted = (not q.closed) && Queue.length q.items < q.depth in
  if accepted then begin
    Queue.add (fd, Deadline.now ()) q.items;
    let len = Queue.length q.items in
    Registry.set accept_queue_depth (float_of_int len);
    if len > q.peak then begin
      q.peak <- len;
      Registry.set accept_queue_depth_peak (float_of_int len)
    end;
    Condition.signal q.nonempty
  end;
  Mutex.unlock q.lock;
  accepted

let queue_stat q =
  Mutex.lock q.lock;
  let s = Queue.length q.items, q.depth in
  Mutex.unlock q.lock;
  s

(* blocks until an item or close; after close, drains remaining items
   so no accepted connection is leaked. Returns the fd and how long it
   sat in the queue — the saturation signal exported as the
   queue-wait histogram and span. *)
let queue_pop q =
  Mutex.lock q.lock;
  let rec wait () =
    if not (Queue.is_empty q.items) then begin
      let fd, enqueued = Queue.take q.items in
      Registry.set accept_queue_depth (float_of_int (Queue.length q.items));
      Some (fd, Float.max 0. (Deadline.now () -. enqueued))
    end
    else if q.closed then None
    else begin
      Condition.wait q.nonempty q.lock;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock q.lock;
  r

let queue_close q =
  Mutex.lock q.lock;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.lock

type pool = {
  pool_listening : Unix.file_descr;
  pool_queue : conn_queue;
  acceptor : unit Domain.t;
  pool_workers : unit Domain.t list;
  stopping : bool Atomic.t;
}

let acceptor_loop ~config queue stopping listening =
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let rec loop () =
    match Unix.accept listening with
    | fd, _ ->
      if Atomic.get stopping then close_quietly fd (* the stop poke; exit *)
      else if queue_try_push queue fd then loop ()
      else begin
        (* queue full: shed on the acceptor itself so the client hears
           503 now rather than waiting behind everyone else *)
        Registry.incr accept_queue_shed_total;
        configure_socket fd config.timeout_ms;
        let r = overloaded "accept queue full" in
        Registry.incr (response_counter r.status);
        (try write_response ~http11:false ~keep_alive:false (send_buffer ()) fd r
         with Unix.Unix_error _ -> ());
        close_quietly fd;
        loop ()
      end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Atomic.get stopping then () else loop ()
    | exception Unix.Unix_error (e, fn, _) ->
      config.log
        (Printf.sprintf "accept failed: %s in %s" (Unix.error_message e) fn);
      if Atomic.get stopping then () else loop ()
  in
  loop ()

let worker_loop ~config queue t w =
  let connections = worker_connections_total w in
  let rec loop () =
    match queue_pop queue with
    | None -> ()
    | Some (fd, waited) ->
      Registry.incr connections;
      Registry.observe queue_wait_seconds waited;
      (* nothing a single connection does may stop a worker *)
      (match
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             handle_connection ~worker:w ~queue_wait:waited ~config
               ~max_requests:config.max_requests_per_conn t fd)
       with
      | () -> ()
      | exception Unix.Unix_error (e, fn, _) ->
        config.log
          (Printf.sprintf "connection dropped: %s in %s" (Unix.error_message e) fn)
      | exception e ->
        config.log
          (Printf.sprintf "connection handler failed: %s" (Printexc.to_string e)));
      loop ()
  in
  loop ()

(* The runtime's cap on live domains; a spawn past it fails. OCaml 5.1
   fixes it when the compiler is built (Max_domains in caml/domain.h: 128
   on 64-bit builds, 16 on 32-bit ones). Newer runtimes may let
   OCAMLRUNPARAM change it, and 5.1's standard library has no call that
   reads it, so this is the 5.1 value: under another cap the check can
   refuse a pool the runtime would run, or pass one whose spawns fail. *)
let max_domains = if Sys.word_size = 64 then 128 else 16

let check_domain_budget ~workers =
  (* the main domain, the acceptor and the workers *)
  if workers > max_domains - 2 then
    invalid_arg
      (Printf.sprintf "%d worker(s) need 2 + %d domains; OCaml runs at most %d" workers
         workers max_domains)

let start_pool ?(config = default_config) t listening =
  let workers = max 1 config.workers in
  check_domain_budget ~workers;
  ensure_sigpipe_ignored ();
  let queue = queue_create (max 1 config.queue_depth) in
  let stopping = Atomic.make false in
  let acceptor =
    Domain.spawn (fun () -> acceptor_loop ~config queue stopping listening)
  in
  let pool_workers =
    List.init workers (fun w -> Domain.spawn (fun () -> worker_loop ~config queue t w))
  in
  (* the pool is accepting: flip the readiness latch and expose the
     queue's saturation state to /readyz *)
  Atomic.set t.queue_probe (Some (fun () -> queue_stat queue));
  mark_ready t;
  { pool_listening = listening; pool_queue = queue; acceptor; pool_workers; stopping }

let stop_pool pool =
  Atomic.set pool.stopping true;
  queue_close pool.pool_queue;
  (* wake the acceptor parked in accept(2): closing the listening fd
     from another domain is not reliably observed, so poke it with a
     loopback connection instead — it sees [stopping] and exits *)
  (try
     let port = bound_port pool.pool_listening in
     let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      with Unix.Unix_error _ -> ());
     try Unix.close s with Unix.Unix_error _ -> ()
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  Domain.join pool.acceptor;
  List.iter Domain.join pool.pool_workers

(* On SIGTERM, the serving loop's last act is dumping the slowlog to
   stderr: when an operator (or an orchestrator) stops a misbehaving
   server, the worst and the degraded queries survive in the shutdown
   log even if nobody thought to curl /debug/slowlog first. *)
let install_sigterm_dump config =
  try
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle
         (fun _ ->
           config.log "SIGTERM: slow-query log follows";
           output_string stderr (Slowlog.render_json ());
           output_char stderr '\n';
           flush stderr;
           exit 0))
  with Invalid_argument _ | Sys_error _ -> ()

let serve ?(config = default_config) t ~port =
  ensure_sigpipe_ignored ();
  install_sigterm_dump config;
  (* background GC/subsystem sampler feeding /metrics and /debug/runtime *)
  Runtime.start ();
  let sock = listen ~port in
  let _pool = start_pool ~config t sock in
  let workers = max 1 config.workers in
  Printf.printf "eXtract demo server on http://127.0.0.1:%d/ (%d worker%s)\n%!"
    (bound_port sock) workers
    (if workers = 1 then "" else "s");
  (* the main domain parks instead of joining: it must stay interruptible
     so the SIGTERM handler above still runs and dumps the slowlog *)
  while true do
    try Unix.sleepf 3600. with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
