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
(* Server metrics: cache behaviour and shed load. Pipeline-level series
   (stage latencies, degraded snippets, posting resolution) are recorded
   by the libraries themselves, transport and pool series by [Http] and
   [Pool]; /metrics renders the whole registry. *)

let page_hits_total =
  Registry.counter ~help:"Cache hits" ~labels:[ "cache", "page" ]
    "extract_cache_hits_total"

let page_misses_total =
  Registry.counter ~help:"Cache misses" ~labels:[ "cache", "page" ]
    "extract_cache_misses_total"

let shed_total =
  Registry.counter ~help:"Requests shed with 503 because the budget was spent up front"
    "extract_requests_shed_total"

let admin_updates_total op =
  Registry.counter ~help:"Live-store updates applied via /admin, by operation"
    ~labels:[ "op", op ] "extract_admin_updates_total"

let () = List.iter (fun op -> ignore (admin_updates_total op)) [ "add"; "remove"; "compact" ]

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

type response = Http.response = {
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

let error = Http.error

(* load shedding: the budget is already gone, so decline the expensive
   work up front instead of producing an all-degraded page *)
let overloaded = Http.overloaded

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

type meth = Http.meth = Get | Post

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
(* Serving: the transport is [Http], the domain pool [Pool]; the server
   hands them [handle_request] with the request's deadline. *)

type config = Http.config = {
  timeout_ms : int;
  deadline_ms : int option;
  max_header_bytes : int;
  workers : int;
  queue_depth : int;
  max_requests_per_conn : int;
  log : string -> unit;
}

let default_config = Http.default_config

let listen = Http.listen

let bound_port = Http.bound_port

(* the budget clock starts once the request is fully read *)
let handler config t ~meth ~body ~queue_wait target =
  handle_request ~deadline:(Deadline.of_ms_opt config.deadline_ms) ~meth ~body ~queue_wait t
    target

let serve_once ?(config = default_config) t listening =
  mark_ready t;
  Pool.serve_once ~config (handler config t) listening

type pool = Pool.t

let check_domain_budget = Pool.check_domain_budget

let start_pool ?(config = default_config) t listening =
  let pool = Pool.start ~config (handler config t) listening in
  (* the pool is accepting: flip the readiness latch and expose the
     queue's saturation state to /readyz *)
  Atomic.set t.queue_probe (Some (fun () -> Pool.queue_stat pool));
  mark_ready t;
  pool

let stop_pool = Pool.stop

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
