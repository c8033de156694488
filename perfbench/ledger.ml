(* The traced run's ledger. The benchmark's own code wraps each public
   call a route makes in a span; a span adds its wall time and its
   minor-heap allocation to its layer. Each request is a root span whose
   children are its layer spans (they share the request's number).
   Spans stay in memory and are written out as one TSV file when the run
   ends. *)

type layer =
  | Eval_ctx (* Query.of_string + Eval_ctx.make *)
  | Engine (* Engine.run_ctx *)
  | Feature (* Feature.analyze *)
  | Ilist (* Ilist.build *)
  | Selector (* Selector.greedy *)
  | Html_view (* Html_view.result_page *)
  | Shard (* Pipeline.run_ranked on one shard *)
  | Merge (* Engine.merge_scored *)
  | Live_run (* Live_corpus.run *)
  | Live_add (* Live_corpus.add *)
  | Live_compact (* Live_corpus.compact *)
  | Demo_server (* Demo_server.handle_request, in process *)
  | Request (* the whole traced request: the root of its layer spans *)

let all =
  [ Eval_ctx; Engine; Feature; Ilist; Selector; Html_view; Shard; Merge; Live_run; Live_add;
    Live_compact; Demo_server; Request ]

let index = function
  | Eval_ctx -> 0
  | Engine -> 1
  | Feature -> 2
  | Ilist -> 3
  | Selector -> 4
  | Html_view -> 5
  | Shard -> 6
  | Merge -> 7
  | Live_run -> 8
  | Live_add -> 9
  | Live_compact -> 10
  | Demo_server -> 11
  | Request -> 12

let name = function
  | Eval_ctx -> "eval_ctx"
  | Engine -> "engine"
  | Feature -> "feature"
  | Ilist -> "ilist"
  | Selector -> "selector"
  | Html_view -> "html_view"
  | Shard -> "shard"
  | Merge -> "merge"
  | Live_run -> "live_corpus.run"
  | Live_add -> "live_corpus.add"
  | Live_compact -> "live_corpus.compact"
  | Demo_server -> "demo_server"
  | Request -> "request"

let layer_count = List.length all

type span = {
  request : int;
  layer : layer;
  start : float; (* seconds since the ledger was created *)
  seconds : float;
  words : float; (* minor words allocated inside the span *)
}

(* domain-local — one ledger per traced replay, used by the main domain only *)
type t = {
  busy : float array; (* seconds per layer, whole replay *)
  words : float array;
  calls : int array;
  current : float array; (* seconds per layer, current request *)
  mutable slowest_shard : float; (* longest Shard span of the current request *)
  mutable request : int;
  mutable log : span list;
  origin : float;
}

let create () =
  {
    busy = Array.make layer_count 0.;
    words = Array.make layer_count 0.;
    calls = Array.make layer_count 0;
    current = Array.make layer_count 0.;
    slowest_shard = 0.;
    request = 0;
    log = [];
    origin = Common.now ();
  }

let begin_request t i =
  t.request <- i;
  Array.fill t.current 0 layer_count 0.;
  t.slowest_shard <- 0.

let span t layer f =
  let w0 = Gc.minor_words () in
  let t0 = Common.now () in
  let x = f () in
  let t1 = Common.now () in
  let w1 = Gc.minor_words () in
  let i = index layer in
  let seconds = t1 -. t0 and words = w1 -. w0 in
  t.busy.(i) <- t.busy.(i) +. seconds;
  t.words.(i) <- t.words.(i) +. words;
  t.calls.(i) <- t.calls.(i) + 1;
  t.current.(i) <- t.current.(i) +. seconds;
  (match layer with
  | Shard -> t.slowest_shard <- Float.max t.slowest_shard seconds
  | _ -> ());
  t.log <- { request = t.request; layer; start = t0 -. t.origin; seconds; words } :: t.log;
  x

(* Close the current request's root span. *)
let end_request t ~start ~seconds =
  let root = { request = t.request; layer = Request; start = start -. t.origin; seconds; words = 0. } in
  t.log <- root :: t.log

(* Seconds the current request spent in [layer]. *)
let current t layer = t.current.(index layer)

let slowest_shard t = t.slowest_shard

let total_seconds t layer = t.busy.(index layer)

let calls t layer = t.calls.(index layer)

(* Per-request means over [requests] requests. *)
let busy_ms t layer ~requests = t.busy.(index layer) /. float_of_int (max 1 requests) *. 1000.

let minor_kw t layer ~requests = t.words.(index layer) /. float_of_int (max 1 requests) /. 1000.

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "request\tspan\tparent\tstart_us\tduration_us\tminor_words\n";
      List.iter
        (fun (s : span) ->
          let parent = match s.layer with Request -> "-" | _ -> "request" in
          Printf.fprintf oc "%d\t%s\t%s\t%.3f\t%.3f\t%.0f\n" s.request (name s.layer) parent
            (s.start *. 1e6) (s.seconds *. 1e6) s.words)
        (List.rev t.log))
