(* live-write: a live-store directory holding the default corpus as one
   member per retailer (a compacted base plus an uncompacted journal
   tail), served in process. One caller reads /live/search; one request
   in ten is a POST /admin/add replacing one of four members; every 300th
   is a POST /admin/compact. Writes are acknowledged after the journal's
   fsync, as shipped. *)

module Document = Extract_store.Document
module Dataguide = Extract_store.Dataguide
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Inverted_index = Extract_store.Inverted_index
module Live = Extract_store.Live
module Pipeline = Extract_snippet.Pipeline
module Corpus = Extract_snippet.Corpus
module Live_corpus = Extract_snippet.Live_corpus
module Html_view = Extract_snippet.Html_view
module Demo_server = Extract_server.Demo_server
module Result_tree = Extract_search.Result_tree

open Common

let replaced = 4 (* members the writes replace: retailer-00 .. retailer-03 *)

let bodies = 16 (* replacement documents to choose from *)

let write_every = 10

let compact_every = 300

let tail_adds = 4 (* journalled adds left uncompacted in the prepared store *)

(* requests per second of --seconds: a fixed count, not a duration;
   never fewer than 1200, so that p99 has 1000 reads under it *)
let requests_per_second = 850

let min_requests = 1200

let limit = 25

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

type inputs = {
  base_dir : string; (* the prepared store; every start opens a copy *)
  bodies : string array;
  sequence : Mix.live_op array;
  expected : string list option array; (* member names of the hits, at compaction points *)
  members : int;
  nodes : int;
  distinct_queries : int;
  probe : string;
}

let combined_xml members =
  "<corpus>" ^ String.concat "" (List.map snd members) ^ "</corpus>"

(* The flat reference for the visible members: one Pipeline.build over
   the same documents under one root; each result is named after the
   member whose subtree holds it (a result at the root is no member's). *)
let flat_names members =
  let flat = Pipeline.build (Document.load_string (combined_xml members)) in
  let doc = Pipeline.document flat in
  let roots =
    Document.children doc (Document.root doc) |> List.filter (Document.is_element doc)
  in
  let named = List.combine (List.map fst members) roots in
  fun query ->
    Pipeline.search flat query
    |> List.filter_map (fun r ->
           let root = Result_tree.root r in
           List.find_opt
             (fun (_, m) -> m <= root && root <= Document.subtree_last doc m)
             named
           |> Option.map fst)
    |> List.sort String.compare

let replace members name xml =
  List.filter (fun (n, _) -> not (String.equal n name)) members @ [ name, xml ]

let prepare ~seed ~seconds ~work =
  let corpus = Mix.retail_default () in
  let members =
    List.mapi (fun i e -> Mix.member_name i, Mix.element_xml e) (Mix.retailer_elements corpus)
  in
  let bodies = Mix.replacement_documents ~count:bodies in
  (* the prepared store: every member added, compacted, then a tail *)
  let base_dir = Filename.concat work "live.base" in
  let store = Live.open_dir base_dir in
  List.iter (fun (name, xml) -> Live.add store ~name ~xml) members;
  ignore (Live.compact store);
  let members =
    List.fold_left
      (fun members w ->
        let name, body = Mix.nth_add ~replaced ~bodies:(Array.length bodies) w in
        Live.add store ~name ~xml:bodies.(body);
        replace members name bodies.(body))
      members (List.init tail_adds Fun.id)
  in
  Live.close store;
  let whole = Pipeline.build (Document.of_document corpus) in
  let queries = Mix.query_pool (Pipeline.kinds whole) in
  let sequence =
    Mix.live_sequence (Mix.stream ~seed 4) queries
      ~count:(max min_requests (requests_per_second * seconds))
      ~write_every ~compact_every ~replaced ~bodies:(Array.length bodies) ~adds_before:tail_adds
  in
  (* expected answers for the reads served at each compaction point:
     after a compaction and before the next write *)
  let expected = Array.make (Array.length sequence) None in
  let _ =
    Array.fold_left
      (fun (i, members, names) op ->
        match op with
        | Mix.Add { name; body } -> i + 1, replace members name bodies.(body), None
        | Mix.Compact -> i + 1, members, Some (flat_names members)
        | Mix.Read r ->
          Option.iter (fun names -> expected.(i) <- Some (names r.Mix.query)) names;
          i + 1, members, names)
      (0, members, None) sequence
  in
  {
    base_dir;
    bodies;
    sequence;
    expected;
    members = List.length members;
    nodes = Document.node_count (Pipeline.document whole);
    distinct_queries = Array.length queries;
    probe =
      Mix.live_target (Mix.probe queries ~results:(fun q -> List.length (Pipeline.search whole q)));
  }

(* ------------------------------------------------------------------ *)
(* Stores and cold starts                                              *)

type opened = {
  dir : string;
  live : Live_corpus.t;
  server : Demo_server.t;
}

let copy_counter = ref 0 (* domain-local — fresh-copy names, main domain only *)

let fresh_copy inputs ~work =
  incr copy_counter;
  let dir = Filename.concat work (Printf.sprintf "live.%03d" !copy_counter) in
  copy_dir inputs.base_dir dir;
  dir

let discard o =
  Live_corpus.close o.live;
  remove_tree o.dir

let open_store dir =
  let live = Live_corpus.open_dir dir in
  let server = Demo_server.create ~live Corpus.empty in
  Demo_server.mark_ready server;
  { dir; live; server }

(* Store directory on disk -> recovery with journal replay, analysis ->
   first /live/search answered. *)
let cold_start inputs ~work =
  let dir = fresh_copy inputs ~work in
  let t0 = now () in
  let o = open_store dir in
  let t1 = now () in
  let resp = Demo_server.handle_request o.server inputs.probe in
  let t2 = now () in
  o, t2 -. t0, t2 -. t1, resp.Demo_server.status = 200

(* Recovery alone, then the analysis of the recovered base, timed from
   outside on a copy of their own. *)
let startup_layers inputs ~work =
  let dir = fresh_copy inputs ~work in
  let store, recover = timed (fun () -> Live.open_dir dir) in
  let replayed = Live.pending_updates store in
  let guide, g = timed (fun () -> Dataguide.build (Live.view store).Live.doc) in
  let kinds, c = timed (fun () -> Node_kind.classify guide) in
  let _, m = timed (fun () -> Key_miner.mine kinds) in
  Live.close store;
  remove_tree dir;
  [| recover; float_of_int replayed; g; c; m |]

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)

let names_of_hits hits =
  List.map (fun (h : Live_corpus.hit) -> h.Live_corpus.source) hits |> List.sort String.compare

type replay = {
  times : float array; (* per operation *)
  reads : float list;
  adds : float list;
  pages : Digest.t option array; (* digest of every read's page *)
  failed : int;
  check_words : float; (* minor words the off-clock checks allocated *)
}

(* The untraced replay through Demo_server.handle_request. Reads served
   at a compaction point are checked off the clock against the flat
   reference (member names of all hits). *)
let replay inputs o =
  let n = Array.length inputs.sequence in
  let times = Array.make n 0. and pages = Array.make n None in
  let reads = ref [] and adds = ref [] and failed = ref 0 and check_words = ref 0. in
  Array.iteri
    (fun i op ->
      let target, meth, body =
        match op with
        | Mix.Read r -> Mix.live_target r, Demo_server.Get, ""
        | Mix.Add { name; body } -> "/admin/add?name=" ^ name, Demo_server.Post, inputs.bodies.(body)
        | Mix.Compact -> "/admin/compact", Demo_server.Post, ""
      in
      let t0 = now () in
      let resp = Demo_server.handle_request ~meth ~body o.server target in
      let dt = now () -. t0 in
      times.(i) <- dt;
      if resp.Demo_server.status <> 200 then incr failed;
      match op, inputs.expected.(i) with
      | Mix.Read _, None ->
        reads := dt :: !reads;
        pages.(i) <- Some (Digest.string resp.Demo_server.body)
      | Mix.Read r, Some names ->
        reads := dt :: !reads;
        pages.(i) <- Some (Digest.string resp.Demo_server.body);
        let w0 = Gc.minor_words () in
        let live_names = names_of_hits (Live_corpus.run ~bound:r.Mix.bound o.live r.Mix.query) in
        if not (List.equal String.equal names live_names) then incr failed;
        check_words := !check_words +. (Gc.minor_words () -. w0)
      | Mix.Add _, _ -> adds := dt :: !adds
      | Mix.Compact, _ -> ())
    inputs.sequence;
  { times; reads = !reads; adds = !adds; pages; failed = !failed; check_words = !check_words }

(* Results Live_corpus.run snippets for [query]: every base result under
   the visibility mask and every delta result, before the member filter
   and the limit. Counted with analyzed copies of the same arenas. *)
let snippet_counter () =
  let base = ref None and deltas = ref [] in
  fun (view : Live.view) query ->
    let base_db =
      match !base with
      | Some (doc, db) when doc == view.Live.doc -> db
      | Some _ | None ->
        let db = Pipeline.of_parts view.Live.doc view.Live.index in
        base := Some (view.Live.doc, db);
        db
    in
    let delta_db (d : Live.delta) =
      match List.assq_opt d.Live.delta_doc !deltas with
      | Some db -> db
      | None ->
        let db = Pipeline.of_parts d.Live.delta_doc d.Live.delta_index in
        deltas := (d.Live.delta_doc, db) :: !deltas;
        db
    in
    let mask = Live.mask view in
    (if Array.length mask = 0 then 0
     else List.length (Pipeline.search ~mask base_db query))
    + List.fold_left
        (fun acc (_, d) -> acc + List.length (Pipeline.search (delta_db d) query))
        0 view.Live.deltas

type side = {
  snippeted : int; (* results the reads snippeted, all reads *)
  parse_index : float array; (* per operation: seconds, adds only *)
  analysis : float array;
}

(* What the spans cannot time, measured in a pass of its own on its own
   copy so that its allocation stays out of the traced replay: the
   results each read snippets, and each add's parse + index and analysis
   repeated from outside on the same body. *)
let side_pass inputs ~work =
  let o = open_store (fresh_copy inputs ~work) in
  let store = Live_corpus.store o.live in
  let count = snippet_counter () in
  let n = Array.length inputs.sequence in
  let parse_index = Array.make n 0. and analysis = Array.make n 0. in
  let snippeted = ref 0 in
  Array.iteri
    (fun i op ->
      match op with
      | Mix.Read r -> snippeted := !snippeted + count (Live.view store) r.Mix.query
      | Mix.Add { name; body } ->
        let xml = inputs.bodies.(body) in
        let t0 = now () in
        let doc = Document.load_string xml in
        let index = Inverted_index.build doc in
        let t1 = now () in
        ignore (Pipeline.of_parts doc index);
        let t2 = now () in
        parse_index.(i) <- t1 -. t0;
        analysis.(i) <- t2 -. t1;
        Live_corpus.add o.live ~name ~xml
      | Mix.Compact -> ignore (Live_corpus.compact o.live))
    inputs.sequence;
  discard o;
  { snippeted = !snippeted; parse_index; analysis }

type counts = {
  mutable deltas : int;
  mutable returned : int;
  mutable bytes : int;
  mutable journal_bytes : int;
  mutable compact_bytes : int;
}

(* The traced replay on a fresh copy: Live_corpus.run + the render for
   reads, Live_corpus.add and Live_corpus.compact for writes. *)
let traced_replay inputs o ledger counts ~untraced_pages =
  let n = Array.length inputs.sequence in
  let wall = Array.make n 0. and spans = Array.make n 0. in
  let failed = ref 0 in
  let store = Live_corpus.store o.live in
  let journal = Live.journal_path o.dir in
  Array.iteri
    (fun i op ->
      Ledger.begin_request ledger i;
      match op with
      | Mix.Read r ->
        let t0 = now () in
        let hits =
          Ledger.span ledger Ledger.Live_run (fun () ->
              Live_corpus.run ~bound:r.Mix.bound ~limit o.live r.Mix.query)
        in
        let body =
          Ledger.span ledger Ledger.Html_view (fun () ->
              Html_view.result_page
                ~title:
                  (Printf.sprintf "eXtract — live (generation %d)" (Live_corpus.generation o.live))
                ~query:r.Mix.query ~bound:r.Mix.bound
                (List.map (fun (h : Live_corpus.hit) -> h.Live_corpus.snippet) hits))
        in
        wall.(i) <- now () -. t0;
        Ledger.end_request ledger ~start:t0 ~seconds:wall.(i);
        spans.(i) <- Ledger.current ledger Ledger.Live_run +. Ledger.current ledger Ledger.Html_view;
        (match untraced_pages.(i) with
        | Some d when Digest.equal d (Digest.string body) -> ()
        | Some _ | None -> incr failed);
        counts.deltas <- counts.deltas + List.length (Live.view store).Live.deltas;
        counts.returned <- counts.returned + List.length hits;
        counts.bytes <- counts.bytes + String.length body
      | Mix.Add { name; body } ->
        let xml = inputs.bodies.(body) in
        let before = file_size journal in
        let t0 = now () in
        Ledger.span ledger Ledger.Live_add (fun () -> Live_corpus.add o.live ~name ~xml);
        wall.(i) <- now () -. t0;
        Ledger.end_request ledger ~start:t0 ~seconds:wall.(i);
        spans.(i) <- Ledger.current ledger Ledger.Live_add;
        counts.journal_bytes <- counts.journal_bytes + (file_size journal - before)
      | Mix.Compact ->
        let t0 = now () in
        let generation =
          Ledger.span ledger Ledger.Live_compact (fun () -> Live_corpus.compact o.live)
        in
        wall.(i) <- now () -. t0;
        Ledger.end_request ledger ~start:t0 ~seconds:wall.(i);
        spans.(i) <- Ledger.current ledger Ledger.Live_compact;
        counts.compact_bytes <- counts.compact_bytes + file_size (Live.snapshot_path o.dir generation))
    inputs.sequence;
  wall, spans, !failed

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

(* One slice of the untraced run, in a process of its own: the store
   directory carries the state from one slice to the next, each
   process recovering it on open (untimed). *)
type plan = {
  part_inputs : inputs; (* sequence and expected answers cut to the slice *)
  dir : string;
}

let part plan =
  let o = open_store plan.dir in
  let probe = Demo_server.handle_request o.server plan.part_inputs.probe in
  let probe_ok = probe.Demo_server.status = 200 in
  settle ();
  let r = replay plan.part_inputs o in
  let heap_mb = live_heap_mb () in
  Live_corpus.close o.live;
  {
    latencies = Array.of_list (List.rev r.reads);
    failed = r.failed + (if probe_ok then 0 else 1);
    wall = sum r.times;
    heap_mb;
  }

let run ~seed ~seconds ~trace ~work ~spans_path =
  let inputs = prepare ~seed ~seconds ~work in
  let layers = ref [] in
  let start () =
    if trace then layers := startup_layers inputs ~work :: !layers;
    cold_start inputs ~work
  in
  let starts = cold_starts ~count:(if trace then starts_per_run else starts_before) ~discard start in
  let failed = ref starts.wrong in
  let o = starts.last in
  let n = Array.length inputs.sequence in
  let count p = Array.fold_left (fun acc op -> if p op then acc + 1 else acc) 0 inputs.sequence in
  let n_reads = count (function Mix.Read _ -> true | Mix.Add _ | Mix.Compact -> false) in
  let n_adds = count (function Mix.Add _ -> true | Mix.Read _ | Mix.Compact -> false) in
  let n_compacts = n - n_reads - n_adds in
  let checked =
    Array.fold_left (fun acc e -> if Option.is_some e then acc + 1 else acc) 0 inputs.expected
  in
  let attempted = n + starts_per_run in
  let info =
    [ "route", json_string "/live/search, POST /admin/add, POST /admin/compact";
      "members", json_int inputs.members;
      "nodes", json_int inputs.nodes;
      "distinct_queries", json_int inputs.distinct_queries;
      "requests", json_int n;
      "reads", json_int n_reads;
      "adds", json_int n_adds;
      "compactions", json_int n_compacts;
      "write_ratio", json_number (float_of_int (n_adds + n_compacts) /. float_of_int n);
      "reads_checked", json_int checked;
      "pinned", json_bool false ]
  in
  if not trace then begin
    (* the last cold start's copy is where the slices continue *)
    Live_corpus.close o.live;
    let reports, later_setups, later_wrong =
      run_parts ~workload:"live-write" ~work
        ~between:(fun () -> discarded_starts ~count:starts_between ~discard start)
        (fun k ->
          {
            part_inputs =
              { inputs with sequence = slice inputs.sequence k; expected = slice inputs.expected k };
            dir = o.dir;
          })
    in
    let reads, part_failed, wall, heap = pool reports in
    remove_tree o.dir;
    {
      attempted = attempted + parts;
      failed = !failed + part_failed + later_wrong;
      metrics =
        end_to_end_metrics ~setups:(Array.append starts.setups later_setups) ~reads ~requests:n
          ~wall ~heap;
      info = info @ [ "processes", json_int parts ];
    }
  end
  else begin
    settle ();
    let gc0 = gc_mark () in
    let r = replay inputs o in
    let gc1 = gc_mark () in
    failed := !failed + r.failed;
    discard o;
    let adds = Array.of_list r.adds in
    require_tail ~what:"update_p90_ms" ~p:0.9 (Array.length adds);
    let sorted_adds = sorted adds in
    let side = side_pass inputs ~work in
    (* the traced replay starts from the same prepared state *)
    let t = open_store (fresh_copy inputs ~work) in
    let ledger = Ledger.create () in
    let counts = { deltas = 0; returned = 0; bytes = 0; journal_bytes = 0; compact_bytes = 0 } in
    settle ();
    let wall, spans, traced_failed = traced_replay inputs t ledger counts ~untraced_pages:r.pages in
    discard t;
    Ledger.write ledger spans_path;
    failed := !failed + traced_failed;
    let untraced = mean r.times in
    let per_read x = x /. float_of_int (max 1 n_reads) in
    let per_add x = x /. float_of_int (max 1 n_adds) in
    let parse_index = sum side.parse_index and analysis = sum side.analysis in
    let startup i = median (Array.of_list (List.map (fun a -> a.(i)) !layers)) in
    let gc1 = { gc1 with minor_words = gc1.minor_words -. r.check_words } in
    let metrics =
      [ metric "demo_server.self_us" "us"
          (median (Array.mapi (fun i t -> t -. spans.(i)) r.times) *. 1e6);
        metric "html_view.busy_ms" "ms" (Ledger.busy_ms ledger Ledger.Html_view ~requests:n_reads);
        metric "html_view.bytes" "B" (per_read (float_of_int counts.bytes));
        metric "html_view.minor_kw" "kw" (Ledger.minor_kw ledger Ledger.Html_view ~requests:n_reads);
        metric "live_corpus.run_ms" "ms" (Ledger.busy_ms ledger Ledger.Live_run ~requests:n_reads);
        metric "live_corpus.deltas" "count" (per_read (float_of_int counts.deltas));
        metric "live_corpus.useful_ratio" "ratio"
          (ratio (float_of_int counts.returned) (float_of_int side.snippeted));
        metric "live.parse_index_ms" "ms" (per_add parse_index *. 1000.);
        metric "live.analysis_ms" "ms" (per_add analysis *. 1000.);
        (* the add's span less the two parts repeated from outside *)
        metric "live.journal_ms" "ms"
          (per_add (Ledger.total_seconds ledger Ledger.Live_add -. parse_index -. analysis) *. 1000.);
        metric "journal.bytes" "B" (per_add (float_of_int counts.journal_bytes));
        metric "live.compact_ms" "ms" (Ledger.busy_ms ledger Ledger.Live_compact ~requests:n_compacts);
        metric "live.compact_bytes" "B"
          (float_of_int counts.compact_bytes /. float_of_int (max 1 n_compacts));
        metric "update_p50_ms" "ms" (percentile sorted_adds 0.5 *. 1000.);
        metric "update_p90_ms" "ms" (percentile sorted_adds 0.9 *. 1000.);
        metric "live.recover_ms" "ms" (startup 0 *. 1000.);
        metric "live.replayed" "count" (startup 1);
        metric "dataguide.build_ms" "ms" (startup 2 *. 1000.);
        metric "node_kind.classify_ms" "ms" (startup 3 *. 1000.);
        metric "key_miner.mine_ms" "ms" (startup 4 *. 1000.);
        metric "setup.first_request_ms" "ms" (median starts.firsts *. 1000.);
        metric "ledger.residual_share" "ratio" (ratio (untraced -. mean spans) untraced);
        metric "ledger.trace_overhead_share" "ratio" (ratio (mean wall -. untraced) untraced) ]
      @ gc_metrics ~requests:n gc0 gc1
    in
    { attempted = attempted + n; failed = !failed; metrics; info }
  end
