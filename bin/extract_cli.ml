(* The eXtract command-line interface — the CLI equivalent of the demo's
   web UI (paper §4): pick a dataset, view it, issue keyword queries,
   customize the snippet size bound, inspect the snippets, and open the
   full query result behind any of them. *)

open Cmdliner

module Pipeline = Extract_snippet.Pipeline
module Snippet_tree = Extract_snippet.Snippet_tree
module Selector = Extract_snippet.Selector
module Ilist = Extract_snippet.Ilist
module Feature = Extract_snippet.Feature
module Engine = Extract_search.Engine
module Result_tree = Extract_search.Result_tree
module Document = Extract_store.Document
module Check = Extract_check.Check

(* Opt-in stage-boundary invariant assertions: EXTRACT_CHECK=1 makes every
   verb verify its artifacts as they are built and queried. *)
let () = Check.install_from_env ()

(* Opt-in deterministic fault injection: EXTRACT_FAULTS=point:spec arms
   the named failure points (see extract_util.Faults). A typo in the spec
   is a usage error, not a crash. *)
let () =
  match Extract_util.Faults.install_from_env () with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2

(* Opt-in structured event log: EXTRACT_LOG=level[:FILE] turns on the
   JSON-lines logger for any verb (see extract_obs.Log). *)
let () =
  match Extract_obs.Log.install_from_env () with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2

(* Opt-in trace sampling: EXTRACT_TRACE_SAMPLE=1/N records one request in
   every N (see extract_obs.Trace); malformed values are ignored. *)
let () = Extract_obs.Trace.install_from_env ()

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML document.")

let query_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"Keyword query.")

(* An int of at least [least]: anything smaller is cmdliner's usage error
   (exit 124, naming the option), not a failure deep in the pipeline. *)
let int_at_least least =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is below %d" s least))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let bound_arg =
  Arg.(
    value
    & opt (int_at_least 0) Pipeline.default_bound
    & info [ "b"; "bound" ] ~docv:"EDGES" ~doc:"Snippet size bound in edges (at least 0).")

let limit_arg =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "n"; "limit" ] ~docv:"N" ~doc:"Show at most $(docv) results (at least 1).")

let semantics_conv =
  let parse s =
    match Engine.semantics_of_string s with
    | Some sem -> Ok sem
    | None -> Error (`Msg (Printf.sprintf "unknown engine %S (slca|elca|xseek|xsearch)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Engine.string_of_semantics s))

let semantics_arg =
  Arg.(
    value
    & opt semantics_conv Engine.Xseek
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"Search engine: slca, elca, xseek or xsearch.")

(* --log-level LEVEL overrides EXTRACT_LOG for this invocation; absent
   means leave whatever install_from_env configured. *)
let log_level_conv =
  let parse s =
    match Extract_obs.Log.level_of_string s with
    | lvl -> Ok lvl
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "off"
    | Some lvl -> Format.pp_print_string ppf (Extract_obs.Log.level_name lvl)
  in
  Arg.conv (parse, print)

let log_level_arg =
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Emit structured JSON-lines events to stderr at $(docv) (debug, info, warn, \
           error or off). Overrides the EXTRACT_LOG environment variable, which also \
           accepts level:FILE to log to a file instead.")

let apply_log_level = function
  | None -> ()
  | Some lvl -> Extract_obs.Log.set_level lvl

(* Accept an XML file or a snapshot written by [extract pack]:
   Corpus.load_file dispatches on the leading magic and, when a snapshot
   cannot be loaded but its XML source is still next to it, rebuilds
   from the source with a warning. *)
let load_db_raw file =
  Extract_snippet.Corpus.load_file
    ~on_warning:(fun msg -> Printf.eprintf "warning: %s\n%!" msg)
    file

(* a broken input file is a user error, not an internal one: report it
   cleanly, naming the file, and exit 1 instead of letting cmdliner print
   a backtrace *)
let exit_parse_error file pos msg =
  Printf.eprintf "error: %s: %s\n%!" file (Extract_xml.Error.to_string pos msg);
  exit 1

let load_db file =
  match load_db_raw file with
  | db -> db
  | exception Extract_xml.Error.Parse_error (pos, msg) -> exit_parse_error file pos msg
  | exception Extract_store.Codec.Corrupt msg ->
    Printf.eprintf "error: %s: %s\n%!" file msg;
    exit 1
  | exception Extract_store.Codec.Truncated msg ->
    Printf.eprintf "error: %s: truncated: %s\n%!" file msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* Live-store helpers                                                  *)

module Live = Extract_store.Live
module Live_corpus = Extract_snippet.Live_corpus
module Shard_set = Extract_snippet.Shard_set

let live_warning msg = Printf.eprintf "warning: %s\n%!" msg

(* live-store errors are user-facing: report and exit 1, like load_db *)
let live_guard dir f =
  match f () with
  | v -> v
  | exception Extract_store.Codec.Corrupt msg ->
    Printf.eprintf "error: %s: %s\n%!" dir msg;
    exit 1
  | exception Extract_store.Codec.Truncated msg ->
    Printf.eprintf "error: %s: truncated: %s\n%!" dir msg;
    exit 1
  | exception Extract_xml.Error.Parse_error (pos, msg) -> exit_parse_error dir pos msg
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n%!" msg;
    exit 1

let open_live dir = live_guard dir (fun () -> Live.open_dir ~on_warning:live_warning dir)

(* Opening a missing directory creates it, so only [add] may open one,
   and only once its member has parsed: [remove] and [compact] refuse a
   directory that does not exist. *)
let open_existing_live dir =
  if not (Sys.file_exists dir) then begin
    Printf.eprintf "error: %s: no such live store\n%!" dir;
    exit 1
  end;
  open_live dir

let open_live_corpus ?read_only dir =
  live_guard dir (fun () -> Live_corpus.open_dir ?read_only ~on_warning:live_warning dir)

let open_shards dir = live_guard dir (fun () -> Shard_set.load_dir dir)

let read_whole_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen_cmd =
  let dataset =
    Arg.(
      required
      & pos 0 (some (enum [ "retail", `Retail; "movies", `Movies; "auction", `Auction;
                            "bib", `Bib; "courses", `Courses; "paper", `Paper ])) None
      & info [] ~docv:"DATASET" ~doc:"One of retail, movies, auction, bib, courses, paper.")
  in
  let size =
    Arg.(value & opt int 0 & info [ "s"; "size" ] ~docv:"N" ~doc:"Scale (entities; 0 = default).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file (default: stdout).")
  in
  let run dataset size seed out =
    let doc =
      match dataset with
      | `Paper -> Extract_datagen.Paper_example.document ()
      | `Retail ->
        if size > 0 then Extract_datagen.Retail.scaled ~seed size
        else Extract_datagen.Retail.(generate { default with seed })
      | `Movies ->
        if size > 0 then Extract_datagen.Movies.sized ~seed size
        else Extract_datagen.Movies.(generate { default with seed })
      | `Auction ->
        if size > 0 then Extract_datagen.Auction.sized ~seed size
        else Extract_datagen.Auction.(generate { default with seed })
      | `Bib ->
        if size > 0 then Extract_datagen.Bib.sized ~seed size
        else Extract_datagen.Bib.(generate { default with seed })
      | `Courses ->
        if size > 0 then Extract_datagen.Courses.sized ~seed size
        else Extract_datagen.Courses.(generate { default with seed })
    in
    match out with
    | Some path ->
      Extract_xml.Printer.write_file path doc;
      Printf.printf "wrote %s\n" path
    | None -> print_string (Extract_xml.Printer.document_to_string doc)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic XML dataset.")
    Term.(const run $ dataset $ size $ seed $ out)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let stats_cmd =
  let run file =
    let db = load_db file in
    let stats = Extract_store.Doc_stats.compute (Pipeline.kinds db) in
    Format.printf "%a@." Extract_store.Doc_stats.pp stats;
    Format.printf "index: %d tokens, %d postings@."
      (Extract_store.Inverted_index.token_count (Pipeline.index db))
      (Extract_store.Inverted_index.postings_size (Pipeline.index db));
    let kinds = Pipeline.kinds db in
    let guide = Pipeline.dataguide db in
    Format.printf "@.paths:@.";
    List.iter
      (fun p ->
        Format.printf "  %-40s %-10s %6d instance(s)@."
          (Extract_store.Dataguide.path_string guide p)
          (Extract_store.Node_kind.string_of_kind (Extract_store.Node_kind.kind_of_path kinds p))
          (Extract_store.Dataguide.instance_count guide p))
      (Extract_store.Dataguide.paths guide)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Document, classification and index statistics.")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* search                                                              *)

let search_cmd =
  let ranked_flag =
    Arg.(value & flag & info [ "ranked" ] ~doc:"Order results by the XRank-style score.")
  in
  let relax_flag =
    Arg.(value & flag
         & info [ "relax" ] ~doc:"Drop the rarest keywords until the query has results.")
  in
  let run file query semantics limit ranked relax =
    if Shard_set.is_shard_dir file then begin
      (* a shard directory: every shard one segment of a ranked merge *)
      ignore ranked;
      if relax then prerr_endline "note: --relax is not supported for shard directories";
      let t = open_shards file in
      let hits = Shard_set.run ~semantics ?limit t query in
      Printf.printf "%d hit(s) across %d shard(s)\n" (List.length hits)
        (Shard_set.shard_count t);
      List.iteri
        (fun i (h : Shard_set.hit) ->
          let r = h.Shard_set.result.Pipeline.result in
          let doc = Result_tree.document r in
          Printf.printf "%2d. [shard %d] <%s> global node %d (%d nodes)  score=%.3f\n" (i + 1)
            h.Shard_set.shard
            (Document.tag_name doc (Result_tree.root r))
            h.Shard_set.global_root (Result_tree.size r) h.Shard_set.score)
        hits
    end
    else if Sys.is_directory file then begin
      (* a directory is a live store: hits are already scored per member *)
      ignore ranked;
      if relax then prerr_endline "note: --relax is not supported for live-store directories";
      let lc = open_live_corpus ~read_only:true file in
      let hits = Live_corpus.run ~semantics ?limit lc query in
      Printf.printf "%d hit(s)\n" (List.length hits);
      List.iteri
        (fun i (h : Live_corpus.hit) ->
          let r = h.Live_corpus.snippet.Pipeline.result in
          let doc = Result_tree.document r in
          Printf.printf "%2d. [%s] <%s> (%d nodes)  score=%.3f\n" (i + 1) h.Live_corpus.source
            (Document.tag_name doc (Result_tree.root r))
            (Result_tree.size r) h.Live_corpus.score)
        hits;
      Live_corpus.close lc
    end
    else begin
    let db = load_db file in
    let results, dropped =
      if relax then
        Extract_search.Engine.run_relaxed ~semantics (Pipeline.index db) (Pipeline.kinds db)
          (Extract_search.Query.of_string query)
      else Pipeline.search ~semantics db query, []
    in
    if dropped <> [] then
      Printf.printf "(relaxed: dropped %s)\n" (String.concat ", " dropped);
    let scored =
      if ranked then
        let ctx =
          Extract_search.Eval_ctx.make (Pipeline.index db) (Extract_search.Query.of_string query)
        in
        Extract_search.Ranker.rank (Extract_search.Ranker.make ctx) results
      else List.map (fun r -> r, nan) results
    in
    let scored =
      match limit with
      | None -> scored
      | Some k -> List.filteri (fun i _ -> i < k) scored
    in
    Printf.printf "%d result(s)\n" (List.length results);
    List.iteri
      (fun i (r, score) ->
        let doc = Result_tree.document r in
        let score_str = if Float.is_nan score then "" else Printf.sprintf "  score=%.3f" score in
        Printf.printf "%2d. <%s> (%d nodes)%s\n" (i + 1)
          (Document.tag_name doc (Result_tree.root r))
          (Result_tree.size r) score_str)
      scored
    end
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Run a keyword query, list result roots.")
    Term.(const run $ file_arg $ query_arg $ semantics_arg $ limit_arg $ ranked_flag $ relax_flag)

(* ------------------------------------------------------------------ *)
(* snippet                                                             *)

let order_conv =
  let parse = function
    | "dominance" -> Ok Extract_snippet.Config.By_dominance
    | "frequency" -> Ok Extract_snippet.Config.By_frequency
    | "biased" -> Ok Extract_snippet.Config.Query_biased
    | s -> Error (`Msg (Printf.sprintf "unknown order %S (dominance|frequency|biased)" s))
  in
  Arg.conv
    ( parse,
      fun ppf o ->
        Format.pp_print_string ppf (Extract_snippet.Config.string_of_feature_order o) )

let snippet_cmd =
  let compare_flag =
    Arg.(value & flag & info [ "compare" ] ~doc:"Also show text-engine and naive baselines.")
  in
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:
               "Record spans around load, search and snippet generation and print the \
                span tree (with wall-clock durations) to stderr after the results.")
  in
  let trace_out_arg =
    Arg.(value
         & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:
               "Record spans (implies tracing) and write them to $(docv) as Chrome \
                trace-event JSON, loadable in Perfetto or chrome://tracing. On a shard \
                directory every span carries the query's request id, with one shard.run \
                span per shard under the query span.")
  in
  let differentiate_flag =
    Arg.(value & flag
         & info [ "differentiate" ]
             ~doc:"Re-rank dominant features by cross-result distinctiveness.")
  in
  let order_arg =
    Arg.(value
         & opt order_conv Extract_snippet.Config.By_dominance
         & info [ "order" ] ~docv:"ORDER"
             ~doc:"Feature ranking: dominance (paper), frequency (strawman) or biased (query-biased).")
  in
  let explain_arg =
    Arg.(
      value
      & opt ~vopt:(Some `Text) (some (enum [ "json", `Json; "text", `Text ])) None
      & info [ "explain" ] ~docv:"FMT"
          ~doc:
            "Emit the explain bundle: per-IList-entry selection fates, dominance scores \
             and edge-budget accounting. $(docv) is json (the bundle alone, on stdout) \
             or text (appended after the snippets; the default when $(docv) is omitted).")
  in
  let run file query semantics bound limit compare_baselines differentiate order trace
      trace_out explain log_level =
    let module Trace = Extract_obs.Trace in
    let module Explain = Extract_snippet.Explain in
    apply_log_level log_level;
    let tracing = trace || trace_out <> None in
    if tracing then Trace.set_enabled true;
    (* Flush collected spans at the end of whichever branch ran: the tree
       to stderr for --trace, Chrome trace-event JSON for --trace-out. *)
    let emit_trace () =
      if tracing then begin
        let spans = Trace.finished () in
        if trace then Printf.eprintf "trace:\n%s%!" (Trace.render spans);
        (match trace_out with
        | Some path ->
          let oc = open_out path in
          output_string oc (Extract_obs.Trace_export.render spans);
          output_char oc '\n';
          close_out oc
        | None -> ());
        Trace.set_enabled false
      end
    in
    if Shard_set.is_shard_dir file then begin
      (* a shard directory: per-shard snippets, globally merged *)
      ignore (compare_baselines, differentiate, order, explain);
      (* the shards load inside the query's request-id scope, so every
         span of the exported trace carries the same rid *)
      let hits =
        Extract_obs.Reqid.ensure (fun _rid ->
            let t = open_shards file in
            Trace.with_span "cli.run" (fun () ->
                Shard_set.run ~semantics ~bound ?limit t query))
      in
      Printf.printf "%d hit(s) for %S, bound %d edges\n\n" (List.length hits) query bound;
      List.iteri
        (fun i (h : Shard_set.hit) ->
          let s = h.Shard_set.result in
          Printf.printf "--- hit %d [shard %d, global node %d] score=%.3f ------------\n"
            (i + 1) h.Shard_set.shard h.Shard_set.global_root h.Shard_set.score;
          print_endline (Snippet_tree.render s.Pipeline.selection.Selector.snippet);
          Printf.printf "(%d/%d IList items, %d edges)\n\n"
            (Selector.covered_count s.Pipeline.selection)
            (Ilist.length s.Pipeline.ilist)
            (Snippet_tree.edge_count s.Pipeline.selection.Selector.snippet))
        hits;
      emit_trace ()
    end
    else if Sys.is_directory file then begin
      (* a directory is a live store; the flags tied to single-database
         explain plumbing do not apply there *)
      ignore (compare_baselines, differentiate, order, explain);
      let lc = open_live_corpus ~read_only:true file in
      let hits =
        Extract_obs.Reqid.ensure (fun _rid ->
            Trace.with_span "cli.run" (fun () ->
                Live_corpus.run ~semantics ~bound ?limit lc query))
      in
      Printf.printf "%d hit(s) for %S, bound %d edges\n\n" (List.length hits) query bound;
      List.iteri
        (fun i (h : Live_corpus.hit) ->
          let s = h.Live_corpus.snippet in
          Printf.printf "--- hit %d [%s] score=%.3f --------------------------\n" (i + 1)
            h.Live_corpus.source h.Live_corpus.score;
          print_endline (Snippet_tree.render s.Pipeline.selection.Selector.snippet);
          Printf.printf "(%d/%d IList items, %d edges)\n\n"
            (Selector.covered_count s.Pipeline.selection)
            (Ilist.length s.Pipeline.ilist)
            (Snippet_tree.edge_count s.Pipeline.selection.Selector.snippet))
        hits;
      Live_corpus.close lc;
      emit_trace ()
    end
    else begin
    let db = Trace.with_span "cli.load" (fun () -> load_db file) in
    let config = { Extract_snippet.Config.default with Extract_snippet.Config.feature_order = order } in
    let print_results results =
      Printf.printf "%d result(s) for %S, bound %d edges\n\n" (List.length results) query
        bound;
      let q = Extract_search.Query.of_string query in
      List.iteri
        (fun i (r : Pipeline.snippet_result) ->
          Printf.printf "--- result %d -------------------------------------\n" (i + 1);
          print_endline (Snippet_tree.render r.selection.snippet);
          Printf.printf "(%d/%d IList items, %d edges)\n\n"
            (Selector.covered_count r.selection)
            (Ilist.length r.ilist)
            (Snippet_tree.edge_count r.selection.snippet);
          if compare_baselines then begin
            let text =
              Extract_snippet.Text_baseline.generate
                ~window_tokens:(Extract_snippet.Text_baseline.window_for_bound bound)
                r.result q
            in
            Printf.printf "text baseline:  %s\n" (Extract_snippet.Text_baseline.to_string text);
            let naive = Extract_snippet.Naive_baseline.generate ~bound r.result in
            Printf.printf "naive baseline:\n%s\n\n" (Snippet_tree.render naive)
          end)
        results
    in
    (* one CLI invocation = one query: give it a request id here so the
       cli.run span, the pipeline's log lines and the explain bundle all
       carry the same id *)
    Extract_obs.Reqid.ensure (fun _rid ->
        match explain with
        | None ->
          print_results
            (Trace.with_span "cli.run" (fun () ->
                 if differentiate then
                   Pipeline.run_differentiated ~semantics ~config ~bound ?limit db query
                 else Pipeline.run ~semantics ~config ~bound ?limit db query))
        | Some fmt ->
          let results, bundle =
            Trace.with_span "cli.run" (fun () ->
                Explain.run ~semantics ~config ~bound ?limit
                  ~differentiated:differentiate db query)
          in
          (match fmt with
          | `Json ->
            (* the bundle alone: stdout stays machine-readable *)
            print_endline (Explain.render_json bundle)
          | `Text ->
            print_results results;
            print_string (Explain.to_text bundle)));
    emit_trace ()
    end
  in
  Cmd.v
    (Cmd.info "snippet" ~doc:"Generate snippets for a keyword query (the demo flow).")
    Term.(
      const run $ file_arg $ query_arg $ semantics_arg $ bound_arg $ limit_arg $ compare_flag
      $ differentiate_flag $ order_arg $ trace_flag $ trace_out_arg $ explain_arg
      $ log_level_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let run file query semantics limit =
    let db = load_db file in
    let q = Extract_search.Query.of_string query in
    let results = Pipeline.search ~semantics ?limit db query in
    List.iteri
      (fun i r ->
        Printf.printf "--- result %d: IList -------------------------------\n" (i + 1);
        let ilist = Pipeline.ilist_of db r q in
        List.iter
          (fun (e : Ilist.entry) ->
            let kind, detail =
              match e.item with
              | Ilist.Keyword k -> "keyword", k
              | Ilist.Entity_name n -> "entity", n
              | Ilist.Result_key v -> "key", v
              | Ilist.Dominant_feature (f, s) ->
                ( "feature",
                  Format.asprintf "%a DS=%.2f (N=%d/%d D=%d)" Feature.pp f s.Feature.score
                    s.Feature.occurrences s.Feature.type_total s.Feature.domain_size )
            in
            Printf.printf "%2d. %-8s %-50s %d instance(s)\n" e.rank kind detail
              (Array.length e.instances))
          (Ilist.entries ilist);
        print_newline ())
      results
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the ranked IList of each query result (Fig. 3 view).")
    Term.(const run $ file_arg $ query_arg $ semantics_arg $ limit_arg)

(* ------------------------------------------------------------------ *)
(* pack                                                                *)

let pack_cmd =
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT"
          ~doc:"Output snapshot file, or output directory with $(b,--shards) above 1.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Split the corpus into $(docv) shards (contiguous groups of the root's \
             children, roughly equal node weight) and write OUT as a directory: one \
             snapshot per shard plus a sealed $(b,shards.manifest). Such a directory is \
             accepted by $(b,search), $(b,snippet), $(b,check) and $(b,serve), which \
             rank every shard's results as one list.")
  in
  let file_size path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  let run file out shards =
    if shards < 1 then begin
      prerr_endline "error: --shards must be at least 1";
      exit 2
    end;
    let db = load_db file in
    let index = Pipeline.index db in
    if shards = 1 then begin
      Pipeline.save_snapshot out db;
      Printf.printf "wrote %s (%d nodes, %d tokens, %d bytes, index %d -> %d posting bytes)\n"
        out
        (Extract_store.Document.node_count (Pipeline.document db))
        (Extract_store.Inverted_index.token_count index)
        (file_size out)
        (Extract_store.Inverted_index.int_array_bytes index)
        (Extract_store.Inverted_index.postings_bytes index)
    end
    else begin
      let t = Shard_set.split ~shards (Pipeline.document db) in
      Shard_set.save_dir out t;
      Printf.printf "wrote %s: %d shard(s)\n" out (Shard_set.shard_count t);
      for i = 0 to Shard_set.shard_count t - 1 do
        let g0, g1 = Shard_set.provenance t i in
        let snap = Filename.concat out (Printf.sprintf "shard-%02d.snap" i) in
        Printf.printf "  shard %d: nodes %d..%d (%d), %d bytes\n" i g0 g1 (g1 - g0 + 1)
          (file_size snap)
      done
    end
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Persist a database as an mmap snapshot, the one stored format: \
          block-compressed postings, a flat arena the next load maps in O(1) instead of \
          decoding, and the analysis (dataguide, node kinds, keys) it adopts instead of \
          deriving. Validate with $(b,extract check); deep verification spends the \
          per-section checksums the fast load path skips and re-derives the analysis.")
    Term.(const run $ file_arg $ out $ shards_arg)

(* ------------------------------------------------------------------ *)
(* demo                                                                *)

let demo_cmd =
  let out =
    Arg.(value & opt string "extract-results.html"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output HTML file.")
  in
  let run file query semantics bound limit out =
    let db = load_db file in
    let results = Pipeline.run ~semantics ~bound ?limit db query in
    Extract_snippet.Html_view.write_page ~path:out ~query ~bound results;
    Printf.printf "wrote %s (%d results)\n" out (List.length results)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Render the Fig. 5 demo page: snippets with full results, as HTML.")
    Term.(const run $ file_arg $ query_arg $ semantics_arg $ bound_arg $ limit_arg $ out)

(* ------------------------------------------------------------------ *)
(* view                                                                *)

let view_cmd =
  let path_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PATH" ~doc:"XPath-like selector, e.g. //store[city=\"Houston\"].")
  in
  let run file path =
    let db = load_db file in
    let doc = Pipeline.document db in
    match Extract_store.Path_query.select_string doc path with
    | exception Invalid_argument msg -> prerr_endline msg; exit 1
    | [] -> print_endline "no match"
    | nodes ->
      Printf.printf "%d match(es)\n" (List.length nodes);
      List.iteri
        (fun i n ->
          Printf.printf "--- match %d ---\n%s\n" (i + 1)
            (Extract_xml.Printer.to_string (Extract_store.Document.to_xml doc n)))
        (List.filteri (fun i _ -> i < 10) nodes)
  in
  Cmd.v
    (Cmd.info "view" ~doc:"Select and print document fragments with an XPath-like path.")
    Term.(const run $ file_arg $ path_arg)

(* ------------------------------------------------------------------ *)
(* add / remove / compact / live                                       *)

let dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Live-store directory (created by the first successful $(b,add)).")

let add_cmd =
  let xml_file =
    Arg.(
      required & pos 1 (some file) None & info [] ~docv:"FILE" ~doc:"XML document to add.")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME" ~doc:"Member name (default: $(i,FILE)'s basename).")
  in
  let run dir file name =
    let name = match name with Some n -> n | None -> Filename.basename file in
    (* check the name and parse before opening: a member that cannot be
       added creates no store *)
    live_guard dir (fun () -> Live.validate_name name);
    let xml = read_whole_file file in
    (match Document.load_string xml with
    | _ -> ()
    | exception Extract_xml.Error.Parse_error (pos, msg) -> exit_parse_error file pos msg);
    let store = open_live dir in
    live_guard dir (fun () -> Live.add store ~name ~xml);
    let members = List.length (Live.member_names (Live.view store)) in
    Live.close store;
    Printf.printf "added %s to %s (%d member(s))\n" name dir members
  in
  Cmd.v
    (Cmd.info "add"
       ~doc:
         "Add (or replace) a document in a live-store directory. The update is journalled \
          and fsync'd before it is acknowledged: a crash at any instant leaves the store \
          recoverable to the state before or after the add, never in between.")
    Term.(const run $ dir_arg $ xml_file $ name_arg)

let remove_cmd =
  let name_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME" ~doc:"Member name.")
  in
  let run dir name =
    let store = open_existing_live dir in
    let removed = live_guard dir (fun () -> Live.remove store name) in
    Live.close store;
    if removed then Printf.printf "removed %s from %s\n" name dir
    else begin
      Printf.eprintf "error: %s has no member %S\n%!" dir name;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "remove" ~doc:"Remove a document from a live-store directory (journalled).")
    Term.(const run $ dir_arg $ name_arg)

let compact_cmd =
  let run dir =
    let store = open_existing_live dir in
    let generation = live_guard dir (fun () -> Live.compact store) in
    let members = List.length (Live.member_names (Live.view store)) in
    Live.close store;
    Printf.printf "compacted %s to generation %d (%d member(s))\n" dir generation members
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Fold a live store's journalled updates into a fresh snapshot generation \
          (atomic temp+fsync+rename) and reset the journal to a checkpoint.")
    Term.(const run $ dir_arg)

let live_cmd =
  let run dir =
    let store = live_guard dir (fun () -> Live.open_dir ~read_only:true ~on_warning:live_warning dir) in
    let view = Live.view store in
    let records, _ = live_guard dir (fun () -> Extract_store.Journal.read (Live.journal_path dir)) in
    let pending = List.length (Extract_store.Journal.records_after_checkpoint records) in
    Printf.printf "generation %d, %d member(s), %d journalled update(s) since last compact\n"
      view.Live.generation
      (List.length (Live.member_names view))
      pending;
    List.iter (fun name -> Printf.printf "  %s\n" name) (Live.member_names view);
    Live.close store
  in
  Cmd.v
    (Cmd.info "live" ~doc:"Show a live-store directory's generation, members and journal depth.")
    Term.(const run $ dir_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let queries =
    Arg.(
      value
      & opt_all string []
      & info [ "q"; "query" ] ~docv:"QUERY"
          ~doc:
            "Also validate search results and snippets for $(docv) (repeatable). Without it, \
             a deterministic probe workload derived from the index vocabulary is used.")
  in
  let fail issues =
    List.iter (fun i -> print_endline (Check.issue_to_string i)) issues;
    Printf.printf "FAILED: %d invariant violation(s)\n" (List.length issues);
    exit 1
  in
  let run file queries =
    if Shard_set.is_shard_dir file then begin
      (* a shard directory: deep-verify every snapshot, then the manifest *)
      ignore queries;
      let snaps =
        Sys.readdir file |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".snap")
        |> List.sort String.compare
      in
      let issues =
        List.concat_map (fun f -> Check.check_snapshot (Filename.concat file f)) snaps
      in
      (match issues with [] -> () | issues -> fail issues);
      match Shard_set.load_dir file with
      | t ->
        Printf.printf "ok: shard directory %s is consistent (%d shard(s), %d snapshot(s) verified)\n"
          file (Shard_set.shard_count t) (List.length snaps)
      | exception Extract_store.Codec.Corrupt msg ->
        fail [ { Check.area = "snapshot"; what = Printf.sprintf "%s: %s" file msg } ]
      | exception Extract_store.Codec.Truncated msg ->
        fail [ { Check.area = "snapshot"; what = Printf.sprintf "%s: truncated: %s" file msg } ]
    end
    else if Sys.is_directory file then begin
      (* a directory is a live store: validate journal/snapshot agreement
         and the recovered content instead of a single artifact *)
      ignore queries;
      let issues, notes = Check.check_live file in
      List.iter (fun n -> Printf.printf "note: %s\n" n) notes;
      match issues with
      | [] ->
        Printf.printf "ok: live store %s is consistent%s\n" file
          (if notes = [] then "" else " (benign crash leftovers pending repair)")
      | issues -> fail issues
    end
    else begin
    (* a snapshot gets the deep pass load skips: every recorded section
       digest is spent, the fingerprint re-derived, and the stored
       analysis compared with a fresh derivation *)
    (match Extract_store.Snapshot.file_magic file with
    | Some m when m = Extract_store.Snapshot.magic -> (
      match Check.check_snapshot file with
      | [] -> Printf.printf "ok: snapshot %s passes deep verification\n" file
      | issues -> fail issues)
    | Some _ | None -> ()
    | exception _ -> ());
    match load_db_raw file with
    | exception Extract_store.Codec.Corrupt msg ->
      fail [ { Check.area = "persist"; what = Printf.sprintf "%s: %s" file msg } ]
    | exception Extract_store.Codec.Truncated msg ->
      fail [ { Check.area = "persist"; what = Printf.sprintf "%s: truncated: %s" file msg } ]
    | exception Extract_xml.Error.Parse_error (pos, msg) ->
      fail
        [ { Check.area = "xml"; what = Printf.sprintf "%s: %s" file (Extract_xml.Error.to_string pos msg) } ]
    | db -> (
      let queries =
        match queries with
        | [] -> Check.probe_queries db
        | qs -> qs
      in
      Printf.printf "checking %s: %d nodes, %d tokens, %d paths, %d probe quer%s\n" file
        (Document.node_count (Pipeline.document db))
        (Extract_store.Inverted_index.token_count (Pipeline.index db))
        (Extract_store.Dataguide.path_count (Pipeline.dataguide db))
        (List.length queries)
        (if List.length queries = 1 then "y" else "ies");
      match Check.all ~queries db with
      | [] -> print_endline "ok: all invariants hold"
      | issues -> fail issues)
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Verify structural invariants (fsck) of a dataset, snapshot, shard directory or \
          live store: document order, interval nesting, posting-list sortedness and \
          agreement, dataguide consistency, snippet well-formedness; a snapshot's section \
          checksums and stored analysis too.")
    Term.(const run $ file_arg $ queries)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "XML files or snapshots to serve. A directory written by $(b,extract pack \
             --shards) enables the /shards and /shards/search routes instead (every shard \
             one segment of a ranked merge).")
  in
  let live_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "live" ] ~docv:"DIR"
          ~doc:
            "Also serve the live-store directory $(docv): enables the POST \
             /admin/add|remove|compact update routes and GET /live, /live/search. \
             Updates are journalled and fsync'd before they are acknowledged.")
  in
  let port =
    Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 = pick one).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt int Extract_server.Demo_server.default_config.Extract_server.Demo_server.timeout_ms
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-connection socket read/write timeout in milliseconds (slowloris \
             protection); 0 disables.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request snippet budget in milliseconds: results reached after expiry get \
             baseline snippets tagged degraded; a request whose budget is spent before \
             search starts is shed with 503.")
  in
  let workers =
    Arg.(
      value
      & opt int Extract_server.Demo_server.default_config.Extract_server.Demo_server.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains in the serving pool; each runs connections to completion, so N \
             bounds concurrently-served connections. Use the machine's core count for \
             throughput.")
  in
  let queue_depth =
    Arg.(
      value
      & opt int
          Extract_server.Demo_server.default_config.Extract_server.Demo_server.queue_depth
      & info [ "queue-depth" ] ~docv:"K"
          ~doc:
            "Accepted connections allowed to wait for a worker; beyond K the acceptor sheds \
             with 503 + Retry-After.")
  in
  let run files live port timeout_ms deadline_ms workers queue_depth log_level =
    apply_log_level log_level;
    if files = [] && live = None then begin
      prerr_endline "error: nothing to serve (give XML files, a shard directory, --live DIR, or both)";
      exit 2
    end;
    let live = Option.map open_live_corpus live in
    (* a positional argument that is a shard directory attaches the
       /shards routes instead of joining the corpus *)
    let shard_dirs, files = List.partition Shard_set.is_shard_dir files in
    let sharded =
      match shard_dirs with
      | [] -> None
      | d :: rest ->
        List.iter
          (fun d -> Printf.eprintf "note: ignoring extra shard directory %s\n%!" d)
          rest;
        Some (open_shards d)
    in
    let corpus =
      List.fold_left
        (fun corpus file ->
          let name = Filename.remove_extension (Filename.basename file) in
          Extract_snippet.Corpus.add corpus ~name (load_db file))
        Extract_snippet.Corpus.empty files
    in
    let config =
      {
        Extract_server.Demo_server.default_config with
        Extract_server.Demo_server.timeout_ms;
        deadline_ms;
        workers;
        queue_depth;
      }
    in
    match
      Extract_server.Demo_server.serve ~config
        (Extract_server.Demo_server.create ?live ?sharded corpus)
        ~port
    with
    | () -> ()
    | exception Invalid_argument msg ->
      (* a pool over OCaml's domain cap is refused before it starts *)
      prerr_endline ("error: " ^ msg);
      exit 2
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the demo web service (the paper's Fig. 5 site) over XML files.")
    Term.(
      const run $ files $ live_arg $ port $ timeout_ms $ deadline_ms
      $ workers $ queue_depth $ log_level_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "snippet generation for XML keyword search (eXtract, VLDB'08)" in
  Cmd.group (Cmd.info "extract" ~version:Extract_obs.Registry.version ~doc)
    [ gen_cmd; stats_cmd; search_cmd; snippet_cmd; explain_cmd; pack_cmd; demo_cmd;
      view_cmd; add_cmd; remove_cmd; compact_cmd; live_cmd; check_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
