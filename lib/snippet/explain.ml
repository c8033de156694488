module Document = Extract_store.Document
module Result_tree = Extract_search.Result_tree
module Engine = Extract_search.Engine
module Deadline = Extract_util.Deadline
module Reqid = Extract_obs.Reqid
module Capture = Extract_obs.Explain
module Jsonv = Extract_obs.Jsonv

type status =
  | Covered of {
      instance : Document.node;
      tag : string;
      cost : int;
    }
  | Skipped
  | Uncoverable

type entry = {
  rank : int;
  kind : string;
  display : string;
  instances : int;
  feature : (Feature.t * Feature.stats) option;
  status : status;
}

type result_explain = {
  index : int;
  root_tag : string;
  nodes : int;
  degraded : bool;
  bound : int;
  edges_used : int;
  covered_count : int;
  skipped_count : int;
  uncoverable_count : int;
  entries : entry list;
}

type t = {
  request_id : string;
  query : string;
  semantics : string;
  bound : int;
  seconds : float;
  degraded : int;
  sections : (string * Jsonv.t) list;
  results : result_explain list;
}

let kind_of_item = function
  | Ilist.Keyword _ -> "keyword"
  | Ilist.Entity_name _ -> "entity"
  | Ilist.Result_key _ -> "key"
  | Ilist.Dominant_feature _ -> "feature"

(* Each IList entry's fate comes from the selection the greedy pass
   already recorded — chosen instance and marginal cost for covered
   items, or which of the two rejection reasons applied. Ranks identify
   entries: the selector preserves them from the IList. *)
let result_explain_of ~index (sr : Pipeline.snippet_result) =
  let result = sr.Pipeline.result in
  let doc = Result_tree.document result in
  let covered_of rank =
    List.find_opt
      (fun (c : Selector.covered) -> c.Selector.entry.Ilist.rank = rank)
      sr.Pipeline.selection.Selector.covered
  in
  let rank_in entries rank =
    List.exists (fun (e : Ilist.entry) -> e.Ilist.rank = rank) entries
  in
  let entries =
    List.map
      (fun (e : Ilist.entry) ->
        let status =
          match covered_of e.Ilist.rank with
          | Some c ->
            Covered
              {
                instance = c.Selector.instance;
                tag = Document.tag_name doc c.Selector.instance;
                cost = c.Selector.cost;
              }
          | None ->
            if rank_in sr.Pipeline.selection.Selector.uncoverable e.Ilist.rank then
              Uncoverable
            else Skipped
        in
        {
          rank = e.Ilist.rank;
          kind = kind_of_item e.Ilist.item;
          display = Ilist.display e.Ilist.item;
          instances = Array.length e.Ilist.instances;
          feature =
            (match e.Ilist.item with
            | Ilist.Dominant_feature (f, stats) -> Some (f, stats)
            | _ -> None);
          status;
        })
      (Ilist.entries sr.Pipeline.ilist)
  in
  let edges_used =
    List.fold_left
      (fun acc (c : Selector.covered) -> acc + c.Selector.cost)
      0 sr.Pipeline.selection.Selector.covered
  in
  {
    index;
    root_tag = Document.tag_name doc (Result_tree.root result);
    nodes = Result_tree.size result;
    degraded = sr.Pipeline.degraded;
    bound = sr.Pipeline.selection.Selector.bound;
    edges_used;
    covered_count = List.length sr.Pipeline.selection.Selector.covered;
    skipped_count = List.length sr.Pipeline.selection.Selector.skipped;
    uncoverable_count = List.length sr.Pipeline.selection.Selector.uncoverable;
    entries;
  }

let of_results ~request_id ~query ~semantics ~bound ~seconds ~sections results =
  {
    request_id;
    query;
    semantics;
    bound;
    seconds;
    degraded =
      List.fold_left (fun n (s : Pipeline.snippet_result) -> if s.Pipeline.degraded then n + 1 else n) 0 results;
    sections;
    results = List.mapi (fun i sr -> result_explain_of ~index:i sr) results;
  }

let run ?semantics ?config ?bound ?limit ?deadline ?(differentiated = false) db query_string =
  Reqid.ensure (fun request_id ->
      let t0 = Deadline.now () in
      let results, sections =
        Capture.with_capture (fun () ->
            if differentiated then
              Pipeline.run_differentiated ?semantics ?config ?bound ?limit ?deadline db
                query_string
            else Pipeline.run ?semantics ?config ?bound ?limit ?deadline db query_string)
      in
      let t =
        of_results ~request_id ~query:query_string
          ~semantics:
            (Engine.string_of_semantics (Option.value ~default:Engine.Xseek semantics))
          ~bound:(Option.value ~default:Pipeline.default_bound bound)
          ~seconds:(Deadline.now () -. t0)
          ~sections results
      in
      results, t)

(* ------------------------------------------------------------------ *)
(* Renders *)

(* entry JSON stays flat (scalars only) so the pretty render keeps one
   line per IList entry — greppable in cram tests and terminals *)
let entry_json e =
  let base =
    [ "rank", Jsonv.Int e.rank;
      "kind", Jsonv.Str e.kind;
      "display", Jsonv.Str e.display;
      "instances", Jsonv.Int e.instances ]
  in
  let feature =
    match e.feature with
    | None -> []
    | Some (f, stats) ->
      [ "entity", Jsonv.Str f.Feature.entity;
        "attribute", Jsonv.Str f.Feature.attribute;
        "score", Jsonv.Float stats.Feature.score;
        "occurrences", Jsonv.Int stats.Feature.occurrences;
        "type_total", Jsonv.Int stats.Feature.type_total;
        "domain_size", Jsonv.Int stats.Feature.domain_size ]
  in
  let status =
    match e.status with
    | Covered { instance; tag; cost } ->
      [ "status", Jsonv.Str "covered";
        "instance_node", Jsonv.Int instance;
        "instance_tag", Jsonv.Str tag;
        "cost", Jsonv.Int cost ]
    | Skipped -> [ "status", Jsonv.Str "skipped" ]
    | Uncoverable -> [ "status", Jsonv.Str "uncoverable" ]
  in
  Jsonv.Obj (base @ feature @ status)

let result_json r =
  Jsonv.Obj
    [ "result", Jsonv.Int (r.index + 1);
      "root", Jsonv.Str r.root_tag;
      "nodes", Jsonv.Int r.nodes;
      "degraded", Jsonv.Bool r.degraded;
      "bound", Jsonv.Int r.bound;
      "edges_used", Jsonv.Int r.edges_used;
      "covered", Jsonv.Int r.covered_count;
      "skipped", Jsonv.Int r.skipped_count;
      "uncoverable", Jsonv.Int r.uncoverable_count;
      "entries", Jsonv.Arr (List.map entry_json r.entries) ]

let to_json t =
  Jsonv.Obj
    [ "request_id", Jsonv.Str t.request_id;
      "query", Jsonv.Str t.query;
      "semantics", Jsonv.Str t.semantics;
      "bound", Jsonv.Int t.bound;
      "seconds", Jsonv.Float t.seconds;
      "results", Jsonv.Int (List.length t.results);
      "degraded", Jsonv.Int t.degraded;
      "sections", Jsonv.Obj t.sections;
      "result_explains", Jsonv.Arr (List.map result_json t.results) ]

let render_json t = Jsonv.pretty (to_json t)

let entry_text e =
  let status =
    match e.status with
    | Covered { tag; cost; instance } ->
      if cost = 0 then Printf.sprintf "covered free via <%s> #%d" tag instance
      else Printf.sprintf "covered via <%s> #%d (+%d edge%s)" tag instance cost
             (if cost = 1 then "" else "s")
    | Skipped -> "skipped (would overflow bound)"
    | Uncoverable -> "uncoverable (no instance in result)"
  in
  let score =
    match e.feature with
    | Some (_, stats) -> Printf.sprintf " DS=%s" (Jsonv.number stats.Feature.score)
    | None -> ""
  in
  Printf.sprintf "  %2d %-8s %-14s%s — %s" e.rank e.kind e.display score status

let to_text t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "explain %s: %S (%s, bound %d, %d result%s%s, %.1fms)\n" t.request_id
       t.query t.semantics t.bound (List.length t.results)
       (if List.length t.results = 1 then "" else "s")
       (if t.degraded = 0 then "" else Printf.sprintf ", %d degraded" t.degraded)
       (t.seconds *. 1e3));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "result %d: <%s> %d nodes — %d covered / %d skipped / %d uncoverable, %d/%d edges%s\n"
           (r.index + 1) r.root_tag r.nodes r.covered_count r.skipped_count
           r.uncoverable_count r.edges_used r.bound
           (if r.degraded then " [degraded: baseline snippet, no accounting]" else ""));
      List.iter (fun e -> Buffer.add_string buf (entry_text e ^ "\n")) r.entries)
    t.results;
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "section %s: %s\n" name (Jsonv.to_string v)))
    t.sections;
  Buffer.contents buf

(* compact per-result digest for the slowlog: O(results), not O(entries) *)
let digest_of_results results =
  Jsonv.Arr
    (List.mapi
       (fun i sr ->
         let r = result_explain_of ~index:i sr in
         Jsonv.Obj
           [ "root", Jsonv.Str r.root_tag;
             "covered", Jsonv.Int r.covered_count;
             "items", Jsonv.Int (List.length r.entries);
             "edges", Jsonv.Int r.edges_used;
             "degraded", Jsonv.Bool r.degraded ])
       results)

let digest t =
  Jsonv.Arr
    (List.map
       (fun r ->
         Jsonv.Obj
           [ "root", Jsonv.Str r.root_tag;
             "covered", Jsonv.Int r.covered_count;
             "items", Jsonv.Int (List.length r.entries);
             "edges", Jsonv.Int r.edges_used;
             "degraded", Jsonv.Bool r.degraded ])
       t.results)
