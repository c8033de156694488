type t = { dbs : (string * Pipeline.t) list (* sorted by name *) }

type hit = Pipeline.hit = {
  segment : int;
  source : string;
  score : float;
  snippet : Pipeline.snippet_result;
}

let empty = { dbs = [] }

let add t ~name db =
  let without = List.remove_assoc name t.dbs in
  { dbs = List.sort (fun (a, _) (b, _) -> String.compare a b) ((name, db) :: without) }

let of_list entries = List.fold_left (fun t (name, db) -> add t ~name db) empty entries

let names t = List.map fst t.dbs

let find t name = List.assoc_opt name t.dbs

let size t = List.length t.dbs

(* ------------------------------------------------------------------ *)
(* Loading: accept an XML file, a binary arena, or a bundle written by
   [extract save], dispatching on the leading magic. A corrupt persisted
   artifact is not fatal when its XML source is still around: warn and
   rebuild from the source instead — the artifact is only ever a cache of
   the XML. *)

let sniff path =
  let ic = open_in_bin path in
  let head =
    try really_input_string ic (min (in_channel_length ic) 16)
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  Extract_store.Persist.sniff_magic head

let load_artifact path magic =
  if magic = Extract_store.Persist.bundle_magic then Some (Pipeline.load path)
  else if magic = Extract_store.Persist.magic then
    Some (Pipeline.build (Extract_store.Persist.load path))
  else if magic = Extract_store.Snapshot.magic then Some (Pipeline.load_snapshot path)
  else None

(* candidate XML sources for a corrupt artifact: `foo.bundle` → `foo.xml`,
   then bare `foo` *)
let xml_siblings path =
  let base = Filename.remove_extension path in
  List.filter (fun p -> p <> path && Sys.file_exists p) [ base ^ ".xml"; base ]

let load_file ?(on_warning = fun _ -> ()) path =
  let rebuild_or_reraise reason original =
    match xml_siblings path with
    | source :: _ ->
      on_warning
        (Printf.sprintf "corrupt artifact %s (%s); rebuilding from %s" path reason source);
      Pipeline.of_file source
    | [] -> raise original
  in
  match sniff path with
  | None -> Pipeline.of_file path
  | Some magic -> (
    match load_artifact path magic with
    | None -> Pipeline.of_file path
    | Some db -> db
    | exception (Extract_store.Codec.Corrupt reason as e) -> rebuild_or_reraise reason e
    | exception (Extract_store.Codec.Truncated reason as e) ->
      rebuild_or_reraise ("truncated: " ^ reason) e)

let run ?semantics ?config ?bound ?limit ?deadline t query_string =
  Pipeline.run_merged ?semantics ?config ?bound ?limit ?deadline
    (List.map
       (fun (name, db) ->
         { Pipeline.db; mask = None; source_of = (fun _ -> Some name); span = None })
       t.dbs)
    query_string
