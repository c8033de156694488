type t = { dbs : (string * Pipeline.t) list (* sorted by name *) }

let empty = { dbs = [] }

let add t ~name db =
  let without = List.remove_assoc name t.dbs in
  { dbs = List.sort (fun (a, _) (b, _) -> String.compare a b) ((name, db) :: without) }

let of_list entries = List.fold_left (fun t (name, db) -> add t ~name db) empty entries

let names t = List.map fst t.dbs

let find t name = List.assoc_opt name t.dbs

(* ------------------------------------------------------------------ *)
(* Loading: accept a snapshot written by [extract pack] or XML,
   dispatching on the leading magic. A snapshot that cannot be loaded is
   not fatal when its XML source is still around: warn and rebuild from
   the source instead — the snapshot is only ever a cache of the XML. *)

module Codec = Extract_store.Codec
module Snapshot = Extract_store.Snapshot

(* the retired version-1 arena, bundle and index files *)
let retired_magics = [ "XTRARENA"; "XTRBUNDL"; "XTRINDEX" ]

let load_artifact path = function
  | Some magic when magic = Snapshot.magic -> Some (Pipeline.load_snapshot path)
  | Some magic when List.mem magic retired_magics ->
    raise
      (Codec.Corrupt
         (Printf.sprintf
            "a version-1 artifact (magic %S), which this build no longer reads; pack its \
             source again with `extract pack`"
            magic))
  | Some _ | None -> None

(* candidate XML sources for a bad snapshot: `foo.snap` → `foo.xml`,
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
  match load_artifact path (Snapshot.file_magic path) with
  | None -> Pipeline.of_file path
  | Some db -> db
  | exception (Codec.Corrupt reason as e) -> rebuild_or_reraise reason e
  | exception (Codec.Truncated reason as e) -> rebuild_or_reraise ("truncated: " ^ reason) e
