type t = {
  guide : Dataguide.t;
  starred : bool array;
  sources : bool array; (* true when the DTD decided *)
}

let infer ?dtd guide =
  let doc = Dataguide.document guide in
  let dtd =
    match dtd with
    | Some _ -> dtd
    | None -> Document.dtd doc
  in
  let n_paths = Dataguide.path_count guide in
  let starred = Array.make n_paths false in
  let sources = Array.make n_paths false in
  (* Data evidence: a path is starred when some single parent has >= 2
     children on it. In pre-order, two consecutive element visits on one
     path share a parent exactly when that parent has two children on it:
     whatever lies between them is deeper, or a sibling on another path.
     So one pass remembers, per path, the parent of its last visit. *)
  let last_parent = Array.make n_paths (-1) in
  for node = 1 to Document.node_count doc - 1 do
    if Document.is_element doc node then begin
      let p = Dataguide.path_of_node guide node in
      let parent = Document.parent_exn doc node in
      if last_parent.(p) = parent then starred.(p) <- true else last_parent.(p) <- parent
    end
  done;
  (* DTD evidence overrides data evidence where the parent is declared. *)
  (match dtd with
  | None -> ()
  | Some dtd ->
    for p = 0 to n_paths - 1 do
      match Dataguide.parent_path guide p with
      | None -> ()
      | Some parent ->
        let parent_tag = Dataguide.path_tag_name guide parent in
        let child_tag = Dataguide.path_tag_name guide p in
        (match Extract_xml.Dtd.is_star_child dtd ~parent:parent_tag ~child:child_tag with
        | Some b ->
          starred.(p) <- b;
          sources.(p) <- true
        | None -> ())
    done);
  { guide; starred; sources }

let adopt guide ~starred ~sources = { guide; starred; sources }

let dataguide t = t.guide

let is_starred t path = t.starred.(path)

let starred_paths t =
  List.filter (fun p -> t.starred.(p)) (Dataguide.paths t.guide)

let source t path = if t.sources.(path) then `Dtd else `Data
