type candidate = {
  attribute : Dataguide.path;
  coverage : float;
  uniqueness : float;
  strict : bool;
}

type t = {
  kinds : Node_kind.t;
  by_entity : (Dataguide.path, candidate list) Hashtbl.t;
  key : (Dataguide.path, Dataguide.path) Hashtbl.t;        (* entity -> key attr, with fallback *)
  strict_key : (Dataguide.path, Dataguide.path) Hashtbl.t; (* entity -> strict key attr *)
}

let preferred_names = [ "id"; "key"; "name"; "title" ]

let preference_rank name =
  let rec find i = function
    | [] -> List.length preferred_names
    | n :: rest -> if String.equal n name then i else find (i + 1) rest
  in
  find 0 preferred_names

let better kinds a b =
  (* true when a should rank before b *)
  let guide = Node_kind.dataguide kinds in
  let name p = Dataguide.path_tag_name guide p in
  if a.strict <> b.strict then a.strict
  else if a.uniqueness <> b.uniqueness then a.uniqueness > b.uniqueness
  else if a.coverage <> b.coverage then a.coverage > b.coverage
  else begin
    let ra = preference_rank (name a.attribute) and rb = preference_rank (name b.attribute) in
    if ra <> rb then ra < rb else a.attribute < b.attribute
  end

let adopt kinds entries =
  let by_entity = Hashtbl.create 16 in
  let key = Hashtbl.create 16 in
  let strict_key = Hashtbl.create 16 in
  List.iter
    (fun (entity, cands, k, strict) ->
      Hashtbl.replace by_entity entity cands;
      Option.iter (Hashtbl.replace key entity) k;
      Option.iter (Hashtbl.replace strict_key entity) strict)
    entries;
  { kinds; by_entity; key; strict_key }

(* One pass over the entity instances. A candidate path is an attribute
   path whose parent path is an entity; an instance covers it when
   exactly one of its children lies on it. Per path, [stamp] holds the
   instance whose children were last counted there, so no per-instance
   table is needed: the first loop over an instance's children counts
   them, the second visits each candidate's sole child. *)
let mine kinds =
  let guide = Node_kind.dataguide kinds in
  let doc = Node_kind.document kinds in
  let n_paths = Dataguide.path_count guide in
  let is_entity p = Node_kind.kind_of_path kinds p = Node_kind.Entity in
  let candidate =
    Array.init n_paths (fun p ->
        Node_kind.kind_of_path kinds p = Node_kind.Attribute
        && match Dataguide.parent_path guide p with Some e -> is_entity e | None -> false)
  in
  let values = Array.init n_paths (fun p -> Hashtbl.create (if candidate.(p) then 16 else 1)) in
  let covered = Array.make n_paths 0 in
  let stamp = Array.make n_paths (-1) in
  let hits = Array.make n_paths 0 in
  let candidate_child c =
    if Document.is_element doc c then
      let p = Dataguide.path_of_node guide c in
      if candidate.(p) then p else -1
    else -1
  in
  for e = 0 to Document.node_count doc - 1 do
    if Document.is_element doc e && is_entity (Dataguide.path_of_node guide e) then begin
      Document.iter_children doc e (fun c ->
          let p = candidate_child c in
          if p >= 0 then
            if stamp.(p) = e then hits.(p) <- hits.(p) + 1
            else begin
              stamp.(p) <- e;
              hits.(p) <- 1
            end);
      Document.iter_children doc e (fun c ->
          let p = candidate_child c in
          if p >= 0 && hits.(p) = 1 then begin
            covered.(p) <- covered.(p) + 1;
            Hashtbl.replace values.(p) (Node_kind.attribute_value kinds c) ()
          end)
    end
  done;
  let stats attribute entity =
    let n = Dataguide.instance_count guide entity and covered = covered.(attribute) in
    let distinct = Hashtbl.length values.(attribute) in
    {
      attribute;
      coverage = (if n = 0 then 0.0 else float_of_int covered /. float_of_int n);
      uniqueness = (if covered = 0 then 0.0 else float_of_int distinct /. float_of_int covered);
      strict = covered = n && n > 0 && distinct = covered;
    }
  in
  let children = Array.make n_paths [] in
  for p = n_paths - 1 downto 0 do
    if candidate.(p) then
      Option.iter
        (fun e -> children.(e) <- stats p e :: children.(e))
        (Dataguide.parent_path guide p)
  done;
  adopt kinds
    (List.map
       (fun entity ->
         let cands =
           List.sort
             (fun a b -> if better kinds a b then -1 else if better kinds b a then 1 else 0)
             children.(entity)
         in
         let key =
           match cands with
           | best :: _ when best.strict || (best.coverage >= 0.5 && best.uniqueness >= 0.5) ->
             Some best.attribute
           | _ -> None
         in
         let strict = List.find_opt (fun c -> c.strict) cands in
         entity, cands, key, Option.map (fun c -> c.attribute) strict)
       (Node_kind.entity_paths kinds))

let kinds t = t.kinds

let key_path t entity = Hashtbl.find_opt t.key entity

let strict_key_path t entity = Hashtbl.find_opt t.strict_key entity

let candidates t entity = Option.value ~default:[] (Hashtbl.find_opt t.by_entity entity)

let key_of_instance t e =
  let guide = Node_kind.dataguide t.kinds in
  let doc = Node_kind.document t.kinds in
  match key_path t (Dataguide.path_of_node guide e) with
  | None -> None
  | Some key_attr ->
    let attr_tag = Dataguide.path_tag guide key_attr in
    let found = ref None in
    Document.iter_children doc e (fun c ->
        if !found = None && Document.is_element doc c && Document.tag_id doc c = attr_tag
        then found := Some c);
    Option.map (fun a -> a, Node_kind.attribute_value t.kinds a) !found
