type kind = Entity | Attribute | Connection

type t = {
  guide : Dataguide.t;
  schema : Schema_infer.t;
  kinds : kind array; (* per path *)
}

let trim = String.trim

let classify ?dtd guide =
  let doc = Dataguide.document guide in
  let schema = Schema_infer.infer ?dtd guide in
  let n_paths = Dataguide.path_count guide in
  (* A path can be an attribute only if no instance has an element child. *)
  let has_element_child = Array.make n_paths false in
  for node = 0 to Document.node_count doc - 1 do
    if Document.is_element doc node then begin
      match Document.parent doc node with
      | Some p when Document.is_element doc p ->
        has_element_child.(Dataguide.path_of_node guide p) <- true
      | _ -> ()
    end
  done;
  let kinds =
    Array.init n_paths (fun path ->
        if Schema_infer.is_starred schema path then Entity
        else if not has_element_child.(path) && Dataguide.parent_path guide path <> None
        then Attribute
        else Connection)
  in
  { guide; schema; kinds }

let adopt schema kinds = { guide = Schema_infer.dataguide schema; schema; kinds }

let of_document doc = classify (Dataguide.build doc)

let dataguide t = t.guide

let document t = Dataguide.document t.guide

let schema t = t.schema

let kind_of_path t path = t.kinds.(path)

let kind_of_node t node = t.kinds.(Dataguide.path_of_node t.guide node)

let is_entity t node = kind_of_node t node = Entity

let is_attribute t node = kind_of_node t node = Attribute

let filter_paths t k =
  List.filter (fun p -> t.kinds.(p) = k) (Dataguide.paths t.guide)

let entity_paths t = filter_paths t Entity

let attribute_paths t = filter_paths t Attribute

let entity_of_attribute t path =
  if t.kinds.(path) <> Attribute then None
  else begin
    let rec up p =
      match Dataguide.parent_path t.guide p with
      | None -> None
      | Some parent -> if t.kinds.(parent) = Entity then Some parent else up parent
    in
    up path
  end

let nearest_entity_ancestor t node =
  let doc = document t in
  let rec up n =
    match Document.parent doc n with
    | None -> None
    | Some p ->
      if Document.is_element doc p && kind_of_node t p = Entity then Some p else up p
  in
  up node

let attribute_value t node = trim (Document.immediate_text (document t) node)

let string_of_kind = function
  | Entity -> "entity"
  | Attribute -> "attribute"
  | Connection -> "connection"

let pp_kind ppf k = Format.pp_print_string ppf (string_of_kind k)
