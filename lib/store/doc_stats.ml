type t = {
  nodes : int;
  elements : int;
  text_nodes : int;
  distinct_tags : int;
  distinct_paths : int;
  max_depth : int;
  entity_paths : int;
  attribute_paths : int;
  connection_paths : int;
  entity_instances : int;
  attribute_instances : int;
}

let compute kinds =
  let doc = Node_kind.document kinds in
  let guide = Node_kind.dataguide kinds in
  let max_depth = ref 0 in
  for n = 0 to Document.node_count doc - 1 do
    if Document.depth doc n > !max_depth then max_depth := Document.depth doc n
  done;
  let count_paths k = List.length (List.filter (fun p -> Node_kind.kind_of_path kinds p = k) (Dataguide.paths guide)) in
  let count_instances k =
    List.fold_left
      (fun acc p ->
        if Node_kind.kind_of_path kinds p = k then acc + Dataguide.instance_count guide p
        else acc)
      0 (Dataguide.paths guide)
  in
  {
    nodes = Document.node_count doc;
    elements = Document.element_count doc;
    text_nodes = Document.node_count doc - Document.element_count doc;
    distinct_tags = Extract_util.Interner.count (Document.tag_interner doc);
    distinct_paths = Dataguide.path_count guide;
    max_depth = !max_depth;
    entity_paths = count_paths Node_kind.Entity;
    attribute_paths = count_paths Node_kind.Attribute;
    connection_paths = count_paths Node_kind.Connection;
    entity_instances = count_instances Node_kind.Entity;
    attribute_instances = count_instances Node_kind.Attribute;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>nodes: %d (elements %d, text %d)@,tags: %d, paths: %d, max depth: %d@,\
     entity paths: %d (%d instances)@,attribute paths: %d (%d instances)@,\
     connection paths: %d@]"
    t.nodes t.elements t.text_nodes t.distinct_tags t.distinct_paths t.max_depth
    t.entity_paths t.entity_instances t.attribute_paths t.attribute_instances
    t.connection_paths

let pp_json ppf t =
  Format.fprintf ppf
    "{ \"nodes\": %d, \"elements\": %d, \"text_nodes\": %d, \"distinct_tags\": %d, \
     \"distinct_paths\": %d, \"max_depth\": %d, \"entity_paths\": %d, \
     \"entity_instances\": %d, \"attribute_paths\": %d, \"attribute_instances\": %d, \
     \"connection_paths\": %d }"
    t.nodes t.elements t.text_nodes t.distinct_tags t.distinct_paths t.max_depth
    t.entity_paths t.entity_instances t.attribute_paths t.attribute_instances
    t.connection_paths

let header =
  [ "nodes"; "elements"; "tags"; "paths"; "depth"; "entities"; "attrs"; "e-inst"; "a-inst" ]

let to_row t =
  [
    string_of_int t.nodes;
    string_of_int t.elements;
    string_of_int t.distinct_tags;
    string_of_int t.distinct_paths;
    string_of_int t.max_depth;
    string_of_int t.entity_paths;
    string_of_int t.attribute_paths;
    string_of_int t.entity_instances;
    string_of_int t.attribute_instances;
  ]
