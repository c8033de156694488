module Arraylist = Extract_util.Arraylist

type path = int

type t = {
  doc : Document.t;
  node_path : Document.int_arr;       (* per node; -1 for text nodes *)
  path_parent : int array;            (* -1 for the root path *)
  path_tag : int array;
  path_depth : int array;
  counts : int array;
  index : (int * int, path) Hashtbl.t; (* (parent path, tag id) -> path *)
}

let index_of ~parent ~tag =
  let index = Hashtbl.create 64 in
  Array.iteri (fun p parent -> Hashtbl.replace index (parent, tag.(p)) p) parent;
  index

let build doc =
  let n = Document.node_count doc in
  let node_path = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill node_path (-1);
  let path_parent = Arraylist.create () in
  let path_tag = Arraylist.create () in
  let path_depth = Arraylist.create () in
  let counts = Arraylist.create () in
  let index = Hashtbl.create 64 in
  let fresh ~parent ~tag ~depth =
    let id = Arraylist.length path_tag in
    Arraylist.push path_parent parent;
    Arraylist.push path_tag tag;
    Arraylist.push path_depth depth;
    Arraylist.push counts 0;
    id
  in
  for node = 0 to n - 1 do
    if Document.is_element doc node then begin
      let tag = Document.tag_id doc node in
      let parent_path =
        match Document.parent doc node with
        | None -> -1
        | Some p -> node_path.{p}
      in
      let path =
        match Hashtbl.find_opt index (parent_path, tag) with
        | Some id -> id
        | None ->
          let id = fresh ~parent:parent_path ~tag ~depth:(Document.depth doc node) in
          Hashtbl.add index (parent_path, tag) id;
          id
      in
      node_path.{node} <- path;
      Arraylist.set counts path (Arraylist.get counts path + 1)
    end
  done;
  {
    doc;
    node_path;
    path_parent = Arraylist.to_array path_parent;
    path_tag = Arraylist.to_array path_tag;
    path_depth = Arraylist.to_array path_depth;
    counts = Arraylist.to_array counts;
    index;
  }

let adopt doc ~node_path ~parent ~tag ~depth ~counts =
  {
    doc;
    node_path;
    path_parent = parent;
    path_tag = tag;
    path_depth = depth;
    counts;
    index = index_of ~parent ~tag;
  }

let document t = t.doc

let path_column t = t.node_path

let path_count t = Array.length t.path_tag

let path_of_node t node =
  let p = t.node_path.{node} in
  if p < 0 then
    invalid_arg (Printf.sprintf "Dataguide.path_of_node: node %d is a text node" node);
  p

let parent_path t path =
  let p = t.path_parent.(path) in
  if p < 0 then None else Some p

let path_tag t path = t.path_tag.(path)

let path_tag_name t path =
  Extract_util.Interner.name (Document.tag_interner t.doc) (path_tag t path)

let path_depth t path = t.path_depth.(path)

let instance_count t path = t.counts.(path)

let path_string t path =
  let rec up acc path =
    let acc = path_tag_name t path :: acc in
    match parent_path t path with
    | None -> acc
    | Some p -> up acc p
  in
  "/" ^ String.concat "/" (up [] path)

let find_path t tags =
  let rec walk current = function
    | [] -> current
    | tag :: rest -> begin
      match Document.tag_of_name t.doc tag with
      | None -> None
      | Some tag_id -> begin
        let parent = match current with None -> -1 | Some p -> p in
        match Hashtbl.find_opt t.index (parent, tag_id) with
        | Some p -> walk (Some p) rest
        | None -> None
      end
    end
  in
  match tags with
  | [] -> None
  | _ -> walk None tags

let paths t = List.init (path_count t) Fun.id

let instances t path =
  let acc = ref [] in
  for node = Bigarray.Array1.dim t.node_path - 1 downto 0 do
    if t.node_path.{node} = path then acc := node :: !acc
  done;
  !acc
