type attribute = { name : string; value : string }

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : attribute list;
  children : t list;
}

type document = {
  dtd : string option;
  root : element;
}

let element ?(attrs = []) tag children =
  Element { tag; attrs = List.map (fun (name, value) -> { name; value }) attrs; children }

let leaf tag value = element tag [ Text value ]

let tag = function
  | Element e -> Some e.tag
  | Text _ -> None

let child_elements e =
  List.filter_map
    (function
      | Element c -> Some c
      | Text _ -> None)
    e.children

let find_child e tag = List.find_opt (fun c -> c.tag = tag) (child_elements e)

let find_children e tag = List.filter (fun c -> c.tag = tag) (child_elements e)

let rec text_content = function
  | Text s -> s
  | Element e -> String.concat "" (List.map text_content e.children)

let attr e name =
  List.find_map (fun a -> if a.name = name then Some a.value else None) e.attrs

let rec count_nodes = function
  | Text _ -> 1
  | Element e -> 1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 e.children

let rec count_elements = function
  | Text _ -> 0
  | Element e -> 1 + List.fold_left (fun acc c -> acc + count_elements c) 0 e.children
