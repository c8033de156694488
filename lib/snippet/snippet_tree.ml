module Document = Extract_store.Document
module Result_tree = Extract_search.Result_tree
module Pretty = Extract_util.Pretty

type t = {
  result : Result_tree.t;
  set : (Document.node, unit) Hashtbl.t;
  mutable elements : int;
}

let create result =
  let set = Hashtbl.create 32 in
  Hashtbl.replace set (Result_tree.root result) ();
  { result; set; elements = 1 }

let copy t = { t with set = Hashtbl.copy t.set }

let result t = t.result

let mem t n = Hashtbl.mem t.set n

let element_count t = t.elements

let edge_count t = t.elements - 1

let check t n =
  let doc = Result_tree.document t.result in
  if not (Result_tree.mem t.result n) || not (Document.is_element doc n) then
    invalid_arg (Printf.sprintf "Snippet_tree: node %d is not a result element" n)

(* The missing element nodes between [n] (inclusive) and the nearest
   snippet member above it, nearest-to-snippet last. The snippet holds the
   result root and a result is a whole subtree, so the walk stays inside
   the result. *)
let missing_path t n =
  let doc = Result_tree.document t.result in
  let rec up acc n =
    if Hashtbl.mem t.set n then acc
    else begin
      match Document.parent doc n with
      | Some p -> up (n :: acc) p
      | None -> n :: acc
    end
  in
  up [] n

let cost_of t n =
  check t n;
  List.length (missing_path t n)

let add t n =
  check t n;
  let path = missing_path t n in
  List.iter (fun m -> Hashtbl.replace t.set m ()) path;
  t.elements <- t.elements + List.length path;
  path

let remove t path =
  List.iter
    (fun m ->
      if Hashtbl.mem t.set m then begin
        Hashtbl.remove t.set m;
        t.elements <- t.elements - 1
      end)
    path

let nodes t =
  Hashtbl.fold (fun n () acc -> n :: acc) t.set [] |> List.sort Int.compare

let contains_any t instances = Array.exists (fun n -> Hashtbl.mem t.set n) instances

let snippet_children t n =
  Document.children (Result_tree.document t.result) n
  |> List.filter (fun c -> Hashtbl.mem t.set c)

let truncate_value max_value v =
  match max_value with
  | Some cap when cap >= 0 && String.length v > cap ->
    (* cut at a byte boundary; good enough for display *)
    String.sub v 0 cap ^ "…"
  | Some _ | None -> v

let label ?max_value t n =
  let doc = Result_tree.document t.result in
  if Document.has_only_text_children doc n then
    Printf.sprintf "%s \"%s\"" (Document.tag_name doc n)
      (truncate_value max_value (String.trim (Document.immediate_text doc n)))
  else Document.tag_name doc n

let rec pretty_of ?max_value t n =
  Pretty.Node (label ?max_value t n, List.map (pretty_of ?max_value t) (snippet_children t n))

let to_pretty ?max_value t = pretty_of ?max_value t (Result_tree.root t.result)

let render ?max_value t = Pretty.render (to_pretty ?max_value t)

let rec xml_of t n =
  let doc = Result_tree.document t.result in
  let children =
    if Document.has_only_text_children doc n then
      [ Extract_xml.Types.Text (String.trim (Document.immediate_text doc n)) ]
    else List.map (xml_of t) (snippet_children t n)
  in
  Extract_xml.Types.Element { Extract_xml.Types.tag = Document.tag_name doc n; attrs = []; children }

let to_xml t = xml_of t (Result_tree.root t.result)
