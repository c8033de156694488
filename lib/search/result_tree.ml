module Document = Extract_store.Document

type t = {
  doc : Document.t;
  root : Document.node;
  members : Document.node array; (* sorted, ancestor-closed, root included *)
  member_set : (Document.node, unit) Hashtbl.t;
}

let of_sorted_members doc root members =
  let member_set = Hashtbl.create (Array.length members) in
  Array.iter (fun n -> Hashtbl.replace member_set n ()) members;
  { doc; root; members; member_set }

let full doc root =
  let last = Document.subtree_last doc root in
  let members = Array.init (last - root + 1) (fun i -> root + i) in
  of_sorted_members doc root members

let close_upward doc root nodes =
  let set = Hashtbl.create 64 in
  let rec add n =
    if not (Hashtbl.mem set n) then begin
      Hashtbl.add set n ();
      if n <> root then
        match Document.parent doc n with
        | Some p -> add p
        | None ->
          invalid_arg "Result_tree: a member does not descend from the root"
    end
  in
  List.iter
    (fun n ->
      if not (Document.is_ancestor_or_self doc ~anc:root ~desc:n) then
        invalid_arg "Result_tree: a member lies outside the root's subtree";
      add n)
    nodes;
  add root;
  let members = Hashtbl.fold (fun n () acc -> n :: acc) set [] in
  Array.of_list (List.sort Int.compare members)

let of_members doc ~root nodes =
  of_sorted_members doc root (close_upward doc root nodes)

let match_paths doc ~root ~matches = of_members doc ~root matches

let document t = t.doc

let root t = t.root

let mem t n = Hashtbl.mem t.member_set n

let size t = Array.length t.members

let element_size t =
  Array.fold_left (fun acc n -> if Document.is_element t.doc n then acc + 1 else acc) 0 t.members

let members t = t.members

let children t n =
  List.filter (fun c -> mem t c) (Document.children t.doc n)

let iter_elements t f =
  Array.iter (fun n -> if Document.is_element t.doc n then f n) t.members

(* The members all lie in [root, subtree_last root], so only the postings
   in that interval can qualify: binary-search the range instead of
   scanning the whole list (postings scale with the document, the range
   with the result). *)
let restrict_matches t postings =
  let lo, hi = Extract_store.Postings.subtree_range t.doc postings t.root in
  let out = ref [] in
  for i = hi - 1 downto lo do
    let n = postings.(i) in
    if mem t n then out := n :: !out
  done;
  !out

let text_of t =
  let buf = Buffer.create 128 in
  Array.iter
    (fun n ->
      if not (Document.is_element t.doc n) then begin
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (Document.text t.doc n)
      end)
    t.members;
  Buffer.contents buf

let rec xml_of t n =
  if Document.is_element t.doc n then
    Extract_xml.Types.Element
      {
        Extract_xml.Types.tag = Document.tag_name t.doc n;
        attrs = [];
        children = List.map (xml_of t) (children t n);
      }
  else Extract_xml.Types.Text (Document.text t.doc n)

let to_xml t = xml_of t t.root
