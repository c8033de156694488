module Document = Extract_store.Document

(* A subtree is contiguous in pre-order, so a result is the interval
   [root, subtree_last root] of the arena and holds no per-result data. *)
type t = {
  doc : Document.t;
  root : Document.node;
  last : Document.node;
}

let full doc root = { doc; root; last = Document.subtree_last doc root }

let document t = t.doc

let root t = t.root

let mem t n = t.root <= n && n <= t.last

let size t = t.last - t.root + 1

let iter_elements t f =
  for n = t.root to t.last do
    if Document.is_element t.doc n then f n
  done

let element_size t =
  let count = ref 0 in
  iter_elements t (fun _ -> incr count);
  !count

let restrict_matches t postings = Extract_store.Postings.in_subtree t.doc postings t.root

let text_of t =
  let buf = Buffer.create 128 in
  for n = t.root to t.last do
    if not (Document.is_element t.doc n) then begin
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Document.text t.doc n)
    end
  done;
  Buffer.contents buf

let rec xml_of doc n =
  if Document.is_element doc n then
    Extract_xml.Types.Element
      {
        Extract_xml.Types.tag = Document.tag_name doc n;
        attrs = [];
        children = List.map (xml_of doc) (Document.children doc n);
      }
  else Extract_xml.Types.Text (Document.text doc n)

let to_xml t = xml_of t.doc t.root
