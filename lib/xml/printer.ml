let escape gen s =
  let needs_escape = String.exists (fun c -> gen c <> None) s in
  if not needs_escape then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match gen c with
        | Some rep -> Buffer.add_string buf rep
        | None -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let escape_text =
  escape (function
    | '&' -> Some "&amp;"
    | '<' -> Some "&lt;"
    | '>' -> Some "&gt;"
    | _ -> None)

let escape_attr =
  escape (function
    | '&' -> Some "&amp;"
    | '<' -> Some "&lt;"
    | '>' -> Some "&gt;"
    | '"' -> Some "&quot;"
    | '\'' -> Some "&apos;"
    | _ -> None)

let add_attrs buf attrs =
  List.iter
    (fun (a : Types.attribute) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf a.name;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr a.value);
      Buffer.add_char buf '"')
    attrs

let rec emit buf ~indent ~level node =
  let pad n =
    match indent with
    | Some step ->
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (step * n) ' ')
    | None -> ()
  in
  match node with
  | Types.Text s ->
    pad level;
    Buffer.add_string buf (escape_text s)
  | Types.Element e ->
    pad level;
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    (match e.children with
    | [] -> Buffer.add_string buf "/>"
    | [ Types.Text s ] ->
      (* keep leaf elements on one line: <name>value</name> *)
      Buffer.add_char buf '>';
      Buffer.add_string buf (escape_text s);
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
    | children ->
      Buffer.add_char buf '>';
      List.iter (emit buf ~indent ~level:(level + 1)) children;
      pad level;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>')

let to_string ?(indent = Some 2) node =
  let buf = Buffer.create 1024 in
  emit buf ~indent ~level:0 node;
  Buffer.contents buf

let document_to_string ?(indent = Some 2) ?dtd (doc : Types.document) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  (match dtd, doc.dtd with
  | Some subset, _ | None, Some subset ->
    Buffer.add_string buf "<!DOCTYPE ";
    Buffer.add_string buf doc.root.tag;
    Buffer.add_string buf " [";
    Buffer.add_string buf subset;
    Buffer.add_string buf "]>\n"
  | None, None -> ());
  Buffer.add_string buf (to_string ~indent (Types.Element doc.root));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file path ?indent doc =
  let oc = open_out_bin path in
  (try output_string oc (document_to_string ?indent doc)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc
