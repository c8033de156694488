type limits = {
  max_depth : int;
  max_nodes : int;
  max_token_len : int;
}

let default_limits = { max_depth = 512; max_nodes = 50_000_000; max_token_len = 1_000_000 }

(* Mutable budget shared by one parse; [nodes] counts elements and text
   nodes alike so the arena the document becomes is what is bounded. *)
type budget = {
  limits : limits;
  mutable nodes : int;
}

let spend_node lx b =
  b.nodes <- b.nodes + 1;
  if b.nodes > b.limits.max_nodes then
    Lexer.fail lx "document exceeds max_nodes (%d)" b.limits.max_nodes

let check_token lx b what token =
  if String.length token > b.limits.max_token_len then
    Lexer.fail lx "%s longer than max_token_len (%d bytes)" what b.limits.max_token_len

let rec parse_element lx ~keep_whitespace ~budget ~depth =
  (* after '<' *)
  if depth > budget.limits.max_depth then
    Lexer.fail lx "element nesting exceeds max_depth (%d)" budget.limits.max_depth;
  spend_node lx budget;
  let tag = Lexer.take_name lx in
  check_token lx budget "element name" tag;
  let attrs = Markup.parse_attributes lx in
  List.iter
    (fun (a : Types.attribute) ->
      check_token lx budget "attribute name" a.Types.name;
      check_token lx budget "attribute value" a.Types.value)
    attrs;
  Lexer.skip_whitespace lx;
  if Lexer.eat lx "/>" then { Types.tag; attrs; children = [] }
  else begin
    Lexer.expect lx ">";
    let children = parse_content lx ~keep_whitespace ~budget ~depth ~parent:tag in
    { Types.tag; attrs; children }
  end

and parse_content lx ~keep_whitespace ~budget ~depth ~parent =
  let children = ref [] in
  let text_buf = Buffer.create 16 in
  let check_text () =
    if Buffer.length text_buf > budget.limits.max_token_len then
      Lexer.fail lx "text run longer than max_token_len (%d bytes)" budget.limits.max_token_len
  in
  let flush_text () =
    if Buffer.length text_buf > 0 then begin
      let s = Buffer.contents text_buf in
      Buffer.clear text_buf;
      if keep_whitespace || not (Markup.is_blank s) then begin
        spend_node lx budget;
        children := Types.Text s :: !children
      end
    end
  in
  let rec loop () =
    match Lexer.peek lx with
    | None -> Lexer.fail lx "unterminated element <%s>" parent
    | Some '<' ->
      if Lexer.looking_at lx "</" then begin
        flush_text ();
        Lexer.expect lx "</";
        let close = Lexer.take_name lx in
        Lexer.skip_whitespace lx;
        Lexer.expect lx ">";
        if close <> parent then
          Lexer.fail lx "mismatched closing tag: expected </%s>, found </%s>" parent close
      end
      else if Lexer.eat lx "<!--" then begin
        Markup.skip_comment lx;
        loop ()
      end
      else if Lexer.eat lx "<![CDATA[" then begin
        let data = Lexer.take_until lx "]]>" in
        Lexer.expect lx "]]>";
        Buffer.add_string text_buf data;
        check_text ();
        loop ()
      end
      else if Lexer.eat lx "<?" then begin
        Markup.skip_pi lx;
        loop ()
      end
      else begin
        flush_text ();
        Lexer.expect lx "<";
        let e = parse_element lx ~keep_whitespace ~budget ~depth:(depth + 1) in
        children := Types.Element e :: !children;
        loop ()
      end
    | Some '&' ->
      Lexer.advance lx;
      Buffer.add_string text_buf (Markup.parse_reference lx);
      check_text ();
      loop ()
    | Some c ->
      Lexer.advance lx;
      Buffer.add_char text_buf c;
      check_text ();
      loop ()
  in
  loop ();
  List.rev !children

let parse_document ?(keep_whitespace = false) ?(limits = default_limits) input =
  let lx = Lexer.of_string input in
  let budget = { limits; nodes = 0 } in
  let dtd = Markup.parse_prolog lx in
  Lexer.expect lx "<";
  (match Lexer.peek lx with
  | Some c when Lexer.is_name_start c -> ()
  | _ -> Lexer.fail lx "expected the root element");
  let root = parse_element lx ~keep_whitespace ~budget ~depth:1 in
  Markup.skip_misc lx;
  if not (Lexer.at_end lx) then Lexer.fail lx "trailing content after the root element";
  { Types.dtd; root }

let parse_file ?keep_whitespace ?limits path =
  let ic = open_in_bin path in
  let content =
    try really_input_string ic (in_channel_length ic)
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  parse_document ?keep_whitespace ?limits content
