type event =
  | Start_element of string * (string * string) list
  | Text of string
  | End_element of string

(* One pass with an explicit open-element stack; text runs are buffered and
   flushed (merged) before any structural event, mirroring the tree
   parser's node shape. *)
let fold_document ?(keep_whitespace = false) input ~init ~f =
  let lx = Lexer.of_string input in
  let dtd = Markup.parse_prolog lx in
  let acc = ref init in
  let emit ev = acc := f !acc ev in
  let text_buf = Buffer.create 64 in
  let flush_text () =
    if Buffer.length text_buf > 0 then begin
      let s = Buffer.contents text_buf in
      Buffer.clear text_buf;
      if keep_whitespace || not (Markup.is_blank s) then emit (Text s)
    end
  in
  let stack = ref [] in
  let open_element () =
    let tag = Lexer.take_name lx in
    let attrs = Markup.parse_attributes lx in
    let attrs = List.map (fun (a : Types.attribute) -> a.Types.name, a.Types.value) attrs in
    Lexer.skip_whitespace lx;
    emit (Start_element (tag, attrs));
    if Lexer.eat lx "/>" then emit (End_element tag)
    else begin
      Lexer.expect lx ">";
      stack := tag :: !stack
    end
  in
  (* root element *)
  Lexer.expect lx "<";
  (match Lexer.peek lx with
  | Some c when Lexer.is_name_start c -> ()
  | _ -> Lexer.fail lx "expected the root element");
  open_element ();
  while !stack <> [] do
    match Lexer.peek lx with
    | None ->
      (match !stack with
      | parent :: _ -> Lexer.fail lx "unterminated element <%s>" parent
      | [] -> assert false)
    | Some '<' ->
      if Lexer.looking_at lx "</" then begin
        flush_text ();
        Lexer.expect lx "</";
        let close = Lexer.take_name lx in
        Lexer.skip_whitespace lx;
        Lexer.expect lx ">";
        (match !stack with
        | parent :: rest ->
          if close <> parent then
            Lexer.fail lx "mismatched closing tag: expected </%s>, found </%s>" parent close;
          stack := rest;
          emit (End_element close)
        | [] -> assert false)
      end
      else if Lexer.eat lx "<!--" then Markup.skip_comment lx
      else if Lexer.eat lx "<![CDATA[" then begin
        let data = Lexer.take_until lx "]]>" in
        Lexer.expect lx "]]>";
        Buffer.add_string text_buf data
      end
      else if Lexer.eat lx "<?" then Markup.skip_pi lx
      else begin
        flush_text ();
        Lexer.expect lx "<";
        open_element ()
      end
    | Some '&' ->
      Lexer.advance lx;
      Buffer.add_string text_buf (Markup.parse_reference lx)
    | Some c ->
      Lexer.advance lx;
      Buffer.add_char text_buf c
  done;
  Markup.skip_misc lx;
  if not (Lexer.at_end lx) then Lexer.fail lx "trailing content after the root element";
  !acc, dtd

let fold ?keep_whitespace input ~init ~f =
  fst (fold_document ?keep_whitespace input ~init ~f)

let count_elements input =
  fold input ~init:0 ~f:(fun n ev ->
      match ev with
      | Start_element _ -> n + 1
      | Text _ | End_element _ -> n)
