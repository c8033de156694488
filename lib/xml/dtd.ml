type t = {
  order : string list; (* element names in declaration order, reversed *)
  models : (string, Content_model.t) Hashtbl.t;
}

let rep_of lx =
  if Lexer.eat lx "?" then Content_model.Opt
  else if Lexer.eat lx "*" then Content_model.Star
  else if Lexer.eat lx "+" then Content_model.Plus
  else Content_model.Once

(* children ::= (choice | seq) ('?' | '*' | '+')? — after the opening '('. *)
let rec parse_group lx =
  Lexer.skip_whitespace lx;
  let first = parse_cp lx in
  Lexer.skip_whitespace lx;
  match Lexer.peek lx with
  | Some ')' ->
    Lexer.advance lx;
    { Content_model.item = Seq [ first ]; rep = rep_of lx }
  | Some ',' ->
    let parts = parse_rest lx "," [ first ] in
    { Content_model.item = Seq parts; rep = rep_of lx }
  | Some '|' ->
    let parts = parse_rest lx "|" [ first ] in
    { Content_model.item = Choice parts; rep = rep_of lx }
  | _ -> Lexer.fail lx "expected ')', ',' or '|' in content model"

and parse_rest lx sep acc =
  if Lexer.eat lx sep then begin
    Lexer.skip_whitespace lx;
    let p = parse_cp lx in
    Lexer.skip_whitespace lx;
    parse_rest lx sep (p :: acc)
  end
  else begin
    Lexer.expect lx ")";
    List.rev acc
  end

and parse_cp lx =
  Lexer.skip_whitespace lx;
  if Lexer.eat lx "(" then parse_group lx
  else begin
    let name = Lexer.take_name lx in
    { Content_model.item = Name name; rep = rep_of lx }
  end

let parse_content_model lx =
  Lexer.skip_whitespace lx;
  if Lexer.eat lx "EMPTY" then Content_model.Empty
  else if Lexer.eat lx "ANY" then Content_model.Any
  else if Lexer.eat lx "(" then begin
    Lexer.skip_whitespace lx;
    if Lexer.eat lx "#PCDATA" then begin
      Lexer.skip_whitespace lx;
      if Lexer.eat lx ")" then begin
        let _ = Lexer.eat lx "*" in
        Content_model.Pcdata
      end
      else begin
        let rec names acc =
          Lexer.skip_whitespace lx;
          if Lexer.eat lx "|" then begin
            Lexer.skip_whitespace lx;
            let n = Lexer.take_name lx in
            names (n :: acc)
          end
          else begin
            Lexer.expect lx ")";
            Lexer.expect lx "*";
            List.rev acc
          end
        in
        Content_model.Mixed (names [])
      end
    end
    else Content_model.Children (parse_group lx)
  end
  else Lexer.fail lx "expected a content model (EMPTY, ANY or '(')"

(* a single- or double-quoted literal, e.g. an attribute default *)
let skip_quoted lx =
  let quote =
    if Lexer.eat lx "\"" then "\""
    else if Lexer.eat lx "'" then "'"
    else Lexer.fail lx "expected a quoted literal"
  in
  ignore (Lexer.take_until lx quote);
  Lexer.expect lx quote

(* ATTLIST declarations are checked for syntax and dropped: nothing
   reads declared XML attributes. *)
let skip_attlist lx =
  Lexer.expect_whitespace lx;
  let _element = Lexer.take_name lx in
  let rec decls () =
    Lexer.skip_whitespace lx;
    match Lexer.peek lx with
    | Some '>' -> Lexer.advance lx
    | Some _ ->
      let _name = Lexer.take_name lx in
      Lexer.expect_whitespace lx;
      if Lexer.eat lx "(" then begin
        let _ = Lexer.take_until lx ")" in
        Lexer.expect lx ")"
      end
      else ignore (Lexer.take_name lx);
      Lexer.skip_whitespace lx;
      if not (Lexer.eat lx "#REQUIRED" || Lexer.eat lx "#IMPLIED") then begin
        if Lexer.eat lx "#FIXED" then Lexer.skip_whitespace lx;
        skip_quoted lx
      end;
      decls ()
    | None -> Lexer.fail lx "unterminated ATTLIST"
  in
  decls ()

let parse subset =
  let lx = Lexer.of_string subset in
  let models = Hashtbl.create 16 in
  let order = ref [] in
  let rec loop () =
    Lexer.skip_whitespace lx;
    if Lexer.at_end lx then ()
    else if Lexer.eat lx "<!--" then begin
      let _ = Lexer.take_until lx "-->" in
      Lexer.expect lx "-->";
      loop ()
    end
    else if Lexer.eat lx "<?" then begin
      let _ = Lexer.take_until lx "?>" in
      Lexer.expect lx "?>";
      loop ()
    end
    else if Lexer.eat lx "<!ELEMENT" then begin
      Lexer.expect_whitespace lx;
      let name = Lexer.take_name lx in
      Lexer.expect_whitespace lx;
      let model = parse_content_model lx in
      Lexer.skip_whitespace lx;
      Lexer.expect lx ">";
      if not (Hashtbl.mem models name) then order := name :: !order;
      Hashtbl.replace models name model;
      loop ()
    end
    else if Lexer.eat lx "<!ATTLIST" then begin
      skip_attlist lx;
      loop ()
    end
    else if Lexer.eat lx "<!ENTITY" || Lexer.eat lx "<!NOTATION" then begin
      let _ = Lexer.take_until lx ">" in
      Lexer.expect lx ">";
      loop ()
    end
    else if Lexer.looking_at lx "%" then
      Lexer.fail lx "parameter entities are not supported"
    else Lexer.fail lx "expected a markup declaration"
  in
  loop ();
  { order = !order; models }

let element_names t = List.rev t.order

let element_model t name = Hashtbl.find_opt t.models name

let is_star_child t ~parent ~child =
  match element_model t parent with
  | None -> None
  | Some model -> Some (Content_model.may_repeat model child)

let pp ppf t =
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.models name with
      | Some model ->
        Format.fprintf ppf "<!ELEMENT %s %s>@." name (Content_model.to_string model)
      | None -> ())
    (element_names t)
