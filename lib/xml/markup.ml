let resolve_named_entity lx name =
  match name with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ -> Lexer.fail lx "unknown entity &%s; (custom general entities are not supported)" name

(* Encode a Unicode scalar value as UTF-8 bytes. *)
let utf8_encode lx code =
  let buf = Buffer.create 4 in
  if code < 0 then Lexer.fail lx "negative character reference"
  else if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code <= 0x10FFFF then begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else Lexer.fail lx "character reference out of Unicode range: %d" code;
  Buffer.contents buf

let parse_reference lx =
  if Lexer.eat lx "#x" || Lexer.eat lx "#X" then begin
    let digits = Lexer.take_while lx (function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false)
    in
    if digits = "" then Lexer.fail lx "empty hexadecimal character reference";
    Lexer.expect lx ";";
    utf8_encode lx (int_of_string ("0x" ^ digits))
  end
  else if Lexer.eat lx "#" then begin
    let digits = Lexer.take_while lx (function '0' .. '9' -> true | _ -> false) in
    if digits = "" then Lexer.fail lx "empty character reference";
    Lexer.expect lx ";";
    utf8_encode lx (int_of_string digits)
  end
  else begin
    let name = Lexer.take_name lx in
    Lexer.expect lx ";";
    resolve_named_entity lx name
  end

(* The value is copied once: a run up to the closing quote is taken
   whole, and pieces are joined only when a reference splits it. *)
let parse_attr_value lx =
  let quote =
    if Lexer.eat lx "\"" then '"'
    else if Lexer.eat lx "'" then '\''
    else Lexer.fail lx "expected a quoted attribute value"
  in
  let rec loop pieces =
    let run = Lexer.take_while lx (fun c -> c <> quote && c <> '<' && c <> '&') in
    if Lexer.at_end lx then Lexer.fail lx "unterminated attribute value"
    else if Lexer.eat lx "&" then loop (parse_reference lx :: run :: pieces)
    else if Lexer.looking_at lx "<" then Lexer.fail lx "'<' is not allowed in attribute values"
    else begin
      Lexer.advance lx;
      match pieces with
      | [] -> run
      | _ -> String.concat "" (List.rev (run :: pieces))
    end
  in
  loop []

let rec attributes lx acc =
  Lexer.skip_whitespace lx;
  if Lexer.at_name_start lx then begin
    let name = Lexer.take_name lx in
    Lexer.skip_whitespace lx;
    Lexer.expect lx "=";
    Lexer.skip_whitespace lx;
    let value = parse_attr_value lx in
    if List.mem_assoc name acc then Lexer.fail lx "duplicate attribute %S" name;
    attributes lx ((name, value) :: acc)
  end
  else List.rev acc

let parse_attributes lx = attributes lx []

let skip_comment lx =
  let _ = Lexer.take_until lx "--" in
  Lexer.expect lx "--";
  if not (Lexer.eat lx ">") then Lexer.fail lx "'--' is not allowed inside comments"

let skip_pi lx =
  let _ = Lexer.take_until lx "?>" in
  Lexer.expect lx "?>"

(* [<!DOCTYPE name SYSTEM "..." [subset]>]; we capture the bracketed
   internal subset verbatim and ignore external identifiers. *)
let parse_doctype lx =
  Lexer.expect_whitespace lx;
  let _name = Lexer.take_name lx in
  Lexer.skip_whitespace lx;
  if Lexer.eat lx "SYSTEM" then begin
    Lexer.skip_whitespace lx;
    let _ = parse_attr_value lx in
    Lexer.skip_whitespace lx
  end
  else if Lexer.eat lx "PUBLIC" then begin
    Lexer.skip_whitespace lx;
    let _ = parse_attr_value lx in
    Lexer.skip_whitespace lx;
    let _ = parse_attr_value lx in
    Lexer.skip_whitespace lx
  end;
  let subset =
    if Lexer.eat lx "[" then begin
      let s = Lexer.take_until lx "]" in
      Lexer.expect lx "]";
      Lexer.skip_whitespace lx;
      Some s
    end
    else None
  in
  Lexer.expect lx ">";
  subset

let skip_misc lx =
  let rec loop () =
    Lexer.skip_whitespace lx;
    if Lexer.eat lx "<!--" then begin
      skip_comment lx;
      loop ()
    end
    else if Lexer.looking_at lx "<?" && not (Lexer.looking_at lx "<?xml ") then begin
      Lexer.expect lx "<?";
      skip_pi lx;
      loop ()
    end
  in
  loop ()

let parse_prolog lx =
  let _ = Lexer.eat lx "\xEF\xBB\xBF" in
  if Lexer.looking_at lx "<?xml " || Lexer.looking_at lx "<?xml?" then begin
    Lexer.expect lx "<?";
    skip_pi lx
  end;
  skip_misc lx;
  let dtd = if Lexer.eat lx "<!DOCTYPE" then parse_doctype lx else None in
  skip_misc lx;
  dtd
