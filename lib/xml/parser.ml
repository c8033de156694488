type limits = {
  max_depth : int;
  max_nodes : int;
  max_token_len : int;
}

let default_limits = { max_depth = 512; max_nodes = 50_000_000; max_token_len = 1_000_000 }

type event =
  | Start_element of string * (string * string) list
  | Text of string
  | End_element of string

(* One pass with an explicit list of open tags, so depth costs no
   native stack. Character data is held back until the next element
   boundary, so adjacent runs, CDATA sections and references merge into
   one Text event. A lone run stays a span of the input and is copied
   once, when it is flushed; anything that merges goes through [buf]. *)
let fold_document ?(limits = default_limits) input ~init ~f =
  let lx = Lexer.of_string input in
  let dtd = Markup.parse_prolog lx in
  let acc = ref init in
  let emit ev = acc := f !acc ev in
  (* elements and retained text nodes: what the arena will hold *)
  let nodes = ref 0 in
  let spend_node () =
    incr nodes;
    if !nodes > limits.max_nodes then
      Lexer.fail lx "document exceeds max_nodes (%d)" limits.max_nodes
  in
  let check_token what token =
    if String.length token > limits.max_token_len then
      Lexer.fail lx "%s longer than max_token_len (%d bytes)" what limits.max_token_len
  in
  let text_too_long at =
    Lexer.fail_at lx at "text run longer than max_token_len (%d bytes)" limits.max_token_len
  in
  let span_start = ref 0 and span_stop = ref 0 in
  let buf = Buffer.create 64 in
  let spill () =
    Buffer.add_substring buf input !span_start (!span_stop - !span_start);
    span_stop := !span_start
  in
  let add_run start stop =
    (* the limit is checked before anything is copied; the error sits
       on the first byte past it *)
    let room = limits.max_token_len - Buffer.length buf - (!span_stop - !span_start) in
    if stop - start > room then text_too_long (start + room + 1);
    if !span_stop = !span_start && Buffer.length buf = 0 then begin
      span_start := start;
      span_stop := stop
    end
    else begin
      spill ();
      Buffer.add_substring buf input start (stop - start)
    end
  in
  let add_decoded s =
    spill ();
    Buffer.add_string buf s;
    if Buffer.length buf > limits.max_token_len then text_too_long (Lexer.offset lx)
  in
  let flush_text () =
    let text =
      if Buffer.length buf > 0 then begin
        spill ();
        let s = Buffer.contents buf in
        Buffer.clear buf;
        if Lexer.is_blank s 0 (String.length s) then None else Some s
      end
      else if !span_stop > !span_start then begin
        let start = !span_start and stop = !span_stop in
        span_stop := start;
        if Lexer.is_blank input start stop then None
        else Some (String.sub input start (stop - start))
      end
      else None
    in
    match text with
    | Some s ->
      spend_node ();
      emit (Text s)
    | None -> ()
  in
  (* after '<', with [depth] elements open around it; the tag comes back
     when the element stays open *)
  let open_element depth =
    if depth >= limits.max_depth then
      Lexer.fail lx "element nesting exceeds max_depth (%d)" limits.max_depth;
    spend_node ();
    let tag = Lexer.take_name lx in
    check_token "element name" tag;
    let attrs = Markup.parse_attributes lx in
    List.iter
      (fun (name, value) ->
        check_token "attribute name" name;
        check_token "attribute value" value)
      attrs;
    Lexer.skip_whitespace lx;
    if Lexer.eat lx "/>" then begin
      emit (Start_element (tag, attrs));
      emit (End_element tag);
      None
    end
    else begin
      Lexer.expect lx ">";
      emit (Start_element (tag, attrs));
      Some tag
    end
  in
  (* after "</"; the name is compared in place, copied only to report a
     mismatch *)
  let close_element parent =
    if not (Lexer.eat_name lx parent) then begin
      let close = Lexer.take_name lx in
      Lexer.skip_whitespace lx;
      Lexer.expect lx ">";
      Lexer.fail lx "mismatched closing tag: expected </%s>, found </%s>" parent close
    end;
    Lexer.skip_whitespace lx;
    Lexer.expect lx ">";
    emit (End_element parent)
  in
  (* [open_tags] innermost first, [depth] of them *)
  let rec content open_tags depth =
    match open_tags with
    | [] -> ()
    | parent :: outer ->
      let start = Lexer.offset lx in
      Lexer.skip_char_data lx;
      if Lexer.offset lx > start then add_run start (Lexer.offset lx);
      if Lexer.at_end lx then Lexer.fail lx "unterminated element <%s>" parent
      else if Lexer.eat lx "&" then begin
        add_decoded (Markup.parse_reference lx);
        content open_tags depth
      end
      else if Lexer.looking_at lx "</" then begin
        flush_text ();
        Lexer.expect lx "</";
        close_element parent;
        content outer (depth - 1)
      end
      else if Lexer.eat lx "<!--" then begin
        Markup.skip_comment lx;
        content open_tags depth
      end
      else if Lexer.eat lx "<![CDATA[" then begin
        let data = Lexer.take_until lx "]]>" in
        Lexer.expect lx "]]>";
        add_decoded data;
        content open_tags depth
      end
      else if Lexer.eat lx "<?" then begin
        Markup.skip_pi lx;
        content open_tags depth
      end
      else begin
        flush_text ();
        Lexer.expect lx "<";
        match open_element depth with
        | Some tag -> content (tag :: open_tags) (depth + 1)
        | None -> content open_tags depth
      end
  in
  Lexer.expect lx "<";
  if not (Lexer.at_name_start lx) then Lexer.fail lx "expected the root element";
  (match open_element 0 with
  | Some root -> content [ root ] 1
  | None -> ());
  Markup.skip_misc lx;
  if not (Lexer.at_end lx) then Lexer.fail lx "trailing content after the root element";
  !acc, dtd
