type tree = Node of string * tree list

let tee = "\xe2\x94\x9c\xe2\x94\x80\xe2\x94\x80 "

let corner = "\xe2\x94\x94\xe2\x94\x80\xe2\x94\x80 "

let pipe = "\xe2\x94\x82   "

let blank = "    "

let render t =
  let buf = Buffer.create 128 in
  let rec walk prefix is_last (Node (label, children)) ~top =
    if not top then begin
      Buffer.add_string buf prefix;
      Buffer.add_string buf (if is_last then corner else tee)
    end;
    Buffer.add_string buf label;
    Buffer.add_char buf '\n';
    let child_prefix =
      if top then prefix else prefix ^ (if is_last then blank else pipe)
    in
    let rec each = function
      | [] -> ()
      | [ c ] -> walk child_prefix true c ~top:false
      | c :: rest ->
        walk child_prefix false c ~top:false;
        each rest
    in
    each children
  in
  walk "" true t ~top:true;
  let s = Buffer.contents buf in
  if s <> "" && s.[String.length s - 1] = '\n' then String.sub s 0 (String.length s - 1)
  else s
