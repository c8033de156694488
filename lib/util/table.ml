type t = {
  headers : string list;
  width : int;
  rows : string list Arraylist.t;
}

let create headers =
  if headers = [] then invalid_arg "Table.create: no columns";
  { headers; width = List.length headers; rows = Arraylist.create () }

let add_row t row =
  if List.length row <> t.width then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" t.width
         (List.length row));
  Arraylist.push t.rows row

let is_numeric s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+'
                 || c = 'e' || c = 'E' || c = '%' || c = 'x')
       s
  && String.exists (fun c -> c >= '0' && c <= '9') s

let render t =
  let widths = Array.make t.width 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure t.headers;
  Arraylist.iter measure t.rows;
  let buf = Buffer.create 256 in
  let pad i cell ~right =
    let w = widths.(i) in
    let fill = String.make (w - String.length cell) ' ' in
    if right then fill ^ cell else cell ^ fill
  in
  let emit_row ?(align_numeric = true) row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell ~right:(align_numeric && is_numeric cell)))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row ~align_numeric:false t.headers;
  List.iteri
    (fun i _ ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make widths.(i) '-'))
    t.headers;
  Buffer.add_char buf '\n';
  Arraylist.iter emit_row t.rows;
  (* drop the trailing newline *)
  let s = Buffer.contents buf in
  if s <> "" && s.[String.length s - 1] = '\n' then String.sub s 0 (String.length s - 1)
  else s

let print ?title t =
  (match title with
  | Some title ->
    print_endline title;
    print_endline (String.make (String.length title) '=')
  | None -> ());
  print_endline (render t);
  print_newline ()
