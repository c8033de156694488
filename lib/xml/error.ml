type position = { line : int; column : int; offset : int }

exception Parse_error of position * string

let fail pos fmt = Format.kasprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

let pp_position ppf pos = Format.fprintf ppf "line %d, column %d" pos.line pos.column

let to_string pos msg = Format.asprintf "%a: %s" pp_position pos msg

let () =
  Printexc.register_printer (function
    | Parse_error (pos, msg) -> Some (Format.asprintf "XML parse error at %a: %s" pp_position pos msg)
    | _ -> None)
