(* The tests' XML tree parser: Parser.fold_document's events folded into
   a Types tree. Nothing that ships parses XML into a tree (the store
   folds the same events into its arena), so the tree fold lives here,
   beside the tests that compare trees: the xml.* cases, the printer
   round trips and the arena references. *)

open Extract_xml

(* open elements, innermost first: tag, attributes, children reversed *)
type frame = string * (string * string) list * Types.t list

let close (tag, attrs, children) =
  {
    Types.tag;
    attrs = List.map (fun (name, value) -> { Types.name; value }) attrs;
    children = List.rev children;
  }

let parse_document ?limits input =
  let step (stack, root) ev =
    match ev, stack with
    | Parser.Start_element (tag, attrs), _ -> ((tag, attrs, []) :: stack, root)
    | Parser.Text s, (tag, attrs, children) :: rest ->
      ((tag, attrs, Types.Text s :: children) :: rest, root)
    | Parser.End_element _, [ frame ] -> ([], Some (close frame))
    | Parser.End_element _, frame :: (tag, attrs, children) :: rest ->
      ((tag, attrs, Types.Element (close frame) :: children) :: rest, root)
    | (Parser.Text _ | Parser.End_element _), [] -> invalid_arg "Tree_fold: event outside the root"
  in
  let (_, root), dtd = Parser.fold_document ?limits input ~init:(([] : frame list), None) ~f:step in
  match root with
  | Some root -> { Types.dtd; root }
  | None -> invalid_arg "Tree_fold: no root element"

let parse_root ?limits input = Types.Element (parse_document ?limits input).Types.root
