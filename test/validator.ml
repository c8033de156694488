open Extract_xml

type violation = {
  element : string;
  kind : violation_kind;
}

and violation_kind =
  | Undeclared_element
  | Unexpected_children of string list
  | Unexpected_text
  | Expected_empty

(* Brzozowski derivatives over particles. [nullable p] — does p accept the
   empty sequence; [deriv p tag] — the residual particle after consuming
   one occurrence of [tag], or None when [tag] cannot come first. Particles
   are rewritten with explicit combinators to keep derivatives small. *)
module Deriv = struct
  open Content_model

  type expr =
    | Empty_set          (* accepts nothing *)
    | Epsilon            (* accepts the empty sequence *)
    | Sym of string
    | Alt of expr * expr
    | Cat of expr * expr
    | Star of expr

  let rec of_particle (p : particle) =
    let base =
      match p.item with
      | Name t -> Sym t
      | Seq ps -> List.fold_right (fun q acc -> Cat (of_particle q, acc)) ps Epsilon
      | Choice ps ->
        List.fold_right (fun q acc -> Alt (of_particle q, acc)) ps Empty_set
    in
    match p.rep with
    | Once -> base
    | Opt -> Alt (base, Epsilon)
    | Star -> Star base
    | Plus -> Cat (base, Star base)

  let rec nullable = function
    | Empty_set | Sym _ -> false
    | Epsilon | Star _ -> true
    | Alt (a, b) -> nullable a || nullable b
    | Cat (a, b) -> nullable a && nullable b

  let rec deriv e tag =
    match e with
    | Empty_set | Epsilon -> Empty_set
    | Sym t -> if t = tag then Epsilon else Empty_set
    | Alt (a, b) -> Alt (deriv a tag, deriv b tag)
    | Cat (a, b) ->
      let da = Cat (deriv a tag, b) in
      if nullable a then Alt (da, deriv b tag) else da
    | Star a -> Cat (deriv a tag, Star a)

  (* Light simplification keeps the expression from blowing up on long
     child sequences. *)
  let rec simplify = function
    | Alt (a, b) -> begin
      match simplify a, simplify b with
      | Empty_set, x | x, Empty_set -> x
      | Epsilon, x when nullable x -> x
      | x, Epsilon when nullable x -> x
      | a, b -> Alt (a, b)
    end
    | Cat (a, b) -> begin
      match simplify a, simplify b with
      | Empty_set, _ | _, Empty_set -> Empty_set
      | Epsilon, x | x, Epsilon -> x
      | a, b -> Cat (a, b)
    end
    | Star a -> begin
      match simplify a with
      | Empty_set | Epsilon -> Epsilon
      | a -> Star a
    end
    | e -> e

  let accepts particle tags =
    let rec run e = function
      | [] -> nullable e
      | tag :: rest -> begin
        match simplify (deriv e tag) with
        | Empty_set -> false
        | e -> run e rest
      end
    in
    run (simplify (of_particle particle)) tags
end

let matches_model model tags =
  match model with
  | Content_model.Empty -> tags = []
  | Content_model.Pcdata -> tags = []
  | Content_model.Any -> true
  | Content_model.Mixed allowed -> List.for_all (fun t -> List.mem t allowed) tags
  | Content_model.Children p -> Deriv.accepts p tags

let has_text (e : Types.element) =
  List.exists
    (function
      | Types.Text s -> String.trim s <> ""
      | Types.Element _ -> false)
    e.Types.children

let child_tags (e : Types.element) =
  List.filter_map
    (function
      | Types.Element c -> Some c.Types.tag
      | Types.Text _ -> None)
    e.Types.children

let validate ?(strict = false) dtd root =
  let violations = ref [] in
  let report element kind = violations := { element; kind } :: !violations in
  let rec walk (e : Types.element) =
    (match Dtd.element_model dtd e.Types.tag with
    | None -> if strict then report e.Types.tag Undeclared_element
    | Some model ->
      let tags = child_tags e in
      (match model with
      | Content_model.Empty ->
        if e.Types.children <> [] then report e.Types.tag Expected_empty
      | Content_model.Pcdata ->
        if tags <> [] then report e.Types.tag (Unexpected_children tags)
      | Content_model.Any -> ()
      | Content_model.Mixed _ ->
        if not (matches_model model tags) then report e.Types.tag (Unexpected_children tags)
      | Content_model.Children _ ->
        if not (matches_model model tags) then report e.Types.tag (Unexpected_children tags);
        if has_text e then report e.Types.tag Unexpected_text));
    List.iter
      (function
        | Types.Element c -> walk c
        | Types.Text _ -> ())
      e.Types.children
  in
  walk root;
  List.rev !violations

let is_valid ?strict dtd root = validate ?strict dtd root = []

let pp_violation ppf v =
  match v.kind with
  | Undeclared_element -> Format.fprintf ppf "<%s>: no declaration" v.element
  | Unexpected_children tags ->
    Format.fprintf ppf "<%s>: children (%s) do not match the content model" v.element
      (String.concat ", " tags)
  | Unexpected_text -> Format.fprintf ppf "<%s>: character data not allowed" v.element
  | Expected_empty -> Format.fprintf ppf "<%s>: declared EMPTY but has content" v.element
