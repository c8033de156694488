type test =
  | Tag of string
  | Any

type predicate =
  | No_predicate
  | Nth of int
  | Child_equals of string * string

type step = {
  axis : [ `Child | `Descendant ];
  test : test;
  predicate : predicate;
}

type t = step list

(* ------------------------------------------------------------------ *)
(* Parsing *)

let fail fmt = Printf.ksprintf invalid_arg fmt

let parse_predicate body =
  match int_of_string_opt body with
  | Some n ->
    if n <= 0 then fail "Path_query: positional predicate must be >= 1, got %d" n;
    Nth n
  | None -> begin
    match String.index_opt body '=' with
    | None -> fail "Path_query: unsupported predicate [%s]" body
    | Some eq ->
      let child = String.trim (String.sub body 0 eq) in
      let value = String.trim (String.sub body (eq + 1) (String.length body - eq - 1)) in
      let unquote v =
        let n = String.length v in
        if n >= 2 && ((v.[0] = '"' && v.[n - 1] = '"') || (v.[0] = '\'' && v.[n - 1] = '\''))
        then String.sub v 1 (n - 2)
        else fail "Path_query: predicate value must be quoted in [%s]" body
      in
      if child = "" then fail "Path_query: empty child name in predicate [%s]" body;
      Child_equals (child, unquote value)
  end

let parse_step axis raw =
  if raw = "" then fail "Path_query: empty step";
  let name, predicate =
    match String.index_opt raw '[' with
    | None -> raw, No_predicate
    | Some open_b ->
      if raw.[String.length raw - 1] <> ']' then fail "Path_query: missing ']' in %S" raw;
      let name = String.sub raw 0 open_b in
      let body = String.sub raw (open_b + 1) (String.length raw - open_b - 2) in
      name, parse_predicate body
  in
  let test =
    if name = "*" then Any
    else if name = "" then fail "Path_query: missing tag in step %S" raw
    else Tag name
  in
  { axis; test; predicate }

let parse input =
  let n = String.length input in
  if n = 0 || input.[0] <> '/' then fail "Path_query: a path must start with '/'";
  let steps = ref [] in
  let i = ref 0 in
  while !i < n do
    (* at a '/' *)
    let axis =
      if !i + 1 < n && input.[!i + 1] = '/' then begin
        i := !i + 2;
        `Descendant
      end
      else begin
        incr i;
        `Child
      end
    in
    let start = !i in
    while !i < n && input.[!i] <> '/' do
      incr i
    done;
    let raw = String.sub input start (!i - start) in
    steps := parse_step axis raw :: !steps
  done;
  List.rev !steps

let string_of_step s =
  let name =
    match s.test with
    | Any -> "*"
    | Tag t -> t
  in
  let pred =
    match s.predicate with
    | No_predicate -> ""
    | Nth n -> Printf.sprintf "[%d]" n
    | Child_equals (c, v) -> Printf.sprintf "[%s=\"%s\"]" c v
  in
  name ^ pred

let to_string t =
  String.concat ""
    (List.map
       (fun s ->
         (match s.axis with
         | `Child -> "/"
         | `Descendant -> "//")
         ^ string_of_step s)
       t)

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let matches_test doc node = function
  | Any -> Document.is_element doc node
  | Tag t -> Document.is_element doc node && Document.tag_name doc node = t

let has_equal_child doc node child value =
  List.exists
    (fun c ->
      Document.is_element doc c
      && Document.tag_name doc c = child
      && String.trim (Document.immediate_text doc c) = value)
    (Document.children doc node)

(* Candidates of one step from a single context node, predicate applied.
   The positional predicate counts per context node, XPath-style. *)
let step_from doc context step =
  let base =
    match step.axis with
    | `Child ->
      List.filter (fun c -> matches_test doc c step.test) (Document.children doc context)
    | `Descendant ->
      let acc = ref [] in
      for n = Document.subtree_last doc context downto context do
        (* descendant-or-self, matching XPath's '//' abbreviation *)
        if matches_test doc n step.test then acc := n :: !acc
      done;
      !acc
  in
  match step.predicate with
  | No_predicate -> base
  | Nth k -> (match List.nth_opt base (k - 1) with Some n -> [ n ] | None -> [])
  | Child_equals (c, v) -> List.filter (fun n -> has_equal_child doc n c v) base

let select doc t =
  (* The first step applies to a virtual root whose only child is the
     document root. *)
  let initial = function
    | { axis = `Child; test; predicate } ->
      let base = if matches_test doc 0 test then [ 0 ] else [] in
      (match predicate with
      | No_predicate -> base
      | Nth 1 -> base
      | Nth _ -> []
      | Child_equals (c, v) -> List.filter (fun n -> has_equal_child doc n c v) base)
    | { axis = `Descendant; _ } as s -> step_from doc 0 { s with axis = `Descendant }
  in
  match t with
  | [] -> []
  | first_step :: rest ->
    let start =
      match first_step.axis with
      | `Child -> initial first_step
      | `Descendant ->
        (* //x from the document: include the root itself *)
        let under = step_from doc 0 first_step in
        under
    in
    let contexts =
      List.fold_left
        (fun contexts step ->
          List.concat_map (fun ctx -> step_from doc ctx step) contexts
          |> List.sort_uniq Int.compare)
        (List.sort_uniq Int.compare start) rest
    in
    contexts

let select_string doc s = select doc (parse s)
