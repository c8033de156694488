type rep = Once | Opt | Star | Plus

type particle = { item : item; rep : rep }

and item =
  | Name of string
  | Seq of particle list
  | Choice of particle list

type t =
  | Empty
  | Any
  | Pcdata
  | Mixed of string list
  | Children of particle

(* Maximum number of occurrences of [tag] permitted by the model: we only
   care whether it is 0, 1, or "2+" so we saturate at 2. *)
let may_repeat model tag =
  let saturate n = min n 2 in
  let rec max_occurs p =
    let inner =
      match p.item with
      | Name t -> if t = tag then 1 else 0
      | Seq ps -> saturate (List.fold_left (fun acc q -> acc + max_occurs q) 0 ps)
      | Choice ps -> List.fold_left (fun acc q -> max acc (max_occurs q)) 0 ps
    in
    match p.rep with
    | Once | Opt -> inner
    | Star | Plus -> if inner > 0 then 2 else 0
  in
  match model with
  | Empty | Pcdata -> false
  | Any -> true
  | Mixed tags -> List.mem tag tags
  | Children p -> max_occurs p >= 2

let rep_suffix = function
  | Once -> ""
  | Opt -> "?"
  | Star -> "*"
  | Plus -> "+"

let rec pp_particle ppf p =
  (match p.item with
  | Name tag -> Format.pp_print_string ppf tag
  | Seq ps -> pp_group ppf ", " ps
  | Choice ps -> pp_group ppf " | " ps);
  Format.pp_print_string ppf (rep_suffix p.rep)

and pp_group ppf sep ps =
  Format.pp_print_char ppf '(';
  List.iteri
    (fun i p ->
      if i > 0 then Format.pp_print_string ppf sep;
      pp_particle ppf p)
    ps;
  Format.pp_print_char ppf ')'

let pp ppf = function
  | Empty -> Format.pp_print_string ppf "EMPTY"
  | Any -> Format.pp_print_string ppf "ANY"
  | Pcdata -> Format.pp_print_string ppf "(#PCDATA)"
  | Mixed [] -> Format.pp_print_string ppf "(#PCDATA)*"
  | Mixed tags ->
    Format.fprintf ppf "(#PCDATA | %s)*" (String.concat " | " tags)
  | Children p -> pp_particle ppf p

let to_string model = Format.asprintf "%a" pp model
