module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Result_tree = Extract_search.Result_tree

type t = {
  entity : string;
  attribute : string;
  value : string;
}

type stats = {
  occurrences : int;
  type_total : int;
  domain_size : int;
  score : float;
}

(* domain-local — an analysis (and everything hanging off it) is built
   and consumed by the one domain snippeting that result *)
type feature_data = {
  mutable count : int;
  mutable nodes : Document.node list; (* reverse document order *)
  first_seen : int;
}

(* domain-local — see feature_data above *)
type type_data = {
  mutable total : int;
  values : (string, unit) Hashtbl.t;
}

(* domain-local — see feature_data above *)
type analysis = {
  features : (t, feature_data) Hashtbl.t;
  types : (string * string, type_data) Hashtbl.t;
  order : t array; (* first-occurrence order *)
}

let entity_tag_for kinds result node =
  let doc = Result_tree.document result in
  match Node_kind.nearest_entity_ancestor kinds node with
  | Some e when Result_tree.mem result e -> Document.tag_name doc e
  | Some _ | None -> Document.tag_name doc (Result_tree.root result)

let calls = Atomic.make 0

let analyze_calls () = Atomic.get calls

let analyze kinds result =
  Atomic.incr calls;
  let doc = Result_tree.document result in
  let features = Hashtbl.create 64 in
  let types = Hashtbl.create 16 in
  let order = ref [] in
  let seen = ref 0 in
  Result_tree.iter_elements result (fun node ->
      if Node_kind.is_attribute kinds node then begin
        let value = Node_kind.attribute_value kinds node in
        let entity = entity_tag_for kinds result node in
        let attribute = Document.tag_name doc node in
        let f = { entity; attribute; value } in
        (match Hashtbl.find_opt features f with
        | Some data ->
          data.count <- data.count + 1;
          data.nodes <- node :: data.nodes
        | None ->
          Hashtbl.add features f { count = 1; nodes = [ node ]; first_seen = !seen };
          order := f :: !order;
          incr seen);
        let ty = entity, attribute in
        match Hashtbl.find_opt types ty with
        | Some td ->
          td.total <- td.total + 1;
          Hashtbl.replace td.values value ()
        | None ->
          let values = Hashtbl.create 8 in
          Hashtbl.replace values value ();
          Hashtbl.add types ty { total = 1; values }
      end);
  { features; types; order = Array.of_list (List.rev !order) }

let stats_of analysis f =
  match Hashtbl.find_opt analysis.features f with
  | None -> None
  | Some data ->
    (* every recorded feature has its (entity, attribute) type entry *)
    (match Hashtbl.find_opt analysis.types (f.entity, f.attribute) with
    | None -> None
    | Some td ->
      let domain_size = Hashtbl.length td.values in
      let score =
        float_of_int data.count /. (float_of_int td.total /. float_of_int domain_size)
      in
      Some { occurrences = data.count; type_total = td.total; domain_size; score })

let all analysis =
  Array.to_list analysis.order
  |> List.map (fun f ->
         match stats_of analysis f with
         | Some s -> f, s
         | None -> assert false)

let is_dominant s = s.score > 1.0 || s.domain_size = 1

let dominant analysis =
  let indexed =
    all analysis
    |> List.filter (fun (_, s) -> is_dominant s)
    |> List.mapi (fun i fs -> i, fs)
  in
  (* [all] is first-occurrence ordered, so the index is the tiebreak. *)
  List.sort
    (fun (i, (_, sa)) (j, (_, sb)) ->
      if sa.score <> sb.score then Float.compare sb.score sa.score else Int.compare i j)
    indexed
  |> List.map snd

let instances analysis f =
  match Hashtbl.find_opt analysis.features f with
  | None -> []
  | Some data -> List.rev data.nodes

let feature_count analysis = Hashtbl.length analysis.features

let type_count analysis = Hashtbl.length analysis.types

let pp ppf f = Format.fprintf ppf "(%s, %s, %s)" f.entity f.attribute f.value
