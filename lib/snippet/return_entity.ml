module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Result_tree = Extract_search.Result_tree
module Query = Extract_search.Query
module Tokenizer = Extract_store.Tokenizer

let matches_name query name =
  List.exists (fun tok -> Query.mem query tok) (Tokenizer.tokens name)

let entity_instances kinds result =
  let acc = ref [] in
  Result_tree.iter_elements result (fun n ->
      if Node_kind.is_entity kinds n then acc := n :: !acc);
  List.rev !acc

let name_or_attribute_matches kinds result query node =
  let doc = Result_tree.document result in
  matches_name query (Document.tag_name doc node)
  || List.exists
       (fun c ->
         Document.is_element doc c
         && Node_kind.is_attribute kinds c
         && matches_name query (Document.tag_name doc c))
       (Document.children doc node)

let highest_entities kinds result =
  let doc = Result_tree.document result in
  entity_instances kinds result
  |> List.filter (fun n ->
         let rec up m =
           match Document.parent doc m with
           | None -> true
           | Some p ->
             if Result_tree.mem result p && Document.is_element doc p
                && Node_kind.is_entity kinds p
             then false
             else up p
         in
         up n)

let return_entities kinds result query =
  let matching =
    entity_instances kinds result
    |> List.filter (name_or_attribute_matches kinds result query)
  in
  match matching with
  | [] -> highest_entities kinds result
  | _ -> matching

let supporting_entities kinds result query =
  let returns = return_entities kinds result query in
  let set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace set n ()) returns;
  entity_instances kinds result |> List.filter (fun n -> not (Hashtbl.mem set n))
