module Document = Extract_store.Document
module Tokenizer = Extract_store.Tokenizer

type coverage = {
  keywords : float;
  entity_names : float;
  result_key : float;
  features : float;
  all_items : float;
  rank_weighted : float;
}

let snippet_tokens db snippet =
  let doc = Pipeline.document db in
  Snippet_tree.nodes snippet
  |> List.concat_map (fun n ->
         Tokenizer.tokens (Document.tag_name doc n)
         @ Tokenizer.tokens (Document.immediate_text doc n))

let covers tokens value =
  let needed = Tokenizer.tokens value in
  needed <> [] && List.for_all (fun t -> List.mem t tokens) needed

let ratio hits total = if total = 0 then 1.0 else float_of_int hits /. float_of_int total

let coverage ~tokens ilist =
  let keywords = ref [] and entities = ref [] and key = ref None and features = ref [] in
  List.iter
    (fun (e : Ilist.entry) ->
      match e.Ilist.item with
      | Ilist.Keyword k -> keywords := k :: !keywords
      | Ilist.Entity_name n -> entities := n :: !entities
      | Ilist.Result_key v -> key := Some v
      | Ilist.Dominant_feature (f, _) -> features := f.Feature.value :: !features)
    (Ilist.entries ilist);
  let keywords = List.rev !keywords and entities = List.rev !entities in
  let features =
    List.filteri (fun i _ -> i < 3) (List.rev !features)
  in
  let count xs = List.length (List.filter (covers tokens) xs) in
  let displays =
    List.map (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item) (Ilist.entries ilist)
  in
  let dcg keep =
    List.mapi (fun i d -> if keep d then 1.0 /. log (float_of_int (i + 2)) else 0.0) displays
    |> List.fold_left ( +. ) 0.0
  in
  let ideal = dcg (fun _ -> true) in
  {
    keywords = ratio (count keywords) (List.length keywords);
    entity_names = ratio (count entities) (List.length entities);
    result_key =
      (match !key with
      | None -> 1.0
      | Some v -> if covers tokens v then 1.0 else 0.0);
    features = ratio (count features) (List.length features);
    all_items = ratio (count displays) (List.length displays);
    rank_weighted = (if ideal > 0.0 then dcg (covers tokens) /. ideal else 1.0);
  }
