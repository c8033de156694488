module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Result_tree = Extract_search.Result_tree
module Query = Extract_search.Query
module Tokenizer = Extract_store.Tokenizer
module Inverted_index = Extract_store.Inverted_index

type item =
  | Keyword of string
  | Entity_name of string
  | Result_key of string
  | Dominant_feature of Feature.t * Feature.stats

type entry = {
  item : item;
  rank : int;
  instances : Document.node array;
}

type t = { entries : entry array }

let display = function
  | Keyword k -> k
  | Entity_name e -> e
  | Result_key v -> v
  | Dominant_feature (f, _) -> f.Feature.value

let normalized_display item = Tokenizer.normalize (display item)

(* Entity tag names present in the result with their instances, ordered by
   decreasing instance count (most prominent entity first), ties by tag
   name. *)
let entity_names kinds result =
  let doc = Result_tree.document result in
  let by_tag : (string, Document.node list ref) Hashtbl.t = Hashtbl.create 8 in
  Result_tree.iter_elements result (fun n ->
      if Node_kind.is_entity kinds n then begin
        let tag = Document.tag_name doc n in
        match Hashtbl.find_opt by_tag tag with
        | Some l -> l := n :: !l
        | None -> Hashtbl.add by_tag tag (ref [ n ])
      end);
  Hashtbl.fold (fun tag l acc -> (tag, List.rev !l) :: acc) by_tag []
  |> List.sort (fun (ta, la) (tb, lb) ->
         let ca = List.length la and cb = List.length lb in
         if ca <> cb then Int.compare cb ca else String.compare ta tb)

let keyword_instances ?ctx index result keyword =
  let postings =
    match ctx with
    | Some c -> Extract_search.Eval_ctx.postings c keyword
    | None -> Inverted_index.lookup index keyword
  in
  Result_tree.restrict_matches result postings

(* Dominant features in the order requested by the configuration. The
   dominant set itself (DS > 1 or D = 1) is fixed by the paper's
   definition; only the ranking varies. *)
let ordered_features ?ctx config kinds index result query analysis =
  let dominant = Feature.dominant analysis in
  match config.Config.feature_order with
  | Config.By_dominance -> dominant
  | Config.By_frequency ->
    List.stable_sort
      (fun (_, (a : Feature.stats)) (_, (b : Feature.stats)) ->
        Int.compare b.Feature.occurrences a.Feature.occurrences)
      dominant
  | Config.Query_biased ->
    let bias = Query_bias.make ?ctx kinds index result query in
    List.stable_sort
      (fun (fa, sa) (fb, sb) ->
        Float.compare
          (Query_bias.biased_score bias analysis fb sb)
          (Query_bias.biased_score bias analysis fa sa))
      dominant

let build ?(config = Config.default) ?ctx ?analysis kinds keys index result query =
  let analysis =
    match analysis with
    | Some a -> a
    | None -> Feature.analyze kinds result
  in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let count = ref 0 in
  let add item instances =
    let text = normalized_display item in
    if text <> "" && not (Hashtbl.mem seen text) then begin
      Hashtbl.add seen text ();
      out := { item; rank = !count; instances = Array.of_list instances } :: !out;
      incr count;
      true
    end
    else false
  in
  (* 1. query keywords *)
  List.iter
    (fun k -> ignore (add (Keyword k) (keyword_instances ?ctx index result k)))
    (Query.keywords query);
  (* 2. entity names *)
  if config.Config.include_entity_names then
    List.iter
      (fun (tag, instances) -> ignore (add (Entity_name tag) instances))
      (entity_names kinds result);
  (* 3. result key *)
  if config.Config.include_result_key then begin
    match Result_key.key_of_result keys kinds result query with
    | Some key -> ignore (add (Result_key key.Result_key.value) [ key.Result_key.attribute ])
    | None -> ()
  end;
  (* 4. dominant features *)
  if config.Config.include_features then begin
    let admitted = ref 0 in
    let cap = Option.value ~default:max_int config.Config.max_features in
    List.iter
      (fun (f, stats) ->
        if !admitted < cap
           && add (Dominant_feature (f, stats)) (Feature.instances analysis f)
        then incr admitted)
      (ordered_features ?ctx config kinds index result query analysis)
  end;
  { entries = Array.of_list (List.rev !out) }

let empty = { entries = [||] } (* read-only — shared empty sentinel *)

let entries t = Array.to_list t.entries

let length t = Array.length t.entries

let coverable t = entries t |> List.filter (fun e -> Array.length e.instances > 0)

let to_string t = String.concat ", " (List.map (fun e -> display e.item) (entries t))

let reorder_features ~score t =
  (* Stable partition: non-feature entries keep their relative order and
     precede nothing they did not precede before; the feature block is
     re-sorted by the given score, descending. Ranks are renumbered. *)
  let entries = Array.to_list t.entries in
  let fixed, features =
    List.partition
      (fun e ->
        match e.item with
        | Dominant_feature _ -> false
        | Keyword _ | Entity_name _ | Result_key _ -> true)
      entries
  in
  let features =
    List.stable_sort
      (fun a b ->
        match a.item, b.item with
        | Dominant_feature (fa, sa), Dominant_feature (fb, sb) ->
          Float.compare (score fb sb) (score fa sa)
        | _ -> 0)
      features
  in
  let renumbered =
    List.mapi (fun rank e -> { e with rank }) (fixed @ features)
  in
  { entries = Array.of_list renumbered }
