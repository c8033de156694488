module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index

(* per-level attenuation of a match's contribution below the result root *)
let decay = 0.8

type t = {
  ctx : Eval_ctx.t;
  keywords : (Document.node array * float) list;
      (* per query keyword: its resolved posting list and its idf *)
}

let idf_in ctx keyword =
  let n = float_of_int (Document.element_count (Eval_ctx.document ctx)) in
  let df = float_of_int (Inverted_index.keyword_count (Eval_ctx.index ctx) keyword) in
  log (1.0 +. (n /. (1.0 +. df)))

let make ctx =
  let keywords =
    List.map
      (fun k -> Eval_ctx.postings ctx k, idf_in ctx k)
      (Query.keywords (Eval_ctx.query ctx))
  in
  { ctx; keywords }

let idf t keyword = idf_in t.ctx keyword

let score t result =
  let doc = Result_tree.document result in
  let root_depth = Document.depth doc (Result_tree.root result) in
  let per_keyword (postings, idf) =
    match Result_tree.restrict_matches result postings with
    | [] -> 0.0
    | matches ->
      let best_decay =
        List.fold_left
          (fun best m ->
            let dist = Document.depth doc m - root_depth in
            max best (decay ** float_of_int dist))
          0.0 matches
      in
      let tf = log (1.0 +. float_of_int (List.length matches)) in
      idf *. best_decay *. (1.0 +. tf)
  in
  let keyword_score = List.fold_left (fun acc k -> acc +. per_keyword k) 0.0 t.keywords in
  let specificity = 1.0 /. log (2.0 +. float_of_int (Result_tree.element_size result)) in
  keyword_score *. (1.0 +. specificity)

let rank t results =
  List.map (fun r -> r, score t r) results
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
