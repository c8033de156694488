module Inverted_index = Extract_store.Inverted_index

type semantics = Slca | Elca | Xseek | Xsearch

let take limit l =
  match limit with
  | None -> l
  | Some k -> List.filteri (fun i _ -> i < k) l

(* Result roots are computed for the whole query (the SLCA/ELCA/return-node
   sets are global properties); only the first [limit] become results. *)
let run_ctx ?(semantics = Xseek) ?limit ctx kinds =
  let doc = Eval_ctx.document ctx in
  let lists = Eval_ctx.lists ctx in
  let results roots = List.map (Result_tree.full doc) (take limit roots) in
  if Query.is_empty (Eval_ctx.query ctx) then []
  else
    match semantics with
    | Xseek -> results (Xseek.roots kinds lists)
    | Slca -> results (Slca.compute doc lists)
    | Elca -> results (Elca.compute doc lists)
    | Xsearch -> Xsearch.compute_lists ?limit doc lists

let run ?semantics ?limit index kinds query =
  run_ctx ?semantics ?limit (Eval_ctx.make index query) kinds

let semantics_of_string = function
  | "slca" -> Some Slca
  | "elca" -> Some Elca
  | "xseek" -> Some Xseek
  | "xsearch" -> Some Xsearch
  | _ -> None

let string_of_semantics = function
  | Slca -> "slca"
  | Elca -> "elca"
  | Xseek -> "xseek"
  | Xsearch -> "xsearch"

let all_semantics = [ Slca; Elca; Xseek; Xsearch ]

(* K-way merge of per-source scored result lists (each already sorted
   best-first) into one globally ranked list. Ties break toward the lower
   source index, and order within a source is preserved — so the merge is
   deterministic however the sources were produced (sequentially or one
   domain per shard). *)
let merge_scored ?limit (sources : (float * 'a) list array) : (float * (int * 'a)) list =
  let heads = Array.map (fun l -> ref l) sources in
  let pick () =
    let best = ref None in
    Array.iteri
      (fun i l ->
        match !l with
        | [] -> ()
        | (score, _) :: _ -> (
          match !best with
          | Some (best_score, _) when best_score >= score -> ()
          | _ -> best := Some (score, i)))
      heads;
    !best
  in
  let budget = match limit with Some k -> k | None -> max_int in
  let rec drain acc n =
    if n >= budget then List.rev acc
    else
      match pick () with
      | None -> List.rev acc
      | Some (_, i) -> (
        match !(heads.(i)) with
        | [] -> assert false
        | (score, x) :: rest ->
          heads.(i) := rest;
          drain ((score, (i, x)) :: acc) (n + 1))
  in
  drain [] 0

(* Conjunctive semantics returns nothing when any keyword is missing; the
   demo UI wants "did you mean fewer words". Drop the rarest keyword (the
   most likely typo or over-specification) until something matches. *)
let run_relaxed ?semantics ?limit index kinds query =
  let rec attempt query dropped =
    match run ?semantics ?limit index kinds query with
    | [] when Query.size query > 1 ->
      let keywords = Query.keywords query in
      let rarest =
        List.fold_left
          (fun best k ->
            let df = Inverted_index.keyword_count index k in
            match best with
            | Some (_, best_df) when best_df <= df -> best
            | _ -> Some (k, df))
          None keywords
      in
      (match rarest with
      | Some (k, _) ->
        let rest = List.filter (fun k2 -> k2 <> k) keywords in
        attempt (Query.of_keywords rest) (k :: dropped)
      | None -> [], List.rev dropped)
    | results -> results, List.rev dropped
  in
  attempt query []
