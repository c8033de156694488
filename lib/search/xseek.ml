module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Inverted_index = Extract_store.Inverted_index

let return_node kinds node =
  let doc = Node_kind.document kinds in
  let rec up n =
    if Document.is_element doc n && Node_kind.is_entity kinds n then Some n
    else
      match Document.parent doc n with
      | Some p -> up p
      | None -> None
  in
  match up node with
  | Some e -> e
  | None -> node

let dedupe_outermost doc nodes =
  (* Input in document order; drop nodes nested inside an earlier one. *)
  let rec loop acc = function
    | [] -> List.rev acc
    | n :: rest -> begin
      match acc with
      | prev :: _ when Document.is_ancestor_or_self doc ~anc:prev ~desc:n -> loop acc rest
      | _ -> loop (n :: acc) rest
    end
  in
  loop [] (List.sort_uniq Int.compare nodes)

let roots kinds lists =
  let doc = Node_kind.document kinds in
  let slcas = Slca.compute doc lists in
  dedupe_outermost doc (List.map (return_node kinds) slcas)
