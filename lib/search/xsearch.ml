module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index

(* Nodes strictly between [n] (exclusive) and its ancestor [stop]
   (exclusive), i.e. the interior of the upward path. *)
let interior_path doc ~from ~stop =
  let rec up acc n =
    match Document.parent doc n with
    | Some p when p <> stop -> up (p :: acc) p
    | Some _ | None -> acc
  in
  up [] from

let interconnected doc a b =
  if a = b then true
  else begin
    let l = Document.lca doc a b in
    let interior =
      (if a = l then [] else interior_path doc ~from:a ~stop:l)
      @ (if b = l then [] else interior_path doc ~from:b ~stop:l)
      @ (if l = a || l = b then [] else [ l ])
    in
    (* two distinct interior nodes with the same tag break the relation;
       the endpoints may share a tag with each other but not with an
       interior node of the other branch — the published relation only
       excludes the pair (a, b) itself, so endpoint tags are also checked
       against the interior *)
    let tags = List.map (Document.tag_id doc) interior in
    let seen = Hashtbl.create 8 in
    let distinct_dup =
      List.exists
        (fun t ->
          if Hashtbl.mem seen t then true
          else begin
            Hashtbl.add seen t ();
            false
          end)
        tags
    in
    let endpoint_clash =
      List.exists
        (fun t ->
          (Document.is_element doc a && Document.tag_id doc a = t)
          || (Document.is_element doc b && Document.tag_id doc b = t))
        tags
    in
    not (distinct_dup || endpoint_clash)
  end

(* Witness match per keyword under [root]: the shallowest match (closest
   to the root), ties broken by document order. Only the matches under
   [root] are considered — the posting list is binary-searched to the
   subtree interval instead of filtered linearly. *)
let witness_under doc root arr =
  Extract_store.Postings.in_subtree doc arr root
  |> List.fold_left
       (fun best m ->
         match best with
         | None -> Some m
         | Some b ->
           if Document.depth doc m < Document.depth doc b then Some m else best)
       None

let compute_lists ?limit doc lists =
  let k = List.length lists in
  let accepted = ref 0 in
  let full = match limit with None -> max_int | Some l -> max l 0 in
  let rec loop acc = function
    | [] -> List.rev acc
    | _ when !accepted >= full -> List.rev acc
    | root :: rest ->
      let witnesses = List.filter_map (witness_under doc root) lists in
      let keep =
        List.length witnesses = k
        &&
        let rec pairwise = function
          | [] -> true
          | w :: tail ->
            List.for_all (fun w' -> interconnected doc w w') tail && pairwise tail
        in
        pairwise witnesses
      in
      if keep then begin
        incr accepted;
        loop (Result_tree.match_paths doc ~root ~matches:witnesses :: acc) rest
      end
      else loop acc rest
  in
  loop [] (Slca.compute doc lists)
