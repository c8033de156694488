type t = {
  doc : Document.t;
  labels : int array array;
}

let of_document doc =
  let n = Document.node_count doc in
  let labels = Array.make n [||] in
  let rec assign node label =
    labels.(node) <- label;
    let rank = ref 0 in
    Document.iter_children doc node (fun c ->
        assign c (Array.append label [| !rank |]);
        incr rank)
  in
  assign (Document.root doc) [||];
  { doc; labels }

let label t n = t.labels.(n)

let compare_arrays a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else begin
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
    end
  in
  loop 0

let compare_nodes t a b = compare_arrays t.labels.(a) t.labels.(b)

let common_prefix_depth t a b =
  let la = t.labels.(a) and lb = t.labels.(b) in
  let n = min (Array.length la) (Array.length lb) in
  let rec loop i = if i < n && la.(i) = lb.(i) then loop (i + 1) else i in
  loop 0

let lca t a b =
  let d = common_prefix_depth t a b in
  (* The LCA is the ancestor-or-self of [a] at depth [d]. *)
  Document.ancestor_at_depth t.doc a (min d (Document.depth t.doc a))
