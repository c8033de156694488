module Document = Extract_store.Document
module Result_tree = Extract_search.Result_tree

let generate ~bound result =
  if bound < 0 then invalid_arg "Naive_baseline.generate: negative bound";
  let doc = Result_tree.document result in
  let snippet = Snippet_tree.create result in
  let queue = Queue.create () in
  Queue.add (Result_tree.root result) queue;
  let continue = ref true in
  while !continue && not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    List.iter
      (fun c ->
        if Document.is_element doc c then begin
          if Snippet_tree.edge_count snippet < bound then begin
            if not (Snippet_tree.mem snippet c) then ignore (Snippet_tree.add snippet c);
            Queue.add c queue
          end
          else continue := false
        end)
      (Document.children doc node)
  done;
  snippet
