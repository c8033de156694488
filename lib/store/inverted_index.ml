module Interner = Extract_util.Interner
module Arraylist = Extract_util.Arraylist

type t = {
  doc : Document.t;
  tokens : Interner.t;
  postings : Packed_postings.t array;       (* token id -> sorted element ids *)
  tag_tokens : (int * int, unit) Hashtbl.t; (* (token id, tag id) membership *)
  mutable sorted_tokens : (string * int) array option;
      (* (token, id) sorted by token, built lazily on the first [complete];
         the vocabulary is fixed after [build], so the cache never goes
         stale *)
}

(* [arr] sorted with its duplicates removed; [arr] itself is reordered. *)
let sorted_unique arr =
  Array.sort Int.compare arr;
  let k = ref 0 in
  for i = 0 to Array.length arr - 1 do
    if !k = 0 || arr.(i) <> arr.(!k - 1) then begin
      arr.(!k) <- arr.(i);
      incr k
    end
  done;
  Array.sub arr 0 !k

let build doc =
  let tokens = Interner.create ~capacity:1024 () in
  let lists : Document.node Arraylist.t Arraylist.t = Arraylist.create () in
  let tag_tokens = Hashtbl.create 256 in
  let posting_for tok =
    let id = Interner.intern tokens tok in
    while Arraylist.length lists <= id do
      Arraylist.push lists (Arraylist.create ())
    done;
    id, Arraylist.get lists id
  in
  (* Nodes are visited in pre-order and an element posts its tag tokens
     at its own visit, but a text node posts its parent. Attributes are
     leaf child elements ahead of the element's own children, and text
     may follow a child element, so the parent can come after one of its
     descendants ([<item code="red">red</item>] posts the attribute, then
     the item). Such a list is marked and sorted once it is complete;
     consecutive duplicates (same node, same token twice) are dropped as
     they come. *)
  let unsorted = Hashtbl.create 16 in
  let add id list node =
    if Arraylist.is_empty list then Arraylist.push list node
    else begin
      let last = Arraylist.last list in
      if node > last then Arraylist.push list node
      else if node < last then begin
        Hashtbl.replace unsorted id ();
        Arraylist.push list node
      end
    end
  in
  for node = 0 to Document.node_count doc - 1 do
    if Document.is_element doc node then
      List.iter
        (fun tok ->
          let id, list = posting_for tok in
          Hashtbl.replace tag_tokens (id, Document.tag_id doc node) ();
          add id list node)
        (Tokenizer.tokens (Document.tag_name doc node))
    else begin
      match Document.parent doc node with
      | Some p ->
        List.iter
          (fun tok ->
            let id, list = posting_for tok in
            add id list p)
          (Tokenizer.tokens (Document.text doc node))
      | None -> ()
    end
  done;
  let postings =
    Array.init (Arraylist.length lists) (fun id ->
        let arr = Arraylist.to_array (Arraylist.get lists id) in
        Packed_postings.of_array (if Hashtbl.mem unsorted id then sorted_unique arr else arr))
  in
  { doc; tokens; postings; tag_tokens; sorted_tokens = None }

let document t = t.doc

let token_count t = Interner.count t.tokens

let list_length t id = Packed_postings.length t.postings.(id)

let postings_size t =
  let n = token_count t in
  let acc = ref 0 in
  for id = 0 to n - 1 do
    acc := !acc + list_length t id
  done;
  !acc

let postings_bytes t =
  Array.fold_left (fun acc p -> acc + Packed_postings.byte_size p) 0 t.postings

let int_array_bytes t = 8 * (postings_size t + token_count t)

let lookup t keyword =
  match Interner.find t.tokens (Tokenizer.normalize keyword) with
  | Some id -> Packed_postings.to_array t.postings.(id)
  | None -> [||]

let keyword_count t keyword =
  match Interner.find t.tokens (Tokenizer.normalize keyword) with
  | Some id -> list_length t id
  | None -> 0

let vocabulary t =
  let acc = ref [] in
  Interner.iter (fun _ s -> acc := s :: !acc) t.tokens;
  List.rev !acc

let match_kind t ~keyword ~node =
  let tok = Tokenizer.normalize keyword in
  match Interner.find t.tokens tok with
  | None -> None
  | Some id ->
    if not (Packed_postings.mem t.postings.(id) node) then None
    else begin
      let tag_match =
        Document.is_element t.doc node && Hashtbl.mem t.tag_tokens (id, Document.tag_id t.doc node)
        && List.mem tok (Tokenizer.tokens (Document.tag_name t.doc node))
      in
      let value_match = List.mem tok (Tokenizer.tokens (Document.immediate_text t.doc node)) in
      match tag_match, value_match with
      | true, true -> Some `Both
      | false, true -> Some `Value
      | true, false | false, false -> Some `Tag
    end

let sorted_tokens t =
  match t.sorted_tokens with
  | Some arr -> arr
  | None ->
    let arr = Array.make (Interner.count t.tokens) ("", 0) in
    Interner.iter (fun id tok -> arr.(id) <- (tok, id)) t.tokens;
    Array.sort
      (fun (ta, ia) (tb, ib) ->
        let c = String.compare ta tb in
        if c <> 0 then c else Int.compare ia ib)
      arr;
    t.sorted_tokens <- Some arr;
    arr

let has_prefix ~prefix tok =
  String.length tok >= String.length prefix
  && String.sub tok 0 (String.length prefix) = prefix

(* Completions touch only the vocabulary range sharing the prefix: binary
   search for the first token >= prefix, then walk forward while the
   prefix holds. The old implementation scanned every token per
   keystroke. *)
let complete t ?(limit = 10) prefix =
  let prefix = Tokenizer.normalize prefix in
  if prefix = "" then []
  else begin
    let arr = sorted_tokens t in
    let n = Array.length arr in
    (* smallest index whose token is >= prefix *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst arr.(mid) >= prefix then hi := mid else lo := mid + 1
    done;
    let out = ref [] in
    let i = ref !lo in
    while !i < n && has_prefix ~prefix (fst arr.(!i)) do
      let tok, id = arr.(!i) in
      out := (tok, list_length t id) :: !out;
      incr i
    done;
    List.sort
      (fun (ta, ca) (tb, cb) -> if ca <> cb then Int.compare cb ca else String.compare ta tb)
      !out
    |> List.filteri (fun i _ -> i < limit)
  end

module Internal = struct
  let token_names (idx : t) =
    let tokens = Array.make (Interner.count idx.tokens) "" in
    Interner.iter (fun id s -> tokens.(id) <- s) idx.tokens;
    tokens

  let tag_token_pairs (idx : t) =
    Hashtbl.fold (fun pair () acc -> pair :: acc) idx.tag_tokens []
    |> List.sort (fun (a1, a2) (b1, b2) ->
           if a1 <> b1 then Int.compare a1 b1 else Int.compare a2 b2)
    |> Array.of_list

  let packed_lists (idx : t) = idx.postings

  let of_packed ~doc ~tokens:token_names ~packed ~tag_tokens:pairs =
    if Array.length token_names <> Array.length packed then
      invalid_arg "Inverted_index.Internal.of_packed: token/list count mismatch";
    let tokens = Interner.create ~capacity:(Array.length token_names) () in
    Array.iter (fun s -> ignore (Interner.intern tokens s)) token_names;
    let tag_tokens = Hashtbl.create (max 16 (Array.length pairs)) in
    Array.iter (fun pair -> Hashtbl.replace tag_tokens pair ()) pairs;
    { doc; tokens; postings = packed; tag_tokens; sorted_tokens = None }
end
