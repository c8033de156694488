module Tokenizer = Extract_store.Tokenizer

type t = { keywords : string list }

let dedup keywords =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun k ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    keywords

let of_keywords raw =
  let keywords =
    raw
    |> List.concat_map Tokenizer.tokens
    |> List.filter (fun k -> k <> "")
    |> dedup
  in
  { keywords }

let of_string s = of_keywords [ s ]

let keywords t = t.keywords

let size t = List.length t.keywords

let is_empty t = t.keywords = []

let mem t k = List.mem (Tokenizer.normalize k) t.keywords
