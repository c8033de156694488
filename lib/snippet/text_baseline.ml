module Result_tree = Extract_search.Result_tree
module Query = Extract_search.Query
module Tokenizer = Extract_store.Tokenizer

type snippet = {
  window : string list;
  keyword_hits : int;
  start_offset : int;
}

let window_for_bound bound = max 1 (2 * bound)

let generate ~window_tokens result query =
  if window_tokens <= 0 then invalid_arg "Text_baseline.generate: window must be positive";
  let tokens = Array.of_list (Tokenizer.tokens (Result_tree.text_of result)) in
  let n = Array.length tokens in
  let keywords = Query.keywords query in
  let w = min window_tokens (max n 1) in
  if n = 0 then { window = []; keyword_hits = 0; start_offset = 0 }
  else begin
    (* Sliding window with per-keyword counts: O(n·k) worst case but k is
       tiny; counts make leaving tokens O(1). *)
    let counts = Hashtbl.create 8 in
    let distinct = ref 0 in
    let enter tok =
      if List.mem tok keywords then begin
        let c = Option.value ~default:0 (Hashtbl.find_opt counts tok) in
        if c = 0 then incr distinct;
        Hashtbl.replace counts tok (c + 1)
      end
    in
    let leave tok =
      if List.mem tok keywords then begin
        (* only tokens previously entered ever leave the window *)
        match Hashtbl.find_opt counts tok with
        | None -> ()
        | Some c ->
          if c = 1 then decr distinct;
          Hashtbl.replace counts tok (c - 1)
      end
    in
    let best_start = ref 0 and best_hits = ref (-1) in
    for i = 0 to n - 1 do
      enter tokens.(i);
      if i >= w then leave tokens.(i - w);
      if i >= w - 1 then begin
        let start = i - w + 1 in
        if !distinct > !best_hits then begin
          best_hits := !distinct;
          best_start := start
        end
      end
    done;
    if !best_hits < 0 then begin
      (* text shorter than the window *)
      best_hits := !distinct;
      best_start := 0
    end;
    {
      window = Array.to_list (Array.sub tokens !best_start (min w (n - !best_start)));
      keyword_hits = max !best_hits 0;
      start_offset = !best_start;
    }
  end

let to_string s =
  let body = String.concat " " s.window in
  if s.start_offset > 0 then "… " ^ body ^ " …" else body ^ " …"
