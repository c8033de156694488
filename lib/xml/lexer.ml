type t = {
  input : string;
  len : int;
  mutable offset : int;
  mutable line : int;
  mutable column : int;
}

let of_string input = { input; len = String.length input; offset = 0; line = 1; column = 1 }

let position t = { Error.line = t.line; column = t.column; offset = t.offset }

let at_end t = t.offset >= t.len

let peek t = if at_end t then None else Some t.input.[t.offset]

let advance t =
  if not (at_end t) then begin
    if t.input.[t.offset] = '\n' then begin
      t.line <- t.line + 1;
      t.column <- 1
    end
    else t.column <- t.column + 1;
    t.offset <- t.offset + 1
  end

let fail t fmt = Error.fail (position t) fmt

let looking_at t s =
  let n = String.length s in
  t.offset + n <= t.len && String.sub t.input t.offset n = s

let eat t s =
  if looking_at t s then begin
    String.iter (fun _ -> advance t) s;
    true
  end
  else false

let expect t s = if not (eat t s) then fail t "expected %S" s

let is_space = function
  | ' ' | '\t' | '\r' | '\n' -> true
  | _ -> false

let skip_whitespace t =
  while (not (at_end t)) && is_space t.input.[t.offset] do
    advance t
  done

let expect_whitespace t =
  match peek t with
  | Some c when is_space c -> skip_whitespace t
  | _ -> fail t "expected whitespace"

let take_while t pred =
  let start = t.offset in
  while (not (at_end t)) && pred t.input.[t.offset] do
    advance t
  done;
  String.sub t.input start (t.offset - start)

let take_until t stop =
  let start = t.offset in
  let rec loop () =
    if at_end t then fail t "unterminated construct: expected %S" stop
    else if looking_at t stop then String.sub t.input start (t.offset - start)
    else begin
      advance t;
      loop ()
    end
  in
  loop ()

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':' || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let take_name t =
  match peek t with
  | Some c when is_name_start c ->
    let s = take_while t is_name_char in
    s
  | Some c -> fail t "expected a name, found %C" c
  | None -> fail t "expected a name, found end of input"
