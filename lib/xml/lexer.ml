type t = {
  input : string;
  len : int;
  mutable offset : int;
}

let of_string input = { input; len = String.length input; offset = 0 }

let offset t = t.offset

(* Line and column of an offset: only an error pays for the count. *)
let position_at t offset =
  let line = ref 1 and line_start = ref 0 in
  for i = 0 to offset - 1 do
    if String.unsafe_get t.input i = '\n' then begin
      incr line;
      line_start := i + 1
    end
  done;
  { Error.line = !line; column = offset - !line_start + 1; offset }

let fail_at t offset fmt = Error.fail (position_at t offset) fmt

let fail t fmt = fail_at t t.offset fmt

let at_end t = t.offset >= t.len

let peek t = if at_end t then None else Some t.input.[t.offset]

let advance t = if not (at_end t) then t.offset <- t.offset + 1

(* The scanning loops are top-level functions, not local closures: without
   flambda a local [let rec] that captures variables is allocated on every
   call, and these run several times per tag. *)
let rec same_from input pos s i =
  i = String.length s
  || (String.unsafe_get input (pos + i) = String.unsafe_get s i && same_from input pos s (i + 1))

(* [s] occurs in the input at [pos], compared in place *)
let matches_at t pos s = pos + String.length s <= t.len && same_from t.input pos s 0

let looking_at t s = matches_at t t.offset s

let eat t s =
  if looking_at t s then begin
    t.offset <- t.offset + String.length s;
    true
  end
  else false

let expect t s = if not (eat t s) then fail t "expected %S" s

let is_space = function
  | ' ' | '\t' | '\r' | '\n' -> true
  | _ -> false

let skip_whitespace t =
  while (not (at_end t)) && is_space (String.unsafe_get t.input t.offset) do
    t.offset <- t.offset + 1
  done

let expect_whitespace t =
  if at_end t || not (is_space t.input.[t.offset]) then fail t "expected whitespace";
  skip_whitespace t

let rec is_blank s start stop =
  start >= stop || (is_space (String.unsafe_get s start) && is_blank s (start + 1) stop)

let rec char_data_end input len i =
  if i < len then
    match String.unsafe_get input i with
    | '<' | '&' -> i
    | _ -> char_data_end input len (i + 1)
  else i

let skip_char_data t = t.offset <- char_data_end t.input t.len t.offset

let take_while t pred =
  let start = t.offset in
  while (not (at_end t)) && pred (String.unsafe_get t.input t.offset) do
    t.offset <- t.offset + 1
  done;
  String.sub t.input start (t.offset - start)

let take_until t stop =
  let start = t.offset in
  let rec find i = if i >= t.len then None else if matches_at t i stop then Some i else find (i + 1) in
  match find start with
  | Some i ->
    t.offset <- i;
    String.sub t.input start (i - start)
  | None ->
    t.offset <- t.len;
    fail t "unterminated construct: expected %S" stop

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':' || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let at_name_start t = (not (at_end t)) && is_name_start (String.unsafe_get t.input t.offset)

let take_name t =
  if at_end t then fail t "expected a name, found end of input";
  let c = t.input.[t.offset] in
  if not (is_name_start c) then fail t "expected a name, found %C" c;
  take_while t is_name_char

let eat_name t name =
  let stop = t.offset + String.length name in
  matches_at t t.offset name
  && (stop >= t.len || not (is_name_char (String.unsafe_get t.input stop)))
  && begin
    t.offset <- stop;
    true
  end
