type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

(* The backing store is allocated on the first push: there is no
   placeholder element of type ['a] to fill it with before then. *)
let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make (max n 1) x; len = n }

let length t = t.len

let is_empty t = t.len = 0

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Arraylist: index %d out of bounds [0,%d)" i t.len)

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let data = Array.make new_cap x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Arraylist.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let last t =
  if t.len = 0 then invalid_arg "Arraylist.last: empty";
  t.data.(t.len - 1)

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let to_array t = Array.sub t.data 0 t.len

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.len
