type t = {
  ids : (string, int) Hashtbl.t;
  names : string Arraylist.t;
}

let create ?(capacity = 64) () =
  { ids = Hashtbl.create capacity; names = Arraylist.create () }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
    let id = Arraylist.length t.names in
    Hashtbl.add t.ids s id;
    Arraylist.push t.names s;
    id

let find t s = Hashtbl.find_opt t.ids s

let name t id =
  if id < 0 || id >= Arraylist.length t.names then
    invalid_arg (Printf.sprintf "Interner.name: unknown id %d" id);
  Arraylist.get t.names id

let count t = Arraylist.length t.names

let iter f t = Arraylist.iteri f t.names
