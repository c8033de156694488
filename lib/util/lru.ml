(* Hash table + intrusive doubly linked list, most-recent at the head. *)

(* guarded-by: Sharded_lru.lock — a bare Lru is not thread-safe by design
   (see lru.mli); every shared instance sits behind a Sharded_lru shard *)
type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

(* guarded-by: Sharded_lru.lock — same story as node above *)
type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  {
    cap = capacity;
    table = Hashtbl.create capacity;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap

let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with
  | Some h -> h.prev <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
    unlink t node;
    push_front t node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hits <- t.hits + 1;
    touch t node;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    None

(* read-only probe: no recency rewiring, no counter updates — safe to
   call while iterating shard statistics without perturbing eviction
   order or hit rates *)
let peek t key =
  match Hashtbl.find_opt t.table key with
  | Some node -> Some node.value
  | None -> None

let evict t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.evictions <- t.evictions + 1

let put t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    node.value <- value;
    touch t node
  | None ->
    if Hashtbl.length t.table >= t.cap then evict t;
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace t.table key node;
    push_front t node

let find_or_add t key compute =
  match find t key with
  | Some v -> v
  | None ->
    let v = compute () in
    put t key v;
    v

let remove t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table key
  | None -> ()

let stats t = t.hits, t.misses

let evictions t = t.evictions
