(** String interning: a bijection between strings and dense integer ids.

    Tag names, attribute names and index tokens are interned so the document
    arena and the inverted index can store and compare plain integers. Ids
    are allocated consecutively from 0 in first-seen order, which makes them
    usable as array indexes. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the initial size of the string-to-id table (default
    64). *)

val intern : t -> string -> int
(** [intern t s] is the id of [s], allocating a fresh id if [s] was never
    seen. *)

val find : t -> string -> int option
(** [find t s] is the id of [s] if already interned. *)

val name : t -> int -> string
(** [name t id] is the string with id [id].
    @raise Invalid_argument if [id] was never allocated. *)

val count : t -> int
(** Number of distinct interned strings; valid ids are [0 .. count - 1]. *)

val iter : (int -> string -> unit) -> t -> unit
(** [iter f t] applies [f id s] in id order. *)
