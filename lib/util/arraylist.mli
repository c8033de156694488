(** Growable arrays (amortized O(1) append), the workhorse buffer used when
    building pre-order document arenas and inverted-index posting lists. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty array list. Its backing store is allocated by
    the first {!push} (16 slots) and doubles when full. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element. @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i x] replaces the [i]-th element. @raise Invalid_argument if out
    of bounds. *)

val push : 'a t -> 'a -> unit
(** [push t x] appends [x] at the end. *)

val last : 'a t -> 'a
(** [last t] is the last element. @raise Invalid_argument if empty. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val to_array : 'a t -> 'a array
(** [to_array t] is a fresh array with the elements of [t] in order. *)
