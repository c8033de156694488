(** Deterministic pseudo-random number generation (splitmix64).

    The synthetic dataset generators and workload generators must be
    reproducible across runs and platforms, so they use this self-contained
    PRNG rather than [Stdlib.Random]. Streams can be [split] so independent
    generator components do not perturb each other's sequences. *)

type t

val create : int -> t
(** [create seed] is a fresh stream seeded with [seed]. *)

(* lint: allow unused-export *)
val split : t -> t
(** [split t] derives an independent stream; [t] advances by one step.
    Test use only: test/test_util.ml ["split"]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val int_in_range : t -> min:int -> max:int -> int
(** [int_in_range t ~min ~max] is uniform in [min, max] inclusive.
    @raise Invalid_argument if [max < min]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on an
    empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> 'a array -> int -> 'a list
(** [sample t arr k] is [k] elements drawn without replacement (all of
    [arr], in random order, if [k >= Array.length arr]). *)
