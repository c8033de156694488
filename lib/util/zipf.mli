(** Zipf-distributed sampling over ranks [0 .. n-1].

    Feature-value skew in the synthetic datasets is Zipfian so that dominant
    features (the paper's §2.3) genuinely exist: with skew [s > 0], rank 0
    is sampled proportionally to [1], rank [k] proportionally to
    [1 / (k+1)^s]. Skew [0] degenerates to the uniform distribution. *)

type t

val create : n:int -> skew:float -> t
(** Precomputes the cumulative distribution.
    @raise Invalid_argument if [n <= 0] or [skew < 0]. *)

val size : t -> int

val sample : t -> Prng.t -> int
(** [sample t rng] is a rank in [0, n). *)

val probability : t -> int -> float
(** [probability t k] is the probability mass of rank [k]. *)
