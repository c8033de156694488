(** Vocabularies for the synthetic dataset generators. All arrays are
    immutable by convention — do not mutate. *)

val cities : string array

val states : string array

val store_names : string array

val retailer_names : string array

val clothes_categories : string array

val fittings : string array

val situations : string array

val genres : string array

val studios : string array

val countries : string array

val auction_items : string array

val auction_adjectives : string array

val payment_kinds : string array

val journals : string array

val paper_topic_words : string array

val full_name : Extract_util.Prng.t -> string
(** A random "First Last" name. *)

val movie_title : Extract_util.Prng.t -> string

val unique_label : string -> int -> string
(** [unique_label base i] is ["base-i"] — guaranteed-unique values for key
    attributes. *)
