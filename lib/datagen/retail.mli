(** Scalable retailer dataset — the paper's "stores" demo scenario.

    Same schema as {!Paper_example} ([retailers/retailer/store/merchandises/
    clothes]) but fully parameterized, with Zipf-skewed feature values so
    dominant features exist at every scale. Used by the benchmark sweeps
    (result size, size bound, feature count, index build). *)

type config = {
  seed : int;
  retailers : int;
  stores_per_retailer : int;
  clothes_per_store : int;
  city_pool : int;        (** distinct cities drawn per retailer *)
  category_pool : int;    (** distinct clothes categories *)
  value_skew : float;     (** Zipf skew of feature values; 0 = uniform *)
  with_dtd : bool;
}

val default : config
(** seed 42, 8 retailers × 10 stores × 12 clothes, pools 6/8, skew 1.0,
    with DTD. *)

val generate : config -> Extract_xml.Types.document

val scaled : ?seed:int -> int -> Extract_xml.Types.document
(** [scaled n] targets roughly [n] clothes entities total, keeping the
    default shape otherwise. *)
