(** Features and dominance scores — the Dominant Feature Identifier
    (paper §2.3).

    A feature is a triplet [(e, a, v)]: entity name [e] has attribute [a]
    with value [v], e.g. [(store, city, Houston)]. [(e, a)] is the feature's
    type. Within one query result [R]:

    - [N(e,a,v)] — occurrences of the feature in [R];
    - [N(e,a)] — total value occurrences of the type in [R];
    - [D(e,a)] — distinct values of the type in [R];
    - dominance score [DS(f,R) = N(e,a,v) / (N(e,a) / D(e,a))] — the
      feature's frequency normalized by the average frequency of its type.

    A feature is {e dominant} when [DS > 1], or trivially when
    [D(e,a) = 1] (a type with a single value, paper's exception).

    The entity of an attribute instance is its nearest entity ancestor that
    belongs to the result; attribute instances with no entity ancestor in
    the result are attributed to the result root's tag (a result rooted at
    a connection node still has summarizable features). *)

type t = {
  entity : string;     (** entity tag name [e] *)
  attribute : string;  (** attribute tag name [a] *)
  value : string;      (** trimmed text value [v] *)
}

type stats = {
  occurrences : int;   (** N(e,a,v) *)
  type_total : int;    (** N(e,a) *)
  domain_size : int;   (** D(e,a) *)
  score : float;       (** DS *)
}

type analysis

val analyze : Extract_store.Node_kind.t -> Extract_search.Result_tree.t -> analysis

(* lint: allow unused-export *)
val analyze_calls : unit -> int
(** Number of {!analyze} invocations since program start (monotone,
    atomic). Instrumentation hook: the tests assert that pipeline runs
    analyze each result exactly once. Test use only: test/test_hotpath.ml. *)

val all : analysis -> (t * stats) list
(** Every feature of the result, ordered by first occurrence. *)

val dominant : analysis -> (t * stats) list
(** Dominant features, by decreasing score; ties broken by first
    occurrence in the result. *)

(* lint: allow unused-export *)
val stats_of : analysis -> t -> stats option
(** Test use only: the Fig. 1–3 regression tests (test/test_paper_example.ml)
    and test/test_snippet.ml read the paper's statistics with it. *)

(* lint: allow unused-export *)
val is_dominant : stats -> bool
(** Test use only: test/test_paper_example.ml and test/test_snippet.ml. *)

val instances : analysis -> t -> Extract_store.Document.node list
(** Attribute element nodes of the result carrying this feature, document
    order. *)

val feature_count : analysis -> int

val type_count : analysis -> int
(** Distinct feature types [(e, a)]. *)

val pp : Format.formatter -> t -> unit
(** [(store, city, Houston)]. *)
