(** The Instance Selector (paper §2.4) — greedy algorithm.

    Maximizing the number of IList items captured within a bounded snippet
    size is NP-hard (the paper proves it; the companion SIGMOD'08 paper has
    the reduction). The practical algorithm is greedy: walk the IList in
    rank order; an item already covered by the snippet costs nothing;
    otherwise connect the instance with the smallest marginal edge cost,
    skipping the item when even the cheapest instance would overflow the
    bound. Later, cheaper items are still tried — the budget is spent on as
    many items as possible, respecting the ranking. *)

module Document = Extract_store.Document

type covered = {
  entry : Ilist.entry;
  instance : Document.node;  (** the instance that covers the item *)
  cost : int;                (** edges this item added (0 when free) *)
}

type selection = {
  snippet : Snippet_tree.t;
  covered : covered list;      (** rank order *)
  skipped : Ilist.entry list;  (** coverable items that did not fit *)
  uncoverable : Ilist.entry list; (** items with no instance in the result *)
  bound : int;
}

val greedy :
  ?skip_overflow:bool -> bound:int -> Extract_search.Result_tree.t -> Ilist.t -> selection
(** The paper's algorithm. [skip_overflow] (default true) continues past
    items that do not fit, as §2.4 prescribes ("as many items … as
    possible"); [false] is the strict-prefix ablation that stops at the
    first overflowing item. @raise Invalid_argument when [bound < 0]. *)

val covered_count : selection -> int

(* lint: allow unused-export *)
val coverage : selection -> float
(** covered / coverable items, in [0, 1]; 1.0 when nothing is coverable. Test
    use only: test/test_snippet.ml ["coverage metric"]. *)
