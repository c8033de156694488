(** The paper's running example, reconstructed exactly.

    Figure 1 shows part of one query result for "Texas apparel retailer"
    plus its value-occurrence statistics; §2.3 works out the dominance
    scores by hand. Those numbers pin the result down:

    - 10 stores, all in Texas: Houston ×6, Austin ×1, three other cities
      ×1 → [D(store, city) = 5], [DS(Houston) = 6 / (10/5) = 3.0];
    - clothes with [N(clothes, category) = 1070] over 11 distinct
      categories (outwear 220, suit 120, skirt 80, sweaters 70, seven
      others totalling 580) → [DS(outwear) ≈ 2.2], [DS(suit) ≈ 1.2];
    - [N(clothes, fitting) = 1000] over man 600 / woman 360 / children 40
      → [DS(man) = 1.8], [DS(woman) ≈ 1.1];
    - [N(clothes, situation) = 1000] over casual 700 / formal 300 →
      [DS(casual) = 1.4].

    The generated document contains the Brook Brothers retailer with
    exactly these statistics plus two non-Texas retailers, so the query
    has a single result and the IList of Fig. 3 is reproduced verbatim.
    The regression tests in [test/test_paper_example.ml] assert all of the
    above. *)

val query : string
(** ["Texas apparel retailer"]. *)

(* lint: allow unused-export *)
val expected_ilist : string list
(** Fig. 3: Texas, apparel, retailer, clothes, store, Brook Brothers,
    Houston, outwear, man, casual, suit, woman. The Fig. 3 ground truth of
    test/test_paper_example.ml and test/test_integration.ml. *)

val document : ?with_dtd:bool -> unit -> Extract_xml.Types.document
(** The full document. [with_dtd] (default true) attaches the DTD internal
    subset so the *-node inference can be exercised through either path. *)
