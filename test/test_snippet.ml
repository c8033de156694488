(* Unit tests for the core snippet library: feature analysis, return
   entities, result keys, IList construction, snippet trees, greedy and
   exact instance selection, and the baselines. *)

open Extract_snippet
module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Inverted_index = Extract_store.Inverted_index
module Result_tree = Extract_search.Result_tree
module Query = Extract_search.Query

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* Test database: one team of players.
   pre-order ids:
   0 league
   └─ 1 team
      ├─ 2 name "Sharks" 3
      ├─ 4 player (5 pname "Ann" 6,  7 pos "guard" 8)
      ├─ 9 player (10 pname "Bo" 11, 12 pos "guard" 13)
      └─ 14 player (15 pname "Cy" 16, 17 pos "center" 18)
   └─ 19 team
      ├─ 20 name "Owls" 21
      └─ 22 player (23 pname "Di" 24, 25 pos "wing" 26)
*)
let league =
  "<league>\
   <team><name>Sharks</name>\
   <player><pname>Ann</pname><pos>guard</pos></player>\
   <player><pname>Bo</pname><pos>guard</pos></player>\
   <player><pname>Cy</pname><pos>center</pos></player></team>\
   <team><name>Owls</name>\
   <player><pname>Di</pname><pos>wing</pos></player></team>\
   </league>"

type db = {
  doc : Document.t;
  kinds : Node_kind.t;
  keys : Key_miner.t;
  index : Inverted_index.t;
}

let setup src =
  let doc = Document.load_string src in
  let kinds = Node_kind.of_document doc in
  { doc; kinds; keys = Key_miner.mine kinds; index = Inverted_index.build doc }

let league_db = lazy (setup league)

let team_result db = Result_tree.full db.doc 1

(* ------------------------------------------------------------------ *)
(* Feature analysis *)

let test_feature_counts () =
  let db = Lazy.force league_db in
  let a = Feature.analyze db.kinds (team_result db) in
  (* features: (team,name,Sharks), (player,pname,{Ann,Bo,Cy}),
     (player,pos,{guard,center}) *)
  check int "distinct features" 6 (Feature.feature_count a);
  check int "types" 3 (Feature.type_count a)

let test_feature_stats () =
  let db = Lazy.force league_db in
  let a = Feature.analyze db.kinds (team_result db) in
  let guard = { Feature.entity = "player"; attribute = "pos"; value = "guard" } in
  match Feature.stats_of a guard with
  | None -> Alcotest.fail "guard feature missing"
  | Some s ->
    check int "N(e,a,v)" 2 s.Feature.occurrences;
    check int "N(e,a)" 3 s.Feature.type_total;
    check int "D(e,a)" 2 s.Feature.domain_size;
    (* DS = 2 / (3/2) = 4/3 *)
    Alcotest.check (Alcotest.float 1e-9) "DS" (4.0 /. 3.0) s.Feature.score

let test_feature_dominance_rule () =
  let db = Lazy.force league_db in
  let a = Feature.analyze db.kinds (team_result db) in
  let stats v =
    Option.get (Feature.stats_of a { Feature.entity = "player"; attribute = "pos"; value = v })
  in
  check bool "guard dominant (DS>1)" true (Feature.is_dominant (stats "guard"));
  check bool "center not dominant" false (Feature.is_dominant (stats "center"));
  (* name has domain size 1 within the result: trivially dominant *)
  let name_stats =
    Option.get
      (Feature.stats_of a { Feature.entity = "team"; attribute = "name"; value = "Sharks" })
  in
  check bool "D=1 trivially dominant" true (Feature.is_dominant name_stats);
  Alcotest.check (Alcotest.float 1e-9) "D=1 has DS=1" 1.0 name_stats.Feature.score

let test_feature_dominant_sorted () =
  let db = Lazy.force league_db in
  let a = Feature.analyze db.kinds (team_result db) in
  let doms = Feature.dominant a in
  let scores = List.map (fun (_, s) -> s.Feature.score) doms in
  check bool "scores non-increasing" true (List.sort (fun a b -> compare b a) scores = scores)

let test_feature_instances () =
  let db = Lazy.force league_db in
  let a = Feature.analyze db.kinds (team_result db) in
  let guard = { Feature.entity = "player"; attribute = "pos"; value = "guard" } in
  check bool "two instances in doc order" true (Feature.instances a guard = [ 7; 12 ]);
  check bool "unknown feature" true
    (Feature.instances a { Feature.entity = "x"; attribute = "y"; value = "z" } = [])

let test_feature_sum_identity () =
  (* For each type, the value occurrences must sum to the type total. *)
  let db = Lazy.force league_db in
  let a = Feature.analyze db.kinds (team_result db) in
  let sums = Hashtbl.create 8 in
  List.iter
    (fun ((f : Feature.t), (s : Feature.stats)) ->
      let key = f.Feature.entity, f.Feature.attribute in
      let sofar, total = Option.value ~default:(0, s.Feature.type_total) (Hashtbl.find_opt sums key) in
      Hashtbl.replace sums key (sofar + s.Feature.occurrences, total))
    (Feature.all a);
  Hashtbl.iter (fun _ (sum, total) -> check int "sum = N(e,a)" total sum) sums

let test_feature_root_entity_fallback () =
  (* attributes with no entity ancestor inside the result are attributed to
     the result root's tag *)
  let db = setup "<r><a>x</a><a>y</a><solo>v</solo></r>" in
  (* here <a> repeats -> entity (childless? no: has text) — actually a has
     only-text children and repeats: starred -> entity. solo is attribute. *)
  let result = Result_tree.full db.doc 0 in
  let analysis = Feature.analyze db.kinds result in
  let f = { Feature.entity = "r"; attribute = "solo"; value = "v" } in
  check bool "root fallback entity" true (Feature.stats_of analysis f <> None)

(* ------------------------------------------------------------------ *)
(* Return entities *)

let test_return_entity_name_match () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let returns = Return_entity.return_entities db.kinds r (Query.of_string "player guard") in
  (* "player" matches the player entity tag *)
  check bool "players returned" true (returns = [ 4; 9; 14 ])

let test_return_entity_attribute_match () =
  let db = Lazy.force league_db in
  let r = team_result db in
  (* "pos" matches an attribute name of player *)
  let returns = Return_entity.return_entities db.kinds r (Query.of_string "pos center") in
  check bool "players via attribute name" true (returns = [ 4; 9; 14 ])

let test_return_entity_fallback_highest () =
  let db = Lazy.force league_db in
  let r = team_result db in
  (* no keyword matches an entity or attribute name: highest entity wins *)
  let returns = Return_entity.return_entities db.kinds r (Query.of_string "guard sharks") in
  check bool "highest = team" true (returns = [ 1 ])

let test_highest_entities () =
  let db = Lazy.force league_db in
  let r = team_result db in
  check bool "team is highest" true (Return_entity.highest_entities db.kinds r = [ 1 ]);
  (* a result rooted at a player: that player is highest *)
  let rp = Result_tree.full db.doc 4 in
  check bool "player highest in own result" true
    (Return_entity.highest_entities db.kinds rp = [ 4 ])

let test_supporting_entities () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let supporting = Return_entity.supporting_entities db.kinds r (Query.of_string "player guard") in
  check bool "team supports players" true (supporting = [ 1 ])

let test_matches_name_tokens () =
  let q = Query.of_string "brook retailer" in
  check bool "token match" true (Return_entity.matches_name q "brook_brothers");
  check bool "no match" false (Return_entity.matches_name q "store")

(* ------------------------------------------------------------------ *)
(* Result key *)

let test_result_key_found () =
  let db = Lazy.force league_db in
  let r = team_result db in
  match Result_key.key_of_result db.keys db.kinds r (Query.of_string "team guard") with
  | Some key ->
    check string "key value" "Sharks" key.Result_key.value;
    check int "key entity" 1 key.Result_key.entity;
    check int "key attribute node" 2 key.Result_key.attribute
  | None -> Alcotest.fail "expected a key"

let test_result_key_return_entity_priority () =
  let db = Lazy.force league_db in
  let r = team_result db in
  (* return entity is player (name match); players' key is pname *)
  match Result_key.key_of_result db.keys db.kinds r (Query.of_string "player guard") with
  | Some key -> check string "player key" "Ann" key.Result_key.value
  | None -> Alcotest.fail "expected a key"

let test_result_key_none () =
  (* entities whose attributes are far from unique have no key: three
     instances share one value, uniqueness 1/3 < the fallback threshold *)
  let db = setup "<r><e><v>x</v></e><e><v>x</v></e><e><v>x</v></e></r>" in
  let r = Result_tree.full db.doc 0 in
  check bool "no key" true
    (Result_key.key_of_result db.keys db.kinds r (Query.of_string "e x") = None)

(* ------------------------------------------------------------------ *)
(* IList *)

let build_ilist db result q = Ilist.build db.kinds db.keys db.index result (Query.of_string q)

let test_ilist_order () =
  let db = Lazy.force league_db in
  let il = build_ilist db (team_result db) "guard team" in
  let items = List.map (fun (e : Ilist.entry) -> e.Ilist.item) (Ilist.entries il) in
  (match items with
  | Ilist.Keyword "guard" :: Ilist.Keyword "team" :: rest ->
    (* then entity names: player (3 instances) before any others *)
    (match rest with
    | Ilist.Entity_name "player" :: _ -> ()
    | _ -> Alcotest.fail "expected entity name player after keywords")
  | _ -> Alcotest.fail "keywords must come first in query order");
  (* ranks are sequential *)
  List.iteri
    (fun i (e : Ilist.entry) -> check int "rank" i e.Ilist.rank)
    (Ilist.entries il)

let test_ilist_key_present () =
  let db = Lazy.force league_db in
  let il = build_ilist db (team_result db) "team guard" in
  let has_key =
    List.exists
      (fun (e : Ilist.entry) ->
        match e.Ilist.item with
        | Ilist.Result_key "Sharks" -> true
        | _ -> false)
      (Ilist.entries il)
  in
  check bool "key in ilist" true has_key

let test_ilist_dedup () =
  let db = Lazy.force league_db in
  (* "player" is both keyword and entity name: must appear once *)
  let il = build_ilist db (team_result db) "player guard" in
  let displays = List.map (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item) (Ilist.entries il) in
  let lowered = List.map String.lowercase_ascii displays in
  check bool "no duplicate display" true
    (List.length lowered = List.length (List.sort_uniq compare lowered))

let test_ilist_instances_are_result_members () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard team" in
  List.iter
    (fun (e : Ilist.entry) ->
      Array.iter
        (fun n -> check bool "instance in result" true (Result_tree.mem r n))
        e.Ilist.instances)
    (Ilist.entries il)

let test_ilist_keyword_instances () =
  let db = Lazy.force league_db in
  let il = build_ilist db (team_result db) "guard" in
  match Ilist.entries il with
  | first :: _ ->
    check bool "guard instances" true (Array.to_list first.Ilist.instances = [ 7; 12 ])
  | [] -> Alcotest.fail "empty ilist"

let test_ilist_uncoverable_keyword () =
  let db = Lazy.force league_db in
  (* keyword with no match inside this result *)
  let il = build_ilist db (team_result db) "wing guard" in
  let wing =
    List.find
      (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item = "wing")
      (Ilist.entries il)
  in
  check int "wing has no instances here" 0 (Array.length wing.Ilist.instances);
  check bool "coverable excludes it" true
    (List.for_all (fun (e : Ilist.entry) -> Array.length e.Ilist.instances > 0) (Ilist.coverable il))

let test_ilist_to_string () =
  let db = Lazy.force league_db in
  let il = build_ilist db (team_result db) "guard" in
  let s = Ilist.to_string il in
  check bool "starts with keyword" true
    (String.length s >= 5 && String.sub s 0 5 = "guard")

(* ------------------------------------------------------------------ *)
(* Snippet tree *)

let test_snippet_initial () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  check int "one element" 1 (Snippet_tree.element_count s);
  check int "zero edges" 0 (Snippet_tree.edge_count s);
  check bool "root in" true (Snippet_tree.mem s 1)

let test_snippet_cost_and_add () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  (* pos node 7 needs player 4 and pos 7: cost 2 *)
  check int "cost of pos" 2 (Snippet_tree.cost_of s 7);
  let added = Snippet_tree.add s 7 in
  check int "added 2 nodes" 2 (List.length added);
  check int "edges now 2" 2 (Snippet_tree.edge_count s);
  check bool "path present" true (Snippet_tree.mem s 4 && Snippet_tree.mem s 7);
  (* sibling pname now costs 1 *)
  check int "sibling cost" 1 (Snippet_tree.cost_of s 5);
  check int "existing cost 0" 0 (Snippet_tree.cost_of s 4);
  check bool "re-add returns nothing" true (Snippet_tree.add s 7 = [])

let test_snippet_remove_undo () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  let added = Snippet_tree.add s 7 in
  Snippet_tree.remove s added;
  check int "back to root" 1 (Snippet_tree.element_count s);
  check bool "removed" false (Snippet_tree.mem s 7)

let test_snippet_copy_independent () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  let s2 = Snippet_tree.copy s in
  ignore (Snippet_tree.add s2 7);
  check bool "original untouched" false (Snippet_tree.mem s 7);
  check bool "copy has it" true (Snippet_tree.mem s2 7)

let test_snippet_non_member_rejected () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  Alcotest.check_raises "node outside result"
    (Invalid_argument "Snippet_tree: node 20 is not a result element") (fun () ->
      ignore (Snippet_tree.cost_of s 20))

let test_snippet_contains_any () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  check bool "root hit" true (Snippet_tree.contains_any s [| 5; 1 |]);
  check bool "none" false (Snippet_tree.contains_any s [| 5; 7 |])

let test_snippet_render_values_inline () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  ignore (Snippet_tree.add s 2);
  let rendered = Snippet_tree.render s in
  check bool "value inline" true
    (let contains_substring hay needle =
       let lh = String.length hay and ln = String.length needle in
       let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
       loop 0
     in
     contains_substring rendered "name \"Sharks\"")

let test_snippet_to_xml_keeps_values () =
  let db = Lazy.force league_db in
  let s = Snippet_tree.create (team_result db) in
  ignore (Snippet_tree.add s 2);
  let xml = Snippet_tree.to_xml s in
  check string "text kept" "Sharks" (Extract_xml.Types.text_content xml)

(* ------------------------------------------------------------------ *)
(* Greedy selector *)

let test_greedy_respects_bound () =
  let db = Lazy.force league_db in
  let r = team_result db in
  List.iter
    (fun bound ->
      let il = build_ilist db r "guard team" in
      let sel = Selector.greedy ~bound r il in
      check bool
        (Printf.sprintf "bound %d respected" bound)
        true
        (Snippet_tree.edge_count sel.Selector.snippet <= bound))
    [ 0; 1; 2; 3; 5; 8; 100 ]

let test_greedy_zero_bound () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "team guard" in
  let sel = Selector.greedy ~bound:0 r il in
  check int "no edges" 0 (Snippet_tree.edge_count sel.Selector.snippet);
  (* the root-only snippet still covers items whose instance is the root:
     keyword "team" matches the team node itself *)
  check bool "root item covered free" true
    (List.exists
       (fun (c : Selector.covered) -> c.Selector.instance = 1)
       sel.Selector.covered)

let test_greedy_large_bound_covers_all () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard team" in
  let sel = Selector.greedy ~bound:1000 r il in
  check int "everything coverable covered" (List.length (Ilist.coverable il))
    (Selector.covered_count sel);
  check bool "nothing skipped" true (sel.Selector.skipped = [])

let test_greedy_rank_priority () =
  (* With a tight budget the top-ranked item must win over later ones. *)
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard" in
  let sel = Selector.greedy ~bound:2 r il in
  (* guard costs 2 (player + pos); it is rank 0 and must be covered *)
  check bool "rank 0 covered" true
    (List.exists (fun (c : Selector.covered) -> c.Selector.entry.Ilist.rank = 0) sel.Selector.covered)

let test_greedy_skip_then_continue () =
  (* an expensive item is skipped but a later cheap one still fits *)
  let src = "<r><deep><a><b><c><d>far</d></c></b></a></deep><near>close</near><near>x</near></r>" in
  let db = setup src in
  let r = Result_tree.full db.doc 0 in
  let il = build_ilist db r "far close" in
  (* far costs 5, close costs 1 *)
  let sel = Selector.greedy ~bound:2 r il in
  let covered_displays =
    List.map (fun (c : Selector.covered) -> Ilist.display c.Selector.entry.Ilist.item) sel.Selector.covered
  in
  check bool "far skipped" true (not (List.mem "far" covered_displays));
  check bool "close covered" true (List.mem "close" covered_displays)

let test_greedy_shares_paths () =
  (* covering a second item under an already-included entity is cheaper *)
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard ann" in
  let sel = Selector.greedy ~bound:3 r il in
  (* guard (rank 0): cheapest instance is pos 7 under player 4 (cost 2);
     ann (rank 1): pname 5 under the SAME player costs only 1. The entity
     names player and team are then covered for free (player 4 and the
     root are already in the snippet). *)
  let displays =
    List.map (fun (c : Selector.covered) -> Ilist.display c.Selector.entry.Ilist.item)
      sel.Selector.covered
  in
  check bool "guard covered" true (List.mem "guard" displays);
  check bool "ann covered" true (List.mem "ann" displays);
  check bool "player free" true (List.mem "player" displays);
  check int "exactly 3 edges" 3 (Snippet_tree.edge_count sel.Selector.snippet)

let test_greedy_coverage_metric () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard team" in
  let sel = Selector.greedy ~bound:1000 r il in
  Alcotest.check (Alcotest.float 1e-9) "full coverage" 1.0 (Selector.coverage sel)

let test_greedy_negative_bound () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard" in
  Alcotest.check_raises "negative" (Invalid_argument "Selector.greedy: negative bound")
    (fun () -> ignore (Selector.greedy ~bound:(-1) r il))

let test_greedy_strict_prefix_mode () =
  (* far (rank 0) costs 5, close (rank 1) costs 1: with bound 2 the default
     mode covers close; strict-prefix stops at far and covers nothing *)
  let src = "<r><deep><a><b><c><d>far</d></c></b></a></deep><near>close</near><near>x</near></r>" in
  let db = setup src in
  let r = Result_tree.full db.doc 0 in
  let il = build_ilist db r "far close" in
  let relaxed = Selector.greedy ~bound:2 r il in
  let strict = Selector.greedy ~skip_overflow:false ~bound:2 r il in
  check bool "relaxed covers close" true
    (List.exists
       (fun (c : Selector.covered) -> Ilist.display c.Selector.entry.Ilist.item = "close")
       relaxed.Selector.covered);
  check bool "strict covers nothing after overflow" true
    (not
       (List.exists
          (fun (c : Selector.covered) -> Ilist.display c.Selector.entry.Ilist.item = "close")
          strict.Selector.covered));
  check bool "strict never beats relaxed" true
    (Selector.covered_count strict <= Selector.covered_count relaxed)

let test_greedy_deterministic () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let run () =
    let il = build_ilist db r "guard team" in
    let sel = Selector.greedy ~bound:4 r il in
    List.map (fun (c : Selector.covered) -> c.Selector.instance) sel.Selector.covered
  in
  check bool "same instances chosen" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Optimal selector *)

let test_optimal_at_least_greedy () =
  let db = Lazy.force league_db in
  let r = team_result db in
  List.iter
    (fun bound ->
      let il = build_ilist db r "guard team sharks" in
      let greedy = Selector.greedy ~bound r il in
      let opt = Optimal.solve ~bound r il in
      check bool
        (Printf.sprintf "bound %d: optimal >= greedy" bound)
        true
        (Selector.covered_count opt.Optimal.selection >= Selector.covered_count greedy))
    [ 0; 1; 2; 3; 4; 6 ]

let test_optimal_respects_bound () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard team" in
  let opt = Optimal.solve ~bound:3 r il in
  check bool "bound respected" true
    (Snippet_tree.edge_count opt.Optimal.selection.Selector.snippet <= 3);
  check bool "exact" true opt.Optimal.exact

let test_optimal_beats_greedy_sometimes () =
  (* Classic greedy trap: the highest-ranked item has two instances, one of
     which unlocks nothing, while the cheaper shared subtree serves the two
     later items. Greedy takes rank order; optimal can cover more. *)
  let src =
    "<r>\
     <x><k1>alpha</k1></x>\
     <y><k1>alpha</k1><k2>beta</k2><k3>gamma</k3></y>\
     </r>"
  in
  let db = setup src in
  let r = Result_tree.full db.doc 0 in
  let il = build_ilist db r "alpha beta gamma" in
  List.iter
    (fun bound ->
      let greedy = Selector.greedy ~bound r il in
      let opt = Optimal.solve ~bound r il in
      check bool "optimal >= greedy" true
        (Selector.covered_count opt.Optimal.selection >= Selector.covered_count greedy))
    [ 2; 3; 4; 5 ]

let test_optimal_step_cap () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "guard team sharks ann" in
  let opt = Optimal.solve ~max_steps:3 ~bound:10 r il in
  check bool "truncated flagged" true (not opt.Optimal.exact)

let test_optimal_zero_bound () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let il = build_ilist db r "team" in
  let opt = Optimal.solve ~bound:0 r il in
  check int "no edges" 0 (Snippet_tree.edge_count opt.Optimal.selection.Selector.snippet)

(* ------------------------------------------------------------------ *)
(* Text baseline *)

let test_text_baseline_finds_keywords () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let s = Text_baseline.generate ~window_tokens:3 r (Query.of_string "guard") in
  check bool "covers guard" true (List.mem "guard" s.Text_baseline.window);
  check int "hits" 1 s.Text_baseline.keyword_hits

let test_text_baseline_window_size () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let s = Text_baseline.generate ~window_tokens:4 r (Query.of_string "guard") in
  check bool "window at most 4" true (List.length s.Text_baseline.window <= 4)

let test_text_baseline_maximizes_distinct () =
  (* the window containing both keywords must win over single-keyword
     windows *)
  let db = setup "<r><a>apple pie</a><b>filler filler filler</b><c>apple cake</c></r>" in
  let r = Result_tree.full db.doc 0 in
  let s = Text_baseline.generate ~window_tokens:2 r (Query.of_string "apple cake") in
  check int "both in window" 2 s.Text_baseline.keyword_hits

let test_text_baseline_short_text () =
  let db = setup "<r><a>tiny</a></r>" in
  let r = Result_tree.full db.doc 0 in
  let s = Text_baseline.generate ~window_tokens:50 r (Query.of_string "tiny") in
  check bool "whole text" true (s.Text_baseline.window = [ "tiny" ]);
  check int "hit" 1 s.Text_baseline.keyword_hits

let test_text_baseline_window_for_bound () =
  check int "2x" 12 (Text_baseline.window_for_bound 6);
  check int "min 1" 1 (Text_baseline.window_for_bound 0)

(* ------------------------------------------------------------------ *)
(* Naive baseline *)

let test_naive_respects_bound () =
  let db = Lazy.force league_db in
  let r = team_result db in
  List.iter
    (fun bound ->
      let s = Naive_baseline.generate ~bound r in
      check bool
        (Printf.sprintf "bound %d" bound)
        true
        (Snippet_tree.edge_count s <= bound))
    [ 0; 1; 3; 7; 100 ]

let test_naive_breadth_first () =
  let db = Lazy.force league_db in
  let r = team_result db in
  let s = Naive_baseline.generate ~bound:2 r in
  (* BFS adds the first two children of team: name 2 and player 4 *)
  check bool "name in" true (Snippet_tree.mem s 2);
  check bool "player in" true (Snippet_tree.mem s 4);
  check bool "deeper not in" false (Snippet_tree.mem s 5)

let test_naive_exhausts_small_results () =
  let db = setup "<r><a>1</a></r>" in
  let r = Result_tree.full db.doc 0 in
  let s = Naive_baseline.generate ~bound:100 r in
  check int "everything" 1 (Snippet_tree.edge_count s)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let test_pipeline_end_to_end () =
  let db = Pipeline.of_xml_string league in
  let results = Pipeline.run ~bound:4 db "guard team" in
  check int "one result" 1 (List.length results);
  let r = List.hd results in
  check bool "bound respected" true
    (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet <= 4);
  check bool "ilist non-empty" true (Ilist.length r.Pipeline.ilist > 0)

let test_pipeline_accessors () =
  let db = Pipeline.of_xml_string league in
  check bool "doc" true (Document.node_count (Pipeline.document db) > 0);
  check bool "index" true (Inverted_index.keyword_count (Pipeline.index db) "guard" > 0)

let test_pipeline_external_result () =
  (* the orthogonality path: hand the pipeline a result produced elsewhere *)
  let db = Pipeline.of_xml_string league in
  let result = Result_tree.full (Pipeline.document db) 1 in
  let out = Pipeline.snippet_of ~bound:3 db result (Query.of_string "guard") in
  check bool "bound" true (Snippet_tree.edge_count out.Pipeline.selection.Selector.snippet <= 3)

let test_pipeline_no_results () =
  let db = Pipeline.of_xml_string league in
  check int "no match" 0 (List.length (Pipeline.run db "zebra"));
  check int "empty query" 0 (List.length (Pipeline.run db ""))

let test_pipeline_limit () =
  let db = Pipeline.of_xml_string league in
  let all = Pipeline.run db "player" in
  let limited = Pipeline.run ~limit:2 db "player" in
  check bool "limit applies" true (List.length limited <= 2 && List.length limited <= List.length all)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_full_snippet_scores_one () =
  let db = Pipeline.of_xml_string league in
  let results = Pipeline.run ~bound:1000 db "guard team" in
  let r = List.hd results in
  let tokens = Metrics.snippet_tokens db r.Pipeline.selection.Selector.snippet in
  let c = Metrics.coverage ~tokens r.Pipeline.ilist in
  Alcotest.check (Alcotest.float 1e-9) "keywords" 1.0 c.Metrics.keywords;
  Alcotest.check (Alcotest.float 1e-9) "entities" 1.0 c.Metrics.entity_names;
  Alcotest.check (Alcotest.float 1e-9) "key" 1.0 c.Metrics.result_key;
  Alcotest.check (Alcotest.float 1e-9) "all" 1.0 c.Metrics.all_items;
  Alcotest.check (Alcotest.float 1e-9) "weighted" 1.0 c.Metrics.rank_weighted

let test_metrics_empty_tokens_score_zero () =
  let db = Pipeline.of_xml_string league in
  let r = List.hd (Pipeline.run ~bound:4 db "guard team") in
  let c = Metrics.coverage ~tokens:[] r.Pipeline.ilist in
  Alcotest.check (Alcotest.float 1e-9) "keywords 0" 0.0 c.Metrics.keywords;
  Alcotest.check (Alcotest.float 1e-9) "key 0" 0.0 c.Metrics.result_key;
  Alcotest.check (Alcotest.float 1e-9) "all 0" 0.0 c.Metrics.all_items

let test_metrics_covers_multi_token () =
  check bool "multi-token yes" true (Metrics.covers [ "brook"; "brothers"; "x" ] "Brook Brothers");
  check bool "partial no" false (Metrics.covers [ "brook" ] "Brook Brothers");
  check bool "empty value no" false (Metrics.covers [ "a" ] "---")

let test_metrics_monotone_in_bound () =
  (* more budget can only increase (or keep) the rank-weighted coverage of
     the snippet actually built, measured against the same ilist — not
     strictly guaranteed by greedy, but holds on this fixture *)
  let db = Pipeline.of_xml_string league in
  let r4 = List.hd (Pipeline.run ~bound:2 db "guard team") in
  let r8 = List.hd (Pipeline.run ~bound:8 db "guard team") in
  let score (r : Pipeline.snippet_result) =
    (Metrics.coverage
       ~tokens:(Metrics.snippet_tokens db r.Pipeline.selection.Selector.snippet)
       r.Pipeline.ilist)
      .Metrics.rank_weighted
  in
  check bool "more budget >= less" true (score r8 >= score r4)

(* ------------------------------------------------------------------ *)
(* Deadlines and graceful degradation *)

module Deadline = Extract_util.Deadline
module Faults = Extract_util.Faults

let with_faults spec f =
  match Faults.configure spec with
  | Error e -> Alcotest.failf "configure %S: %s" spec e
  | Ok () -> Fun.protect ~finally:Faults.clear f

let expired_deadline () = Deadline.of_ms_opt (Some 0)

let test_degraded_on_expired_deadline () =
  let db = Pipeline.of_xml_string league in
  let full = Pipeline.run ~bound:4 db "guard" in
  let degraded = Pipeline.run ~bound:4 ~deadline:(expired_deadline ()) db "guard" in
  check int "same result count" (List.length full) (List.length degraded);
  check bool "has results" true (degraded <> []);
  List.iter2
    (fun (f : Pipeline.snippet_result) (d : Pipeline.snippet_result) ->
      check bool "tagged degraded" true d.Pipeline.degraded;
      check bool "full run not degraded" false f.Pipeline.degraded;
      check bool "same result tree" true
        (Result_tree.root f.Pipeline.result = Result_tree.root d.Pipeline.result);
      (* the fallback is still a valid snippet: rooted, within bound *)
      let snip = d.Pipeline.selection.Selector.snippet in
      check bool "bound respected" true (Snippet_tree.edge_count snip <= 4);
      check bool "root present" true
        (Snippet_tree.mem snip (Result_tree.root d.Pipeline.result));
      check int "ilist empty" 0 (Ilist.length d.Pipeline.ilist);
      check bool "no coverage accounting" true (d.Pipeline.selection.Selector.covered = []))
    full degraded

let test_degraded_matches_naive_baseline () =
  let db = Pipeline.of_xml_string league in
  let degraded = Pipeline.run ~bound:3 ~deadline:(expired_deadline ()) db "guard" in
  List.iter
    (fun (d : Pipeline.snippet_result) ->
      let naive = Naive_baseline.generate ~bound:3 d.Pipeline.result in
      check bool "degraded snippet = naive baseline" true
        (Snippet_tree.nodes d.Pipeline.selection.Selector.snippet = Snippet_tree.nodes naive))
    degraded

let test_degraded_all_run_variants () =
  let db = Pipeline.of_xml_string league in
  let d = expired_deadline () in
  let all_degraded rs = rs <> [] && List.for_all (fun r -> r.Pipeline.degraded) rs in
  check bool "run" true (all_degraded (Pipeline.run ~deadline:d db "guard"));
  check bool "run_ranked" true
    (all_degraded (List.map snd (Pipeline.run_ranked ~deadline:d db "guard")));
  check bool "run_differentiated" true
    (all_degraded (Pipeline.run_differentiated ~deadline:d db "guard"))

let test_no_deadline_never_degrades () =
  let db = Pipeline.of_xml_string league in
  let rs = Pipeline.run db "guard" in
  check bool "has results" true (rs <> []);
  check bool "none degraded" true
    (List.for_all (fun r -> not r.Pipeline.degraded) rs)

let test_snippet_fault_degrades_one_result () =
  let db = Pipeline.of_xml_string league in
  with_faults "pipeline.snippet:once" (fun () ->
      match Pipeline.run ~bound:4 db "guard" with
      | [] -> Alcotest.fail "no results"
      | first :: rest ->
        check bool "first degraded" true first.Pipeline.degraded;
        check bool "rest intact" true
          (List.for_all (fun r -> not r.Pipeline.degraded) rest);
        check int "fault fired once" 1 (Faults.fired "pipeline.snippet"))

let test_search_fault_raises () =
  let db = Pipeline.of_xml_string league in
  with_faults "pipeline.search:fail" (fun () ->
      match Pipeline.run db "guard" with
      | _ -> Alcotest.fail "pipeline.search fault did not fire"
      | exception Faults.Injected (point, _) -> check string "point" "pipeline.search" point)

let test_build_fault_raises () =
  with_faults "pipeline.build:fail" (fun () ->
      match Pipeline.of_xml_string league with
      | _ -> Alcotest.fail "pipeline.build fault did not fire"
      | exception Faults.Injected (point, _) -> check string "point" "pipeline.build" point)

let test_corpus_deadline_passthrough () =
  let corpus =
    Corpus.of_list [ "league", Pipeline.of_xml_string league ]
  in
  let hits = Corpus.run ~deadline:(expired_deadline ()) corpus "guard" in
  check bool "has hits" true (hits <> []);
  check bool "all degraded" true
    (List.for_all (fun h -> h.Corpus.snippet.Pipeline.degraded) hits)

let test_corpus_rebuilds_corrupt_artifact () =
  let dir = Filename.temp_file "extract_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let xml = Filename.concat dir "league.xml" in
  let snap = Filename.concat dir "league.snap" in
  let oc = open_out xml in
  output_string oc league;
  close_out oc;
  let db = Pipeline.of_file xml in
  Pipeline.save_snapshot snap db;
  (* flip the header's version byte (after the magic's length byte and
     8 bytes): the magic still sniffs but the load refuses the header *)
  let ic = open_in_bin snap in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let bytes = Bytes.of_string data in
  let pos = 9 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff));
  let corrupt = Bytes.to_string bytes in
  let oc = open_out_bin snap in
  output_string oc corrupt;
  close_out oc;
  let warnings = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove xml;
      Sys.remove snap;
      Unix.rmdir dir)
    (fun () ->
      let rebuilt =
        Corpus.load_file ~on_warning:(fun w -> warnings := w :: !warnings) snap
      in
      check int "one warning" 1 (List.length !warnings);
      check bool "warning names the source" true
        (match !warnings with
        | [ w ] ->
          let contains hay needle =
            let lh = String.length hay and ln = String.length needle in
            let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
            ln = 0 || loop 0
          in
          contains w "league.xml"
        | _ -> false);
      check bool "rebuilt database answers" true (Pipeline.run rebuilt "guard" <> []));
  (* with no sibling XML the corruption is fatal *)
  let lone = Filename.temp_file "extract_lone" ".snap" in
  let oc = open_out_bin lone in
  output_string oc corrupt;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove lone)
    (fun () ->
      match Corpus.load_file lone with
      | _ -> Alcotest.fail "corrupt artifact without a source should raise"
      | exception Extract_store.Codec.Corrupt _ -> ())

let suites =
  [
    ( "snippet.metrics",
      [
        Alcotest.test_case "full snippet = 1.0" `Quick test_metrics_full_snippet_scores_one;
        Alcotest.test_case "empty tokens = 0" `Quick test_metrics_empty_tokens_score_zero;
        Alcotest.test_case "multi-token covers" `Quick test_metrics_covers_multi_token;
        Alcotest.test_case "monotone fixture" `Quick test_metrics_monotone_in_bound;
      ] );
    ( "snippet.feature",
      [
        Alcotest.test_case "counts" `Quick test_feature_counts;
        Alcotest.test_case "stats" `Quick test_feature_stats;
        Alcotest.test_case "dominance rule" `Quick test_feature_dominance_rule;
        Alcotest.test_case "sorted dominant" `Quick test_feature_dominant_sorted;
        Alcotest.test_case "instances" `Quick test_feature_instances;
        Alcotest.test_case "sum identity" `Quick test_feature_sum_identity;
        Alcotest.test_case "root fallback" `Quick test_feature_root_entity_fallback;
      ] );
    ( "snippet.return_entity",
      [
        Alcotest.test_case "name match" `Quick test_return_entity_name_match;
        Alcotest.test_case "attribute match" `Quick test_return_entity_attribute_match;
        Alcotest.test_case "fallback highest" `Quick test_return_entity_fallback_highest;
        Alcotest.test_case "highest" `Quick test_highest_entities;
        Alcotest.test_case "supporting" `Quick test_supporting_entities;
        Alcotest.test_case "token matching" `Quick test_matches_name_tokens;
      ] );
    ( "snippet.result_key",
      [
        Alcotest.test_case "found" `Quick test_result_key_found;
        Alcotest.test_case "return entity priority" `Quick test_result_key_return_entity_priority;
        Alcotest.test_case "absent" `Quick test_result_key_none;
      ] );
    ( "snippet.ilist",
      [
        Alcotest.test_case "order" `Quick test_ilist_order;
        Alcotest.test_case "key present" `Quick test_ilist_key_present;
        Alcotest.test_case "dedup" `Quick test_ilist_dedup;
        Alcotest.test_case "instances in result" `Quick test_ilist_instances_are_result_members;
        Alcotest.test_case "keyword instances" `Quick test_ilist_keyword_instances;
        Alcotest.test_case "uncoverable" `Quick test_ilist_uncoverable_keyword;
        Alcotest.test_case "to_string" `Quick test_ilist_to_string;
      ] );
    ( "snippet.snippet_tree",
      [
        Alcotest.test_case "initial" `Quick test_snippet_initial;
        Alcotest.test_case "cost and add" `Quick test_snippet_cost_and_add;
        Alcotest.test_case "remove/undo" `Quick test_snippet_remove_undo;
        Alcotest.test_case "copy" `Quick test_snippet_copy_independent;
        Alcotest.test_case "non-member" `Quick test_snippet_non_member_rejected;
        Alcotest.test_case "contains_any" `Quick test_snippet_contains_any;
        Alcotest.test_case "values inline" `Quick test_snippet_render_values_inline;
        Alcotest.test_case "xml values" `Quick test_snippet_to_xml_keeps_values;
      ] );
    ( "snippet.selector",
      [
        Alcotest.test_case "respects bound" `Quick test_greedy_respects_bound;
        Alcotest.test_case "zero bound" `Quick test_greedy_zero_bound;
        Alcotest.test_case "covers all" `Quick test_greedy_large_bound_covers_all;
        Alcotest.test_case "rank priority" `Quick test_greedy_rank_priority;
        Alcotest.test_case "skip then continue" `Quick test_greedy_skip_then_continue;
        Alcotest.test_case "shares paths" `Quick test_greedy_shares_paths;
        Alcotest.test_case "coverage metric" `Quick test_greedy_coverage_metric;
        Alcotest.test_case "negative bound" `Quick test_greedy_negative_bound;
        Alcotest.test_case "strict prefix" `Quick test_greedy_strict_prefix_mode;
        Alcotest.test_case "deterministic" `Quick test_greedy_deterministic;
      ] );
    ( "snippet.optimal",
      [
        Alcotest.test_case ">= greedy" `Quick test_optimal_at_least_greedy;
        Alcotest.test_case "respects bound" `Quick test_optimal_respects_bound;
        Alcotest.test_case "beats greedy" `Quick test_optimal_beats_greedy_sometimes;
        Alcotest.test_case "step cap" `Quick test_optimal_step_cap;
        Alcotest.test_case "zero bound" `Quick test_optimal_zero_bound;
      ] );
    ( "snippet.text_baseline",
      [
        Alcotest.test_case "finds keywords" `Quick test_text_baseline_finds_keywords;
        Alcotest.test_case "window size" `Quick test_text_baseline_window_size;
        Alcotest.test_case "maximizes distinct" `Quick test_text_baseline_maximizes_distinct;
        Alcotest.test_case "short text" `Quick test_text_baseline_short_text;
        Alcotest.test_case "window for bound" `Quick test_text_baseline_window_for_bound;
      ] );
    ( "snippet.naive_baseline",
      [
        Alcotest.test_case "respects bound" `Quick test_naive_respects_bound;
        Alcotest.test_case "breadth first" `Quick test_naive_breadth_first;
        Alcotest.test_case "small results" `Quick test_naive_exhausts_small_results;
      ] );
    ( "snippet.pipeline",
      [
        Alcotest.test_case "end to end" `Quick test_pipeline_end_to_end;
        Alcotest.test_case "accessors" `Quick test_pipeline_accessors;
        Alcotest.test_case "external result" `Quick test_pipeline_external_result;
        Alcotest.test_case "no results" `Quick test_pipeline_no_results;
        Alcotest.test_case "limit" `Quick test_pipeline_limit;
      ] );
    ( "snippet.degraded",
      [
        Alcotest.test_case "expired deadline" `Quick test_degraded_on_expired_deadline;
        Alcotest.test_case "naive fallback" `Quick test_degraded_matches_naive_baseline;
        Alcotest.test_case "all run variants" `Quick test_degraded_all_run_variants;
        Alcotest.test_case "no deadline" `Quick test_no_deadline_never_degrades;
        Alcotest.test_case "snippet fault" `Quick test_snippet_fault_degrades_one_result;
        Alcotest.test_case "search fault" `Quick test_search_fault_raises;
        Alcotest.test_case "build fault" `Quick test_build_fault_raises;
        Alcotest.test_case "corpus deadline" `Quick test_corpus_deadline_passthrough;
        Alcotest.test_case "corpus rebuild" `Quick test_corpus_rebuilds_corrupt_artifact;
      ] );
  ]
