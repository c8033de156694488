(* Property-based tests (qcheck, registered through qcheck-alcotest).

   Random XML documents are generated over a small tag/value alphabet so
   keyword matches, repeated siblings (entities) and shared values
   (dominant features) all occur with useful probability. *)

module Xml = Extract_xml.Types
module Printer = Extract_xml.Printer
module Parser = Extract_xml.Parser
module Document = Extract_store.Document
module Dewey = Extract_store.Dewey
module Node_kind = Extract_store.Node_kind
module Dataguide = Extract_store.Dataguide
module Schema_infer = Extract_store.Schema_infer
module Inverted_index = Extract_store.Inverted_index
module Key_miner = Extract_store.Key_miner
module Query = Extract_search.Query
module Slca = Extract_search.Slca
module Elca = Extract_search.Elca
module Lca = Extract_search.Lca
module Result_tree = Extract_search.Result_tree
module Feature = Extract_snippet.Feature
module Ilist = Extract_snippet.Ilist
module Selector = Extract_snippet.Selector
module Optimal = Extract_snippet.Optimal
module Snippet_tree = Extract_snippet.Snippet_tree
module Text_baseline = Extract_snippet.Text_baseline

open QCheck

let tags = [| "a"; "b"; "c"; "d"; "item" |]
let words = [| "x"; "y"; "z"; "texas"; "houston"; "suit" |]

(* ------------------------------------------------------------------ *)
(* Random XML trees *)

let gen_tree : Xml.t Gen.t =
  let open Gen in
  let tag = oneofa tags in
  let word = oneofa words in
  sized_size (int_range 1 40) @@ fix (fun self n ->
      if n <= 1 then
        oneof
          [
            map2 (fun t w -> Xml.leaf t w) tag word;
            map (fun t -> Xml.element t []) tag;
          ]
      else
        let* t = tag in
        let* width = int_range 1 (min 4 n) in
        let* children = list_repeat width (self (max 1 ((n - 1) / width))) in
        return (Xml.element t children))

let arb_tree = make ~print:(fun t -> Printer.to_string ~indent:None t) gen_tree

let arb_doc =
  make
    ~print:(fun t -> Printer.to_string ~indent:None t)
    (Gen.map (fun t ->
         match t with
         | Xml.Element _ -> t
         | Xml.Text _ -> Xml.element "root" [ t ])
       gen_tree)

let doc_of tree = Document.of_xml tree

let keywords_gen = Gen.(list_size (int_range 1 3) (oneofa (Array.append tags words)))

let arb_doc_and_keywords =
  make
    ~print:(fun (t, kws) ->
      Printer.to_string ~indent:None t ^ " / " ^ String.concat "," kws)
    Gen.(pair (map (fun t ->
         match t with
         | Xml.Element _ -> t
         | Xml.Text _ -> Xml.element "root" [ t ])
       gen_tree) keywords_gen)

(* ------------------------------------------------------------------ *)
(* XML round trip *)

let prop_print_parse_id =
  Test.make ~name:"printer/parser round trip (compact)" ~count:300 arb_tree (fun t ->
      let printed = Printer.to_string ~indent:None t in
      t = Tree_fold.parse_root printed)

let prop_print_parse_pretty =
  Test.make ~name:"printer/parser round trip (pretty)" ~count:300 arb_tree (fun t ->
      let printed = Printer.to_string ~indent:(Some 2) t in
      t = Tree_fold.parse_root printed)

(* ------------------------------------------------------------------ *)
(* Arena invariants *)

let prop_arena_invariants =
  Test.make ~name:"document arena invariants" ~count:300 arb_doc (fun t ->
      let d = doc_of t in
      let n = Document.node_count d in
      let ok = ref true in
      for node = 0 to n - 1 do
        (* parent is before child, depth is parent's + 1 *)
        (match Document.parent d node with
        | Some p ->
          if p >= node then ok := false;
          if Document.depth d node <> Document.depth d p + 1 then ok := false;
          (* child interval inside parent interval *)
          if Document.subtree_last d node > Document.subtree_last d p then ok := false
        | None -> if node <> 0 then ok := false);
        (* size = 1 + sum of child sizes *)
        let child_sum = ref 0 in
        Document.iter_children d node (fun c -> child_sum := !child_sum + Document.subtree_size d c);
        if Document.subtree_size d node <> 1 + !child_sum then ok := false
      done;
      !ok)

let prop_dewey_lca_agrees =
  Test.make ~name:"dewey lca = parent-walk lca" ~count:150 arb_doc (fun t ->
      let d = doc_of t in
      let dw = Dewey.of_document d in
      let n = Document.node_count d in
      let ok = ref true in
      for a = 0 to min (n - 1) 25 do
        for b = 0 to min (n - 1) 25 do
          if Dewey.lca dw a b <> Document.lca d a b then ok := false
        done
      done;
      !ok)

(* Schema inference finds starred paths in one pre-order pass; the
   reference counts every element's children per path. *)
let prop_starred_matches_child_counts =
  Test.make ~name:"is_starred = some parent has two children on the path" ~count:300 arb_doc
    (fun t ->
      let d = doc_of t in
      let guide = Dataguide.build d in
      let schema = Schema_infer.infer guide in
      let reference = Array.make (Dataguide.path_count guide) false in
      for node = 0 to Document.node_count d - 1 do
        if Document.is_element d node then begin
          let per_path = Hashtbl.create 8 in
          Document.iter_children d node (fun c ->
              if Document.is_element d c then begin
                let p = Dataguide.path_of_node guide c in
                let count = 1 + Option.value ~default:0 (Hashtbl.find_opt per_path p) in
                Hashtbl.replace per_path p count;
                if count >= 2 then reference.(p) <- true
              end)
        end
      done;
      List.for_all
        (fun p -> Schema_infer.is_starred schema p = reference.(p))
        (Dataguide.paths guide))

(* ------------------------------------------------------------------ *)
(* Search semantics *)

let lists_of d kws =
  let idx = Inverted_index.build d in
  List.map (Inverted_index.lookup idx) kws

let prop_slca_matches_reference =
  Test.make ~name:"slca merge = exhaustive reference" ~count:400 arb_doc_and_keywords
    (fun (t, kws) ->
      let d = doc_of t in
      let lists = lists_of d kws in
      Slca.compute d lists = Lca.slca_reference d lists)

let prop_slca_minimal =
  Test.make ~name:"slcas are minimal covering nodes" ~count:200 arb_doc_and_keywords
    (fun (t, kws) ->
      let d = doc_of t in
      let lists = lists_of d kws in
      let slcas = Slca.compute d lists in
      let covering = Lca.covering_nodes d lists in
      List.for_all
        (fun s ->
          List.mem s covering
          && not
               (List.exists
                  (fun c -> c <> s && Document.is_ancestor_or_self d ~anc:s ~desc:c)
                  covering))
        slcas)

let prop_elca_superset_of_slca =
  Test.make ~name:"every slca is an elca" ~count:200 arb_doc_and_keywords
    (fun (t, kws) ->
      let d = doc_of t in
      let lists = lists_of d kws in
      let slcas = Slca.compute d lists in
      let elcas = Elca.compute d lists in
      List.for_all (fun s -> List.mem s elcas) slcas)

let prop_elca_covers =
  Test.make ~name:"every elca covers all keywords" ~count:200 arb_doc_and_keywords
    (fun (t, kws) ->
      let d = doc_of t in
      let lists = lists_of d kws in
      let elcas = Elca.compute d lists in
      let covering = Lca.covering_nodes d lists in
      List.for_all (fun e -> List.mem e covering) elcas)

(* A result is its root's subtree interval. For every root, its
   restriction of each posting list (against the naive filter), its
   membership, size and element walk, and the closure of its members
   under Document.children must agree with the subtree found by walking
   parents. *)
let prop_restrict_matches_equals_filter =
  Test.make ~name:"interval restrict_matches = naive filter" ~count:200
    arb_doc_and_keywords (fun (t, kws) ->
      let d = doc_of t in
      let idx = Inverted_index.build d in
      let lists = List.map (Inverted_index.lookup idx) kws in
      let nodes = List.init (Document.node_count d) Fun.id in
      List.for_all
        (fun root ->
          let r = Result_tree.full d root in
          let rec under n =
            n = root || match Document.parent d n with Some p -> under p | None -> false
          in
          let subtree = List.filter under nodes in
          let elements = ref [] in
          Result_tree.iter_elements r (fun n -> elements := n :: !elements);
          List.for_all
            (fun arr ->
              Result_tree.restrict_matches r arr = List.filter under (Array.to_list arr))
            lists
          && List.for_all (fun n -> Result_tree.mem r n = under n) nodes
          && Result_tree.size r = List.length subtree
          && List.rev !elements = List.filter (Document.is_element d) subtree
          && List.for_all
               (fun n -> List.for_all (Result_tree.mem r) (Document.children d n))
               subtree)
        nodes)

(* ------------------------------------------------------------------ *)
(* Snippets *)

type instance_ctx = {
  result : Result_tree.t;
  ilist : Ilist.t;
}

let context_of t kws =
  let d = doc_of t in
  let kinds = Node_kind.of_document d in
  let keys = Key_miner.mine kinds in
  let idx = Inverted_index.build d in
  let q = Query.of_keywords kws in
  match Extract_search.Engine.run idx kinds q with
  | [] -> None
  | result :: _ -> Some { result; ilist = Ilist.build kinds keys idx result q }

let arb_snippet_case =
  make
    ~print:(fun ((t, kws), bound) ->
      Printf.sprintf "%s / %s / bound=%d"
        (Printer.to_string ~indent:None t)
        (String.concat "," kws) bound)
    Gen.(pair (pair (map (fun t ->
         match t with
         | Xml.Element _ -> t
         | Xml.Text _ -> Xml.element "root" [ t ])
       gen_tree) keywords_gen) (int_range 0 8))

let prop_greedy_respects_bound =
  Test.make ~name:"greedy snippet within bound" ~count:300 arb_snippet_case
    (fun ((t, kws), bound) ->
      match context_of t kws with
      | None -> true
      | Some { result; ilist } ->
        let sel = Selector.greedy ~bound result ilist in
        Snippet_tree.edge_count sel.Selector.snippet <= bound)

let prop_greedy_snippet_connected =
  Test.make ~name:"greedy snippet is ancestor-closed" ~count:300 arb_snippet_case
    (fun ((t, kws), bound) ->
      match context_of t kws with
      | None -> true
      | Some { result; ilist } ->
        let sel = Selector.greedy ~bound result ilist in
        let snippet = sel.Selector.snippet in
        let doc = Result_tree.document result in
        List.for_all
          (fun n ->
            n = Result_tree.root result
            ||
            match Document.parent doc n with
            | Some p -> Snippet_tree.mem snippet p
            | None -> false)
          (Snippet_tree.nodes snippet))

let prop_greedy_covered_items_present =
  Test.make ~name:"covered instances are in the snippet" ~count:300 arb_snippet_case
    (fun ((t, kws), bound) ->
      match context_of t kws with
      | None -> true
      | Some { result; ilist } ->
        let sel = Selector.greedy ~bound result ilist in
        List.for_all
          (fun (c : Selector.covered) -> Snippet_tree.mem sel.Selector.snippet c.Selector.instance)
          sel.Selector.covered)

let prop_greedy_accounting =
  Test.make ~name:"covered+skipped+uncoverable = ilist" ~count:300 arb_snippet_case
    (fun ((t, kws), bound) ->
      match context_of t kws with
      | None -> true
      | Some { result; ilist } ->
        let sel = Selector.greedy ~bound result ilist in
        List.length sel.Selector.covered
        + List.length sel.Selector.skipped
        + List.length sel.Selector.uncoverable
        = Ilist.length ilist)

let prop_optimal_at_least_greedy =
  Test.make ~name:"optimal >= greedy" ~count:120 arb_snippet_case
    (fun ((t, kws), bound) ->
      match context_of t kws with
      | None -> true
      | Some { result; ilist } ->
        (* keep the search small: skip huge instance sets *)
        let total_instances =
          List.fold_left
            (fun acc (e : Ilist.entry) -> acc + Array.length e.Ilist.instances)
            0 (Ilist.entries ilist)
        in
        if total_instances > 24 || Ilist.length ilist > 8 then true
        else begin
          let greedy = Selector.greedy ~bound result ilist in
          let opt = Optimal.solve ~bound result ilist in
          (not opt.Optimal.exact)
          || Selector.covered_count opt.Optimal.selection >= Selector.covered_count greedy
        end)

let prop_optimal_respects_bound =
  Test.make ~name:"optimal within bound" ~count:120 arb_snippet_case
    (fun ((t, kws), bound) ->
      match context_of t kws with
      | None -> true
      | Some { result; ilist } ->
        let total_instances =
          List.fold_left
            (fun acc (e : Ilist.entry) -> acc + Array.length e.Ilist.instances)
            0 (Ilist.entries ilist)
        in
        if total_instances > 24 || Ilist.length ilist > 8 then true
        else begin
          let opt = Optimal.solve ~bound result ilist in
          Snippet_tree.edge_count opt.Optimal.selection.Selector.snippet <= bound
        end)

(* ------------------------------------------------------------------ *)
(* Feature identities *)

let prop_feature_identities =
  Test.make ~name:"feature stats identities" ~count:200 arb_doc_and_keywords
    (fun (t, _) ->
      let d = doc_of t in
      let kinds = Node_kind.of_document d in
      let result = Result_tree.full d (Document.root d) in
      let a = Feature.analyze kinds result in
      (* per type: sum of value occurrences = type total, and sum of scores
         = domain size (mean DS = 1) *)
      let sums = Hashtbl.create 8 in
      List.iter
        (fun ((f : Feature.t), (s : Feature.stats)) ->
          let key = f.Feature.entity, f.Feature.attribute in
          let occ, score, total, dom =
            Option.value
              ~default:(0, 0.0, s.Feature.type_total, s.Feature.domain_size)
              (Hashtbl.find_opt sums key)
          in
          Hashtbl.replace sums key
            (occ + s.Feature.occurrences, score +. s.Feature.score, total, dom))
        (Feature.all a);
      Hashtbl.fold
        (fun _ (occ, score, total, dom) acc ->
          acc && occ = total && abs_float (score -. float_of_int dom) < 1e-6)
        sums true)

(* ------------------------------------------------------------------ *)
(* Text baseline *)

let prop_text_baseline_window =
  Test.make ~name:"text window bounded, hits <= query size" ~count:200
    arb_doc_and_keywords (fun (t, kws) ->
      let d = doc_of t in
      let result = Result_tree.full d (Document.root d) in
      let q = Query.of_keywords kws in
      let s = Text_baseline.generate ~window_tokens:5 result q in
      List.length s.Text_baseline.window <= 5
      && s.Text_baseline.keyword_hits <= Query.size q)

let prop_text_baseline_optimal_window =
  Test.make ~name:"no window beats the chosen one" ~count:100 arb_doc_and_keywords
    (fun (t, kws) ->
      let d = doc_of t in
      let result = Result_tree.full d (Document.root d) in
      let q = Query.of_keywords kws in
      let w = 4 in
      let s = Text_baseline.generate ~window_tokens:w result q in
      let tokens =
        Array.of_list (Extract_store.Tokenizer.tokens (Result_tree.text_of result))
      in
      let n = Array.length tokens in
      let best = ref 0 in
      for start = 0 to max 0 (n - 1) do
        let stop = min (n - 1) (start + w - 1) in
        let distinct =
          Query.keywords q
          |> List.filter (fun k ->
                 let rec found i = i <= stop && (tokens.(i) = k || found (i + 1)) in
                 found start)
          |> List.length
        in
        if distinct > !best then best := distinct
      done;
      s.Text_baseline.keyword_hits >= !best)

(* ------------------------------------------------------------------ *)
(* Parsers *)

(* The shipped builder either returns an arena or raises Parse_error —
   never any other exception, never a crash. *)
let builds_or_rejects s =
  match Document.load_string s with
  | _ -> true
  | exception Extract_xml.Error.Parse_error _ -> true

let prop_parser_total_on_garbage =
  Test.make ~name:"parser total on random bytes" ~count:500
    (string_gen_of_size (Gen.int_range 0 60) (Gen.char_range '\x00' '\xff'))
    builds_or_rejects

let prop_parser_total_on_markupish_garbage =
  (* same, over strings biased toward markup characters *)
  Test.make ~name:"parser total on markup-ish bytes" ~count:500
    (string_gen_of_size (Gen.int_range 0 60)
       (Gen.oneofa [| '<'; '>'; '/'; '&'; ';'; '"'; 'a'; 'b'; ' '; '='; '!'; '-'; '['; ']' |]))
    builds_or_rejects

let same_arena a b = Document.Internal.to_repr a = Document.Internal.to_repr b

let prop_streaming_arena_equals_tree =
  Test.make ~name:"streaming arena = tree arena" ~count:200 arb_tree (fun t ->
      match t with
      | Xml.Text _ -> true
      | Xml.Element root ->
        let src = Printer.to_string ~indent:None t in
        same_arena (Document.load_string src) (Document.of_document { Xml.dtd = None; root }))

let prop_sax_element_count =
  Test.make ~name:"sax count = tree count" ~count:200 arb_tree (fun t ->
      let src = Printer.to_string ~indent:None t in
      let starts, _ =
        Parser.fold_document src ~init:0 ~f:(fun n ev ->
            match ev with
            | Parser.Start_element _ -> n + 1
            | Parser.Text _ | Parser.End_element _ -> n)
      in
      starts = Xml.count_elements t)

(* Well-formed documents with one seeded mutation: a flipped byte, a
   truncation, a duplicated slice or an inserted markup token. The
   builder must reject them with Parse_error or build an arena that
   passes the checker and equals the flattening of the tree folded from
   the same bytes. *)
let paper_xml = lazy (Printer.document_to_string (Extract_datagen.Paper_example.document ()))

let gen_mutated =
  let open Gen in
  let* src =
    frequency
      [
        4, map2 (fun t indent -> Printer.to_string ~indent t) gen_tree (oneofl [ None; Some 2 ]);
        1, map (fun () -> Lazy.force paper_xml) unit;
      ]
  in
  let n = String.length src in
  let splice at s = String.sub src 0 at ^ s ^ String.sub src at (n - at) in
  let* at = int_bound n in
  let* op = int_bound 3 in
  match op with
  | 0 ->
    let* mask = int_range 1 255 in
    let i = min at (n - 1) in
    return
      (String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c) src)
  | 1 -> return (String.sub src 0 at)
  | 2 ->
    let* start = int_bound (n - 1) in
    let* len = int_range 1 (min 24 (n - start)) in
    return (splice at (String.sub src start len))
  | _ -> map (splice at) (oneofl [ "<"; "&"; "]]>"; "<!--"; "\"" ])

let prop_mutated_documents =
  Test.make ~name:"mutated XML: clean error or sound arena" ~count:500
    (make ~print:(fun s -> Printf.sprintf "%S" s) gen_mutated)
    (fun src ->
      match Document.load_string src with
      | exception Extract_xml.Error.Parse_error _ -> true
      | d ->
        Extract_check.Check.check_document d = []
        && same_arena d (Document.of_document (Tree_fold.parse_document src)))

(* ------------------------------------------------------------------ *)
(* XSearch interconnection vs brute-force definition *)

let brute_interconnected d a b =
  if a = b then true
  else begin
    let l = Document.lca d a b in
    let path_up n =
      let rec up acc n =
        if n = l then acc
        else
          match Document.parent d n with
          | Some p -> up (if p = l then acc else p :: acc) p
          | None -> acc
      in
      up [] n
    in
    let interior =
      path_up a @ path_up b @ (if l = a || l = b then [] else [ l ])
    in
    let tags = List.map (fun n -> Document.tag_name d n) interior in
    let endpoint_tags =
      List.filter_map
        (fun n -> if Document.is_element d n then Some (Document.tag_name d n) else None)
        [ a; b ]
    in
    let dup =
      List.exists
        (fun t -> List.length (List.filter (String.equal t) tags) > 1)
        tags
    in
    let clash = List.exists (fun t -> List.mem t endpoint_tags) tags in
    not (dup || clash)
  end

let prop_interconnected_matches_brute =
  Test.make ~name:"xsearch interconnection = brute force" ~count:150 arb_doc (fun t ->
      let d = doc_of t in
      let elements =
        List.filter (Document.is_element d) (List.init (Document.node_count d) Fun.id)
      in
      let sample = List.filteri (fun i _ -> i < 12) elements in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Extract_search.Xsearch.interconnected d a b = brute_interconnected d a b)
            sample)
        sample)

(* greedy strict-prefix mode never beats the default *)
let prop_strict_prefix_no_better =
  Test.make ~name:"strict-prefix greedy <= default greedy" ~count:200 arb_snippet_case
    (fun ((t, kws), bound) ->
      match context_of t kws with
      | None -> true
      | Some { result; ilist } ->
        Selector.covered_count (Selector.greedy ~skip_overflow:false ~bound result ilist)
        <= Selector.covered_count (Selector.greedy ~bound result ilist))

(* ------------------------------------------------------------------ *)
(* Persistence *)

(* A snapshot holds the arena and its index: both come back equal. *)
let prop_persist_roundtrip =
  Test.make ~name:"persist decode . encode = id" ~count:200 arb_doc (fun t ->
      let d = doc_of t in
      let db = Extract_snippet.Pipeline.build d in
      let path = Filename.temp_file "extract_prop" ".snap" in
      let d2, idx2 =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Extract_snippet.Pipeline.save_snapshot path db;
            Extract_store.Snapshot.load path)
      in
      let idx = Extract_snippet.Pipeline.index db in
      Document.node_count d = Document.node_count d2
      && Document.to_xml d 0 = Document.to_xml d2 0
      && List.for_all
           (fun tok -> Inverted_index.lookup idx tok = Inverted_index.lookup idx2 tok)
           (Inverted_index.vocabulary idx))

let prop_codec_int_roundtrip =
  Test.make ~name:"codec int roundtrip" ~count:500 (int_range 0 1000000)
    (fun n ->
      let w = Extract_store.Codec.writer () in
      Extract_store.Codec.write_varint w n;
      let r = Extract_store.Codec.reader (Extract_store.Codec.contents w) in
      Extract_store.Codec.read_varint r = n)

(* ------------------------------------------------------------------ *)
(* Path_query vs direct scans *)

let prop_path_descendant_equals_scan =
  Test.make ~name:"//tag = full scan" ~count:150 arb_doc (fun t ->
      let d = doc_of t in
      Array.for_all
        (fun tag ->
          let via_path = Extract_store.Path_query.select_string d ("//" ^ tag) in
          let via_scan =
            List.filter
              (fun n -> Document.is_element d n && Document.tag_name d n = tag)
              (List.init (Document.node_count d) Fun.id)
          in
          via_path = via_scan)
        tags)

let prop_path_child_equals_children =
  Test.make ~name:"/root/tag = children scan" ~count:150 arb_doc (fun t ->
      let d = doc_of t in
      let root_tag = Document.tag_name d 0 in
      Array.for_all
        (fun tag ->
          let via_path =
            Extract_store.Path_query.select_string d (Printf.sprintf "/%s/%s" root_tag tag)
          in
          let via_scan =
            List.filter
              (fun n -> Document.is_element d n && Document.tag_name d n = tag)
              (Document.children d 0)
          in
          via_path = via_scan)
        tags)

(* ------------------------------------------------------------------ *)
(* Generators validate against their DTDs at random scales *)

let prop_retail_validates =
  Test.make ~name:"random-size retail validates" ~count:20 (int_range 1 6)
    (fun k ->
      let cfg =
        {
          Extract_datagen.Retail.default with
          Extract_datagen.Retail.retailers = k;
          stores_per_retailer = k;
          clothes_per_store = k;
          seed = k * 31;
        }
      in
      let doc = Extract_datagen.Retail.generate cfg in
      match doc.Xml.dtd with
      | None -> false
      | Some subset ->
        Validator.is_valid (Extract_xml.Dtd.parse subset) doc.Xml.root)

let to_alcotest = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "properties.xml",
      to_alcotest [ prop_print_parse_id; prop_print_parse_pretty ] );
    ( "properties.store",
      to_alcotest
        [ prop_arena_invariants; prop_dewey_lca_agrees; prop_starred_matches_child_counts ] );
    ( "properties.search",
      to_alcotest
        [
          prop_slca_matches_reference;
          prop_slca_minimal;
          prop_elca_superset_of_slca;
          prop_elca_covers;
          prop_restrict_matches_equals_filter;
        ] );
    ( "properties.snippet",
      to_alcotest
        [
          prop_greedy_respects_bound;
          prop_greedy_snippet_connected;
          prop_greedy_covered_items_present;
          prop_greedy_accounting;
          prop_optimal_at_least_greedy;
          prop_optimal_respects_bound;
          prop_feature_identities;
        ] );
    ( "properties.baselines",
      to_alcotest [ prop_text_baseline_window; prop_text_baseline_optimal_window ] );
    ( "properties.xsearch",
      to_alcotest [ prop_interconnected_matches_brute; prop_strict_prefix_no_better ] );
    ( "properties.parsers",
      to_alcotest
        [
          prop_parser_total_on_garbage;
          prop_parser_total_on_markupish_garbage;
          prop_streaming_arena_equals_tree;
          prop_sax_element_count;
        ]
      @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop_mutated_documents ] );
    ( "properties.persist",
      to_alcotest [ prop_persist_roundtrip; prop_codec_int_roundtrip ] );
    ( "properties.path_query",
      to_alcotest [ prop_path_descendant_equals_scan; prop_path_child_equals_children ] );
    ( "properties.datagen", to_alcotest [ prop_retail_validates ] );
  ]
