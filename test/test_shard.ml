(* Sharded queries: splitting preserves every subtree below the root,
   provenance intervals tile the corpus, a limited answer is the prefix
   of the unlimited one, and a shard directory roundtrips through
   save_dir/load_dir. *)

module Codec = Extract_store.Codec
module Document = Extract_store.Document
module Engine = Extract_search.Engine
module Result_tree = Extract_search.Result_tree
module Faults = Extract_util.Faults
module Pipeline = Extract_snippet.Pipeline
module Shard_set = Extract_snippet.Shard_set

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let retail_doc =
  lazy
    (Document.of_document
       (Extract_datagen.Retail.generate Extract_datagen.Retail.default))

let retail_db = lazy (Pipeline.build (Lazy.force retail_doc))

let sharded = lazy (Shard_set.split ~shards:3 (Lazy.force retail_doc))

let queries = [ "apparel retailer"; "suit"; "store texas"; "retailer"; "nosuchword" ]

(* ------------------------------------------------------------------ *)
(* Splitting *)

let test_provenance_tiles_corpus () =
  let doc = Lazy.force retail_doc in
  let t = Lazy.force sharded in
  let k = Shard_set.shard_count t in
  check bool "at least one shard" true (k >= 1);
  check bool "at most requested" true (k <= 3);
  let expected_first = ref 1 in
  for i = 0 to k - 1 do
    let g0, g1 = Shard_set.provenance t i in
    check int (Printf.sprintf "shard %d contiguous" i) !expected_first g0;
    check bool (Printf.sprintf "shard %d non-empty" i) true (g1 >= g0);
    expected_first := g1 + 1
  done;
  check int "covers every node" (Document.node_count doc) !expected_first

let test_shard_docs_mirror_global () =
  let doc = Lazy.force retail_doc in
  let t = Lazy.force sharded in
  for i = 0 to Shard_set.shard_count t - 1 do
    let g0, g1 = Shard_set.provenance t i in
    let sdoc = Pipeline.document (Shard_set.shard_db t i) in
    check int
      (Printf.sprintf "shard %d node count" i)
      (g1 - g0 + 2) (Document.node_count sdoc);
    check bool "root tag copied" true
      (Document.tag_name sdoc 0 = Document.tag_name doc 0);
    (* every local node mirrors its global counterpart, shifted by the
       shard's provenance *)
    for local = 1 to Document.node_count sdoc - 1 do
      let g = local + g0 - 1 in
      if Document.is_element sdoc local then
        assert (Document.tag_name sdoc local = Document.tag_name doc g)
      else assert (Document.text sdoc local = Document.text doc g);
      assert (Document.depth sdoc local = Document.depth doc g);
      assert (Document.subtree_size sdoc local = Document.subtree_size doc g)
    done
  done

(* ------------------------------------------------------------------ *)
(* Query equivalence (SLCA: purely structural semantics, so shard-local
   answers must equal the unsharded answers rooted below the top-level
   children; spanning results root at the global root and are dropped
   on both sides of the comparison) *)

let global_roots_unsharded q =
  Pipeline.search ~semantics:Engine.Slca (Lazy.force retail_db) q
  |> List.map Extract_search.Result_tree.root
  |> List.filter (fun r -> r <> 0)
  |> List.sort compare

let global_roots_sharded q =
  Shard_set.run ~semantics:Engine.Slca (Lazy.force sharded) q
  |> List.map (fun h -> h.Shard_set.global_root)
  |> List.sort compare

let test_slca_equivalence () =
  List.iter
    (fun q ->
      check bool (q ^ ": sharded = unsharded") true
        (global_roots_sharded q = global_roots_unsharded q))
    queries

let test_hits_translate_roots () =
  let t = Lazy.force sharded in
  let hits = Shard_set.run t "retailer" in
  check bool "some hits" true (hits <> []);
  List.iter
    (fun h ->
      let g0, g1 = Shard_set.provenance t h.Shard_set.shard in
      check bool "root inside shard block" true
        (h.Shard_set.global_root >= g0 && h.Shard_set.global_root <= g1))
    hits

let hit_key h = Shard_set.(h.shard, h.score, h.global_root)

(* Regression: Shard_set.run used to drop its caller's deadline on the
   floor, so /shards/search had no degradation path. An expired deadline
   must degrade the snippets, not raise and not change the hit set. *)
let test_run_deadline_degrades () =
  let t = Lazy.force sharded in
  let roots hits = List.sort compare (List.map (fun h -> h.Shard_set.global_root) hits) in
  let full = Shard_set.run t "retailer" in
  let expired = Extract_util.Deadline.after 0. in
  let hits = Shard_set.run ~deadline:expired t "retailer" in
  check bool "expired deadline still answers" true (hits <> []);
  check bool "hit roots unchanged under degradation" true (roots hits = roots full);
  check bool "snippets degraded rather than dropped" true
    (List.for_all (fun h -> h.Shard_set.result.Pipeline.degraded) hits);
  (* a generous deadline changes nothing *)
  let easy = Shard_set.run ~deadline:(Extract_util.Deadline.after 60.) t "retailer" in
  check bool "generous deadline = no deadline" true
    (List.map hit_key easy = List.map hit_key full)

let test_limit_bounds_merged_answer () =
  let t = Lazy.force sharded in
  let all = Shard_set.run t "retailer" in
  let top = Shard_set.run ~limit:2 t "retailer" in
  check bool "enough hits to truncate" true (List.length all > 2);
  check int "limit respected" 2 (List.length top);
  check bool "limit keeps the best" true
    (List.map hit_key top
    = List.map hit_key (List.filteri (fun i _ -> i < 2) all))

(* An injected search fault reaches the caller of a sharded query; the
   first shard's search is the one that fails. *)
let test_search_fault_surfaces () =
  let t = Lazy.force sharded in
  (match Faults.configure "pipeline.search:fail" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear (fun () ->
      match Shard_set.run t "retailer" with
      | _ -> Alcotest.fail "the injected search fault did not surface"
      | exception Faults.Injected (point, _) ->
        check Alcotest.string "point" "pipeline.search" point;
        check int "the first shard failed" 1 (Faults.hits "pipeline.search"))

(* A shard's top [limit] can hold the result rooted at its local root,
   which the merge drops. Ranking every shard before the cut keeps the
   limited answer full: the first [limit] hits of the unlimited one.
   Under ELCA the first shard's root is a result (the third and fourth
   shops hold one keyword each) and outranks the sprawling second shop;
   the other shops match nothing. *)
let local_root_doc =
  let items = String.concat "" (List.init 24 (fun _ -> "<item/>")) in
  Printf.sprintf
    "<mall><shop><name>alpha beta</name></shop><shop><name>alpha beta%s</name></shop>\
     <shop>alpha</shop><shop>beta</shop>%s</mall>"
    items
    (String.concat "" (List.init 8 (fun i -> Printf.sprintf "<shop><name>s%d</name>%s</shop>" i items)))

let test_local_root_keeps_limit () =
  let t = Shard_set.split ~shards:2 (Document.load_string local_root_doc) in
  let q = "alpha beta" and limit = 2 in
  let top =
    Pipeline.run_ranked ~semantics:Engine.Elca ~limit (Shard_set.shard_db t 0) q
    |> List.map (fun (_, r) -> Result_tree.root r.Pipeline.result)
  in
  check bool "the first shard's top holds its root" true (List.mem 0 top);
  let all = Shard_set.run ~semantics:Engine.Elca t q in
  let limited = Shard_set.run ~semantics:Engine.Elca ~limit t q in
  check int "limit hits" limit (List.length limited);
  check bool "the prefix of the unlimited answer" true
    (List.map hit_key limited = List.map hit_key (List.filteri (fun i _ -> i < limit) all))

let exact = Alcotest.float 0.

(* ------------------------------------------------------------------ *)
(* The merge itself *)

let test_merge_scored_orders_and_tags () =
  let merged =
    Engine.merge_scored
      [| [ (5.0, "a0"); (1.0, "a1") ]; [ (5.0, "b0"); (2.0, "b1") ]; [] |]
  in
  check bool "ranked, ties to lower source" true
    (merged
    = [ (5.0, (0, "a0")); (5.0, (1, "b0")); (2.0, (1, "b1")); (1.0, (0, "a1")) ])

let test_merge_scored_limit () =
  let merged =
    Engine.merge_scored ~limit:2 [| [ (3.0, 'x') ]; [ (4.0, 'y'); (1.0, 'z') ] |]
  in
  check bool "limited" true (merged = [ (4.0, (1, 'y')); (3.0, (0, 'x')) ])

(* ------------------------------------------------------------------ *)
(* Persistence *)

let tmp_dir name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_save_load_roundtrip () =
  let t = Lazy.force sharded in
  let dir = tmp_dir "extract_test_shards" in
  Shard_set.save_dir dir t;
  check bool "is_shard_dir" true (Shard_set.is_shard_dir dir);
  check bool "plain file is not a shard dir" false
    (Shard_set.is_shard_dir (Filename.concat dir "shards.manifest"));
  let t2 = Shard_set.load_dir dir in
  check int "shard count" (Shard_set.shard_count t) (Shard_set.shard_count t2);
  for i = 0 to Shard_set.shard_count t - 1 do
    check bool
      (Printf.sprintf "provenance %d" i)
      true
      (Shard_set.provenance t i = Shard_set.provenance t2 i)
  done;
  List.iter
    (fun q ->
      let roots t =
        Shard_set.run ~semantics:Engine.Slca t q
        |> List.map (fun h -> h.Shard_set.shard, h.Shard_set.global_root)
      in
      check bool (q ^ ": loaded answers match") true (roots t = roots t2);
      (* the loaded shards are packed snapshots: ranked hits, scores
         included, must still equal the in-memory split's *)
      List.iter
        (fun limit ->
          let keys t = List.map hit_key (Shard_set.run ?limit t q) in
          check
            Alcotest.(list (triple int exact int))
            (q ^ ": loaded ranked hits match") (keys t) (keys t2))
        [ None; Some 3 ])
    queries

let test_empty_manifest_diagnostic () =
  let dir = tmp_dir "extract_test_shards_empty" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir "shards.manifest" in
  Out_channel.with_open_bin path (fun _ -> ());
  match Shard_set.load_dir dir with
  | _ -> Alcotest.fail "empty manifest should not load"
  | exception Codec.Truncated msg ->
    let has needle hay =
      let n = String.length needle and h = String.length hay in
      let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
      scan 0
    in
    check bool "names the path" true (has path msg);
    check bool "names the magic" true (has "XTRSHRDS" msg)

let test_corrupt_manifest_detected () =
  let t = Lazy.force sharded in
  let dir = tmp_dir "extract_test_shards_corrupt" in
  Shard_set.save_dir dir t;
  let path = Filename.concat dir "shards.manifest" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let flipped = Bytes.of_string data in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xFF));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc flipped);
  (match Shard_set.load_dir dir with
  | _ -> Alcotest.fail "corrupt manifest should not load"
  | exception Codec.Corrupt _ -> ()
  | exception Codec.Truncated _ -> ());
  (* restore for any later run sharing the temp dir *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "shard.split",
      [
        case "provenance tiles the corpus" test_provenance_tiles_corpus;
        case "shard docs mirror the global doc" test_shard_docs_mirror_global;
      ] );
    ( "shard.query",
      [
        case "slca equivalence" test_slca_equivalence;
        case "hits translate into shard blocks" test_hits_translate_roots;
        case "deadline degrades, never raises" test_run_deadline_degrades;
        case "limit bounds the merged answer" test_limit_bounds_merged_answer;
        case "a search fault surfaces" test_search_fault_surfaces;
        case "a local root keeps the limit" test_local_root_keeps_limit;
      ] );
    ( "shard.merge",
      [
        case "orders and tags sources" test_merge_scored_orders_and_tags;
        case "limit" test_merge_scored_limit;
      ] );
    ( "shard.persist",
      [
        case "save/load roundtrip" test_save_load_roundtrip;
        case "empty manifest diagnostic" test_empty_manifest_diagnostic;
        case "corrupt manifest detected" test_corrupt_manifest_detected;
      ] );
  ]
