module Document = Extract_store.Document
module Dewey = Extract_store.Dewey
module Inverted_index = Extract_store.Inverted_index
module Packed_postings = Extract_store.Packed_postings
module Dataguide = Extract_store.Dataguide
module Tokenizer = Extract_store.Tokenizer
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Selector = Extract_snippet.Selector
module Snippet_tree = Extract_snippet.Snippet_tree
module Ilist = Extract_snippet.Ilist

type issue = {
  area : string;
  what : string;
}

exception Violation of issue list

let issue_to_string i = Printf.sprintf "[%s] %s" i.area i.what

let assert_ok = function
  | [] -> ()
  | issues -> raise (Violation issues)

(* Per-checker issue collector, capped so a systematically corrupt
   artifact yields a digest rather than one line per node. *)

let cap = 20

type collector = {
  area : string;
  mutable items : issue list; (* newest first *)
  mutable count : int;
}

let collector area = { area; items = []; count = 0 }

let report c fmt =
  Printf.ksprintf
    (fun what ->
      c.count <- c.count + 1;
      if c.count <= cap then c.items <- { area = c.area; what } :: c.items)
    fmt

let close c =
  let items = List.rev c.items in
  if c.count > cap then
    items
    @ [ { area = c.area; what = Printf.sprintf "... and %d more issue(s)" (c.count - cap) } ]
  else items

(* ------------------------------------------------------------------ *)
(* Document arena + Dewey order                                        *)

let check_arena doc =
  let c = collector "document" in
  let n = Document.node_count doc in
  if n = 0 then report c "empty arena"
  else begin
    if not (Document.is_element doc 0) then report c "root node 0 is not an element";
    (match Document.parent doc 0 with
    | None -> ()
    | Some p -> report c "root node 0 has parent %d" p);
    if Document.depth doc 0 <> 0 then report c "root depth is %d, want 0" (Document.depth doc 0);
    if Document.subtree_size doc 0 <> n then
      report c "root subtree size %d does not cover the %d-node arena"
        (Document.subtree_size doc 0) n
  end;
  for node = 0 to n - 1 do
    let size = Document.subtree_size doc node in
    if size < 1 then report c "node %d has subtree size %d < 1" node size
    else if node + size > n then
      report c "node %d subtree interval [%d,%d) overruns the arena (%d nodes)" node node
        (node + size) n;
    if node > 0 then begin
      match Document.parent doc node with
      | None -> report c "non-root node %d has no parent" node
      | Some p ->
        if p < 0 || p >= node then report c "node %d has parent %d, want a smaller id" node p
        else begin
          if Document.depth doc node <> Document.depth doc p + 1 then
            report c "node %d depth %d disagrees with parent %d depth %d" node
              (Document.depth doc node) p (Document.depth doc p);
          if node + size - 1 > Document.subtree_last doc p then
            report c "node %d subtree [%d,%d] escapes parent %d subtree [%d,%d]" node node
              (node + size - 1) p p (Document.subtree_last doc p)
        end
    end;
    if not (Document.is_element doc node) && size <> 1 then
      report c "text node %d has subtree size %d, want 1 (texts are leaves)" node size
  done;
  (* Children partition the parent's interval, in order. *)
  for node = 0 to n - 1 do
    if Document.is_element doc node then begin
      let expected = ref (node + 1) in
      List.iter
        (fun child ->
          if child <> !expected then
            report c "node %d: child %d starts at an unexpected id (want %d)" node child
              !expected
          else expected := child + Document.subtree_size doc child)
        (Document.children doc node);
      if !expected <> node + Document.subtree_size doc node then
        report c "node %d: children cover [%d,%d), subtree interval is [%d,%d)" node (node + 1)
          !expected node
          (node + Document.subtree_size doc node)
    end
  done;
  close c

let check_dewey doc =
  let c = collector "dewey" in
  let d = Dewey.of_document doc in
  let n = Document.node_count doc in
  for node = 0 to n - 1 do
    let len = Array.length (Dewey.label d node) in
    if len <> Document.depth doc node then
      report c "node %d label has %d components, depth is %d" node len
        (Document.depth doc node)
  done;
  for node = 0 to n - 2 do
    if Dewey.compare_nodes d node (node + 1) >= 0 then
      report c "labels of consecutive nodes %d and %d are not strictly increasing" node
        (node + 1);
    let via_labels = Dewey.lca d node (node + 1) in
    let via_parents = Document.lca doc node (node + 1) in
    if via_labels <> via_parents then
      report c "label LCA of %d and %d is %d, parent-walk LCA is %d" node (node + 1) via_labels
        via_parents
  done;
  close c

let check_document doc =
  match check_arena doc with
  (* Dewey construction walks the arena's intervals; only attempt it on a
     structurally sound arena (a corrupt size array could loop). *)
  | [] -> check_dewey doc
  | issues -> issues

(* ------------------------------------------------------------------ *)
(* Inverted index                                                      *)

let check_index idx =
  let c = collector "index" in
  let doc = Inverted_index.document idx in
  let n = Document.node_count doc in
  let tokens = Inverted_index.Internal.token_names idx in
  let postings =
    Array.map Packed_postings.to_array (Inverted_index.Internal.packed_lists idx)
  in
  for i = 0 to Array.length tokens - 1 do
    let token = tokens.(i) in
    if token = "" then report c "token %d is empty" i;
    if Tokenizer.normalize token <> token then report c "token %S is not normalized" token;
    let arr = postings.(i) in
    if Array.length arr = 0 then report c "token %S has an empty posting list" token;
    Array.iteri
      (fun j node ->
        if j > 0 && node <= arr.(j - 1) then
          report c "postings of %S not strictly ascending at offset %d (%d after %d)" token j
            node
            arr.(j - 1);
        if node < 0 || node >= n then
          report c "posting %d of %S outside the arena [0,%d)" node token n
        else if not (Document.is_element doc node) then
          report c "posting %d of %S is a text node" node token
        else if Inverted_index.match_kind idx ~keyword:token ~node = None then
          report c "posting %d of %S does not match the token (tag or direct text)" node token)
      arr
  done;
  (* Postings <-> document agreement in both directions: rebuild from the
     document and diff token by token. *)
  if c.count = 0 then begin
    let fresh = Inverted_index.build doc in
    let fresh_tokens = Inverted_index.Internal.token_names fresh in
    let have = Hashtbl.create (Array.length tokens) in
    Array.iter (fun t -> Hashtbl.replace have t ()) tokens;
    Array.iter
      (fun t ->
        if not (Hashtbl.mem have t) then
          report c "document token %S is missing from the index" t)
      fresh_tokens;
    Array.iteri
      (fun i token ->
        let want = Inverted_index.lookup fresh token in
        let got = postings.(i) in
        if want <> got then
          report c "postings of %S disagree with the document (%d stored, %d expected)" token
            (Array.length got) (Array.length want))
      tokens
  end;
  close c

(* ------------------------------------------------------------------ *)
(* Dataguide                                                           *)

let check_dataguide guide =
  let c = collector "dataguide" in
  let doc = Dataguide.document guide in
  let paths = Dataguide.paths guide in
  if List.length paths <> Dataguide.path_count guide then
    report c "paths list has %d entries, path_count is %d" (List.length paths)
      (Dataguide.path_count guide);
  let total = List.fold_left (fun acc p -> acc + Dataguide.instance_count guide p) 0 paths in
  if total <> Document.element_count doc then
    report c "instance counts sum to %d, document has %d elements" total
      (Document.element_count doc);
  for node = 0 to Document.node_count doc - 1 do
    if Document.is_element doc node then begin
      let p = Dataguide.path_of_node guide node in
      if Dataguide.path_tag guide p <> Document.tag_id doc node then
        report c "node %d tag %S disagrees with its path tag %S" node
          (Document.tag_name doc node)
          (Dataguide.path_tag_name guide p);
      if Dataguide.path_depth guide p <> Document.depth doc node then
        report c "node %d depth %d disagrees with path depth %d" node
          (Document.depth doc node)
          (Dataguide.path_depth guide p);
      match Document.parent doc node with
      | None ->
        if Dataguide.parent_path guide p <> None then
          report c "root node %d has a path with a parent path" node
      | Some parent ->
        let want = Some (Dataguide.path_of_node guide parent) in
        if Dataguide.parent_path guide p <> want then
          report c "node %d: parent path disagrees with the parent node's path" node
    end
  done;
  List.iter
    (fun p ->
      let s = Dataguide.path_string guide p in
      let segments = List.filter (fun x -> x <> "") (String.split_on_char '/' s) in
      match Dataguide.find_path guide segments with
      | Some q when q = p -> ()
      | Some q -> report c "path %S resolves to a different path id (%d, not %d)" s q p
      | None -> report c "path %S does not resolve via find_path" s)
    paths;
  close c

(* ------------------------------------------------------------------ *)
(* Result trees and snippets                                           *)

let check_result r =
  let c = collector "result" in
  let doc = Result_tree.document r in
  let root = Result_tree.root r in
  let members = Result_tree.members r in
  if Array.length members = 0 then report c "result has no members"
  else begin
    if members.(0) <> root then
      report c "first member %d is not the root %d" members.(0) root;
    let last = Document.subtree_last doc root in
    Array.iteri
      (fun i m ->
        if i > 0 && m <= members.(i - 1) then
          report c "members not strictly ascending at offset %d" i;
        if m < root || m > last then
          report c "member %d outside the root's subtree [%d,%d]" m root last;
        if m <> root then begin
          match Document.parent doc m with
          | Some p when Result_tree.mem r p -> ()
          | Some p -> report c "member %d's parent %d is not a member (not ancestor-closed)" m p
          | None -> report c "member %d has no parent yet is not the root" m
        end)
      members
  end;
  close c

let check_selection ?(degraded = false) (sel : Selector.selection) =
  let c = collector "snippet" in
  let snippet = sel.Selector.snippet in
  let result = Snippet_tree.result snippet in
  let doc = Result_tree.document result in
  let root = Result_tree.root result in
  if sel.Selector.bound < 0 then report c "negative bound %d" sel.Selector.bound;
  if not (Snippet_tree.mem snippet root) then
    report c "snippet does not contain the result root %d" root;
  let nodes = Snippet_tree.nodes snippet in
  List.iter
    (fun node ->
      if not (Result_tree.mem result node) then
        report c "snippet node %d is not a member of the result" node
      else if not (Document.is_element doc node) then
        report c "snippet node %d is not an element" node;
      if node <> root then begin
        match Document.parent doc node with
        | Some p when Snippet_tree.mem snippet p -> ()
        | Some p -> report c "snippet node %d is disconnected (parent %d absent)" node p
        | None -> report c "snippet node %d has no parent yet is not the root" node
      end)
    nodes;
  let edges = Snippet_tree.edge_count snippet in
  if edges <> Snippet_tree.element_count snippet - 1 then
    report c "edge count %d disagrees with element count %d" edges
      (Snippet_tree.element_count snippet);
  if edges > sel.Selector.bound then
    report c "snippet has %d edges, over the bound of %d" edges sel.Selector.bound;
  (* a degraded (deadline-expired) selection is a baseline snippet with no
     coverage accounting: its edges are bought by no covered item, so the
     cost-sum identity deliberately does not apply *)
  if not degraded then begin
    let cost_sum =
      List.fold_left (fun acc (cv : Selector.covered) -> acc + cv.Selector.cost) 0
        sel.Selector.covered
    in
    if cost_sum <> edges then
      report c "covered item costs sum to %d, snippet has %d edges" cost_sum edges
  end;
  List.iter
    (fun (cv : Selector.covered) ->
      if cv.Selector.cost < 0 then report c "covered item has negative cost %d" cv.Selector.cost;
      if not (Snippet_tree.mem snippet cv.Selector.instance) then
        report c "covered item instance %d is missing from the snippet" cv.Selector.instance)
    sel.Selector.covered;
  List.iter
    (fun (e : Ilist.entry) ->
      if Array.length e.Ilist.instances = 0 then
        report c "skipped item %S has no instances (belongs in uncoverable)"
          (Ilist.display e.Ilist.item))
    sel.Selector.skipped;
  List.iter
    (fun (e : Ilist.entry) ->
      if Array.length e.Ilist.instances > 0 then
        report c "uncoverable item %S has %d instance(s)" (Ilist.display e.Ilist.item)
          (Array.length e.Ilist.instances))
    sel.Selector.uncoverable;
  close c

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

module Codec = Extract_store.Codec
module Snapshot = Extract_store.Snapshot
module Node_kind = Extract_store.Node_kind
module Schema_infer = Extract_store.Schema_infer
module Key_miner = Extract_store.Key_miner

let check_analysis ~derived stored =
  let c = collector "analysis" in
  let dkinds = Key_miner.kinds derived and skinds = Key_miner.kinds stored in
  let dguide = Node_kind.dataguide dkinds and sguide = Node_kind.dataguide skinds in
  let dschema = Node_kind.schema dkinds and sschema = Node_kind.schema skinds in
  let dcol = Dataguide.path_column dguide and scol = Dataguide.path_column sguide in
  let nodes = Bigarray.Array1.dim dcol in
  if Bigarray.Array1.dim scol <> nodes then
    report c "path column has %d entries stored, %d derived" (Bigarray.Array1.dim scol) nodes
  else
    for node = 0 to nodes - 1 do
      if scol.{node} <> dcol.{node} then
        report c "node %d: path %d stored, %d derived" node scol.{node} dcol.{node}
    done;
  let n = Dataguide.path_count dguide in
  if Dataguide.path_count sguide <> n then
    report c "%d paths stored, %d derived" (Dataguide.path_count sguide) n
  else begin
    let opt = function None -> "none" | Some p -> string_of_int p in
    let source s p = match Schema_infer.source s p with `Dtd -> "dtd" | `Data -> "data" in
    (* %h: equal strings mean bit-equal statistics *)
    let candidates keys p =
      String.concat ", "
        (List.map
           (fun (k : Key_miner.candidate) ->
             Printf.sprintf "%d %h %h %b" k.Key_miner.attribute k.Key_miner.coverage
               k.Key_miner.uniqueness k.Key_miner.strict)
           (Key_miner.candidates keys p))
    in
    for p = 0 to n - 1 do
      let field what stored derived =
        if stored <> derived then
          report c "path %d (%s): %s %s stored, %s derived" p (Dataguide.path_string dguide p)
            what stored derived
      in
      field "parent" (opt (Dataguide.parent_path sguide p)) (opt (Dataguide.parent_path dguide p));
      field "tag" (string_of_int (Dataguide.path_tag sguide p))
        (string_of_int (Dataguide.path_tag dguide p));
      field "depth" (string_of_int (Dataguide.path_depth sguide p))
        (string_of_int (Dataguide.path_depth dguide p));
      field "instance count" (string_of_int (Dataguide.instance_count sguide p))
        (string_of_int (Dataguide.instance_count dguide p));
      field "kind" (Node_kind.string_of_kind (Node_kind.kind_of_path skinds p))
        (Node_kind.string_of_kind (Node_kind.kind_of_path dkinds p));
      field "starred" (string_of_bool (Schema_infer.is_starred sschema p))
        (string_of_bool (Schema_infer.is_starred dschema p));
      field "star source" (source sschema p) (source dschema p);
      field "key candidates" ("[" ^ candidates stored p ^ "]") ("[" ^ candidates derived p ^ "]");
      field "key" (opt (Key_miner.key_path stored p)) (opt (Key_miner.key_path derived p));
      field "strict key" (opt (Key_miner.strict_key_path stored p))
        (opt (Key_miner.strict_key_path derived p))
    done
  end;
  close c

(* The deep pass {!Snapshot.load_analyzed} deliberately skips: spend
   every recorded section digest and the fingerprint they make, run the
   structural document/index checks over the mapped database, then
   derive the analysis from the mapped arena and compare it with the
   stored one. *)
let check_snapshot path =
  let c = collector "snapshot" in
  match
    ignore (Snapshot.verify path);
    Snapshot.load_analyzed path
  with
  | { Snapshot.keys = stored; index; _ } ->
    let doc = Node_kind.document (Key_miner.kinds stored) in
    let derived = Key_miner.mine (Node_kind.classify (Dataguide.build doc)) in
    close c @ check_document doc @ check_index index @ check_analysis ~derived stored
  | exception Codec.Corrupt msg ->
    report c "snapshot %s: %s" path msg;
    close c
  | exception Codec.Truncated msg ->
    report c "snapshot %s: truncated: %s" path msg;
    close c

(* ------------------------------------------------------------------ *)
(* Live store directories                                              *)

module Journal = Extract_store.Journal
module Live = Extract_store.Live

(* fsck for a live-store directory. Issues are real damage; notes are
   the benign crash leftovers recovery repairs on the next writable open
   (torn journal tail, stale checkpoint, stray temp files). *)
let check_live dir =
  let c = collector "live" in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let newest = match List.rev (Live.generations dir) with [] -> 0 | g :: _ -> g in
  (match Journal.read (Live.journal_path dir) with
  | records, tail ->
    (match tail with
    | Journal.Complete -> ()
    | Journal.Torn { offset; reason } ->
      note "journal: torn tail at byte %d (%s); truncated on next writable open" offset reason);
    (match Journal.last_checkpoint records with
    | Some g when g > newest ->
      report c "journal checkpoint references generation %d but newest snapshot is %d" g
        newest
    | Some g when g < newest ->
      note "journal checkpoint %d predates snapshot generation %d; healed on next writable \
            open"
        g newest
    | Some _ | None -> ())
  | exception Codec.Corrupt msg -> report c "journal: %s" msg
  | exception Codec.Truncated msg -> report c "journal: truncated: %s" msg);
  (* the generation recovery adopts gets a snapshot's deep pass; when it
     is damaged, recovery falls back and this reports why *)
  let generation_issues =
    if newest = 0 then [] else check_snapshot (Live.snapshot_path dir newest)
  in
  let content_issues =
    match Live.open_dir ~read_only:true ~on_warning:(fun w -> note "recovery: %s" w) dir with
    | store ->
      let view = Live.view store in
      List.iter
        (fun name ->
          if not (List.exists (fun (m, _) -> String.equal m name) view.Live.members) then
            report c "tombstone %S names no base member" name)
        view.Live.tombstones;
      let deltas =
        List.concat_map
          (fun (name, (d : Live.delta)) ->
            List.map
              (fun i -> { i with what = Printf.sprintf "delta %S: %s" name i.what } )
              (check_document d.Live.delta_doc @ check_index d.Live.delta_index))
          view.Live.deltas
      in
      Live.close store;
      deltas
    | exception Codec.Corrupt msg ->
      report c "recovery failed: %s" msg;
      []
    | exception Codec.Truncated msg ->
      report c "recovery failed: truncated: %s" msg;
      []
  in
  close c @ generation_issues @ content_issues, List.rev !notes

(* ------------------------------------------------------------------ *)
(* Whole database + query probes                                       *)

let check_db db =
  check_document (Pipeline.document db)
  @ check_index (Pipeline.index db)
  @ check_dataguide (Pipeline.dataguide db)

let check_ilist db (s : Pipeline.snippet_result) =
  let c = collector "snippet" in
  ignore db;
  List.iter
    (fun (e : Ilist.entry) ->
      Array.iter
        (fun inst ->
          if not (Result_tree.mem s.Pipeline.result inst) then
            report c "IList item %S instance %d is not a member of its result"
              (Ilist.display e.Ilist.item) inst)
        e.Ilist.instances)
    (Ilist.entries s.Pipeline.ilist);
  close c

let check_query ?semantics ?(bound = Pipeline.default_bound) db query =
  let results = Pipeline.run ?semantics ~bound db query in
  List.concat_map
    (fun (s : Pipeline.snippet_result) ->
      check_result s.Pipeline.result @ check_ilist db s
      @ check_selection ~degraded:s.Pipeline.degraded s.Pipeline.selection)
    results

let probe_queries db =
  let index = Pipeline.index db in
  let scored =
    List.map (fun t -> t, Inverted_index.keyword_count index t)
      (Inverted_index.vocabulary index)
  in
  let top =
    List.stable_sort
      (fun (ta, ca) (tb, cb) ->
        if ca <> cb then Int.compare cb ca else String.compare ta tb)
      scored
  in
  match top with
  | (a, _) :: (b, _) :: _ -> [ a; b; a ^ " " ^ b ]
  | [ (a, _) ] -> [ a ]
  | [] -> []

let all ?queries db =
  let queries =
    match queries with
    | Some qs -> qs
    | None -> probe_queries db
  in
  check_db db @ List.concat_map (fun q -> check_query db q) queries

(* ------------------------------------------------------------------ *)
(* Pipeline stage assertions                                           *)

let install_pipeline_observer () =
  Pipeline.set_observer
    (Some
       {
         Pipeline.on_built = (fun db -> assert_ok (check_db db));
         Pipeline.on_results =
           (fun _db results -> assert_ok (List.concat_map check_result results));
         Pipeline.on_snippets =
           (fun db snips ->
             assert_ok
               (List.concat_map
                  (fun (s : Pipeline.snippet_result) ->
                    check_ilist db s
                    @ check_selection ~degraded:s.Pipeline.degraded s.Pipeline.selection)
                  snips));
       })

let env_var = "EXTRACT_CHECK"

let install_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" | Some "0" -> ()
  | Some _ -> install_pipeline_observer ()
