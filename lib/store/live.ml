module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry
module Types = Extract_xml.Types

let adds_total = Registry.counter ~help:"Live-store documents added" "extract_live_adds_total"

let removes_total =
  Registry.counter ~help:"Live-store documents removed" "extract_live_removes_total"

let compactions_total =
  Registry.counter ~help:"Live-store compactions" "extract_live_compactions_total"

let recovered_records_total =
  Registry.counter ~help:"Journal records replayed during recovery"
    "extract_live_recovered_records_total"

let generation_gauge =
  Registry.gauge ~help:"Current live-store snapshot generation" "extract_live_generation"

type delta = {
  delta_doc : Document.t;
  delta_index : Inverted_index.t;
}

type view = {
  generation : int;
  doc : Document.t;
  index : Inverted_index.t;
  analysis : Key_miner.t;
  members : (string * Document.node) list;
  tombstones : string list;
  deltas : (string * delta) list;
}

type t = {
  dir : string;
  read_only : bool;
  lock : Mutex.t;
  state : view Atomic.t;
  (* guarded-by: lock *)
  mutable journal : Journal.writer option;
  (* journal records applied since the last checkpoint — the replay cost
     of a crash right now, published as the journal-lag gauge *)
  pending : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)

let journal_name = "journal.wal"

let journal_path dir = Filename.concat dir journal_name

let snapshot_name gen = Printf.sprintf "gen-%08d.snap" gen

let snapshot_path dir gen = Filename.concat dir (snapshot_name gen)

let generation_of_name name =
  match Filename.chop_suffix_opt ~suffix:".snap" name with
  | Some stem when String.length stem > 4 && String.equal (String.sub stem 0 4) "gen-" ->
    int_of_string_opt (String.sub stem 4 (String.length stem - 4))
  | Some _ | None -> None

let generations dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map generation_of_name
  |> List.sort Int.compare

(* ------------------------------------------------------------------ *)
(* Generations                                                         *)

(* The base's analysis, derived once when a base is built; a recovered
   generation adopts the one it stores. *)
let analyze doc = Key_miner.mine (Node_kind.classify (Dataguide.build doc))

(* Member roots are not stored: a member's root is the synthetic root's
   i-th element child. *)
let member_roots doc =
  List.filter (Document.is_element doc) (Document.children doc (Document.root doc))

(* A generation is adopted only after its section digests are spent, so
   a damaged one falls back like an unreadable one. *)
let load_generation dir gen =
  if Faults.should_fail "snapshot.read" then
    raise (Codec.Corrupt "injected fault: snapshot.read");
  let path = snapshot_path dir gen in
  ignore (Snapshot.verify path);
  let s = Snapshot.load_analyzed path in
  if s.Snapshot.generation <> gen then
    raise
      (Codec.Corrupt
         (Printf.sprintf "snapshot %s claims generation %d" (snapshot_name gen)
            s.Snapshot.generation));
  let doc = Node_kind.document (Key_miner.kinds s.Snapshot.keys) in
  let roots = member_roots doc in
  if List.compare_lengths roots s.Snapshot.members <> 0 then
    raise
      (Codec.Corrupt
         (Printf.sprintf "snapshot %s names %d member(s) for %d member subtree(s)"
            (snapshot_name gen) (List.length s.Snapshot.members) (List.length roots)));
  {
    generation = gen;
    doc;
    index = s.Snapshot.index;
    analysis = s.Snapshot.keys;
    members = List.combine s.Snapshot.members roots;
    tombstones = [];
    deltas = [];
  }

(* Fresh stores start from an empty synthetic corpus root; members are
   the root's child subtrees, so an empty corpus is just a childless
   root element. *)
let empty_view () =
  let doc = Document.of_xml (Types.element "corpus" []) in
  {
    generation = 0;
    doc;
    index = Inverted_index.build doc;
    analysis = analyze doc;
    members = [];
    tombstones = [];
    deltas = [];
  }

(* ------------------------------------------------------------------ *)
(* View algebra                                                        *)

let is_tombstoned view name = List.exists (String.equal name) view.tombstones

let in_base view name = List.exists (fun (n, _) -> String.equal n name) view.members

let base_visible view name = in_base view name && not (is_tombstoned view name)

let tombstone view name =
  if base_visible view name then { view with tombstones = name :: view.tombstones } else view

let member_names view =
  let base =
    view.members
    |> List.filter (fun (n, _) -> not (is_tombstoned view n))
    |> List.map (fun (n, _) -> n)
  in
  base @ List.map (fun (n, _) -> n) view.deltas

let mem view name =
  base_visible view name || List.exists (fun (n, _) -> String.equal n name) view.deltas

let apply_add view ~name ~doc ~index =
  let view = tombstone view name in
  let deltas =
    List.filter (fun (n, _) -> not (String.equal n name)) view.deltas
    @ [ (name, { delta_doc = doc; delta_index = index }) ]
  in
  { view with deltas }

let apply_remove view name =
  let view = tombstone view name in
  { view with deltas = List.filter (fun (n, _) -> not (String.equal n name)) view.deltas }

let apply_record view = function
  | Journal.Add_doc { name; xml } ->
    let doc = Document.load_string xml in
    apply_add view ~name ~doc ~index:(Inverted_index.build doc)
  | Journal.Remove_doc name -> apply_remove view name
  | Journal.Checkpoint _ -> view

let mask view =
  view.members
  |> List.filter (fun (name, _) -> not (is_tombstoned view name))
  |> List.map (fun (_, root) -> (root, Document.subtree_last view.doc root))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let prune_strays ~on_warning dir =
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then begin
        on_warning (Printf.sprintf "removing stray temp file %s" name);
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ()
      end)
    (Sys.readdir dir)

let load_base ~on_warning dir =
  let rec try_generations = function
    | [] -> None
    | gen :: older -> (
      match load_generation dir gen with
      | view -> Some view
      | exception (Codec.Corrupt reason | Codec.Truncated reason) ->
        on_warning
          (Printf.sprintf "snapshot %s unreadable (%s)%s" (snapshot_name gen) reason
             (match older with
             | [] -> ""
             | prev :: _ -> Printf.sprintf "; falling back to generation %d" prev));
        if older = [] then
          raise (Codec.Corrupt (Printf.sprintf "no readable snapshot generation: %s" reason))
        else try_generations older)
  in
  try_generations (List.rev (generations dir))

let recover ~read_only ~on_warning dir =
  let jpath = journal_path dir in
  let records, tail = Journal.read jpath in
  (match tail with
  | Journal.Complete -> ()
  | Journal.Torn { offset; reason } ->
    on_warning
      (Printf.sprintf "journal has a torn tail at byte %d (%s)%s" offset reason
         (if read_only then "" else "; truncating"));
    if not read_only then Journal.truncate jpath offset);
  let base = load_base ~on_warning dir in
  let checkpoint = Journal.last_checkpoint records in
  let suffix = Journal.records_after_checkpoint records in
  let base_view = match base with Some v -> v | None -> empty_view () in
  let replay, heal =
    match checkpoint, base with
    | None, None -> suffix, false
    | None, Some v when v.generation = 0 -> suffix, false
    | None, Some v ->
      if suffix <> [] then
        on_warning
          (Printf.sprintf
             "journal has no checkpoint but generation %d exists; assuming its %d records \
              predate the snapshot"
             v.generation (List.length suffix));
      [], suffix <> []
    | Some g, Some v when g = v.generation -> suffix, false
    | Some g, Some v when g < v.generation ->
      (* the snapshot for v.generation was sealed but the crash hit
         before the journal reset: everything after checkpoint g is
         already inside the newer snapshot. *)
      if suffix <> [] then
        on_warning
          (Printf.sprintf
             "journal checkpoint %d is older than snapshot generation %d; skipping %d \
              already-absorbed records"
             g v.generation (List.length suffix));
      [], true
    | Some g, Some v ->
      raise
        (Codec.Corrupt
           (Printf.sprintf
              "journal checkpoint references generation %d but newest readable snapshot is %d"
              g v.generation))
    | Some g, None ->
      if g <> 0 then
        raise
          (Codec.Corrupt
             (Printf.sprintf "journal checkpoint references generation %d but no snapshot exists" g));
      suffix, false
  in
  let view =
    List.fold_left
      (fun view record ->
        Registry.incr recovered_records_total;
        apply_record view record)
      base_view replay
  in
  if heal && not read_only then Journal.reset jpath [ Journal.Checkpoint base_view.generation ];
  if not read_only then prune_strays ~on_warning dir;
  view, List.length replay

let open_dir ?(read_only = false) ?(on_warning = fun _ -> ()) dir =
  if not (Sys.file_exists dir) then begin
    if read_only then
      invalid_arg
        (Printf.sprintf "Live.open_dir: %s does not exist (a read-only open creates nothing)" dir);
    Unix.mkdir dir 0o755
  end;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Live.open_dir: %s is not a directory" dir);
  let view, replayed = recover ~read_only ~on_warning dir in
  Registry.set generation_gauge (float_of_int view.generation);
  {
    dir;
    read_only;
    lock = Mutex.create ();
    state = Atomic.make view;
    journal = None;
    pending = Atomic.make replayed;
  }

let pending_updates t = Atomic.get t.pending

let view t = Atomic.get t.state

(* ------------------------------------------------------------------ *)
(* Mutation (single writer)                                            *)

let close t =
  Mutex.protect t.lock (fun () ->
      match t.journal with
      | Some w ->
        t.journal <- None;
        Journal.close w
      | None -> ())

let writer t =
  if t.read_only then invalid_arg "Live: store opened read-only";
  match t.journal with
  | Some w -> w
  | None ->
    let w = Journal.open_append (journal_path t.dir) in
    t.journal <- Some w;
    w

let validate_name name =
  if String.length name = 0 then invalid_arg "Live: empty document name";
  String.iter
    (fun c -> if c = '/' || c = '\000' then invalid_arg "Live: document name contains / or NUL")
    name

let add t ~name ~xml =
  validate_name name;
  (* parse before journalling: a document that cannot parse must never
     enter the journal, or recovery would choke on it forever. *)
  let doc = Document.load_string xml in
  let index = Inverted_index.build doc in
  Mutex.protect t.lock (fun () ->
      Journal.append (writer t) (Journal.Add_doc { name; xml });
      (* the record is durable; a crash from here on recovers to the
         post-add state. *)
      Faults.hit "live.apply";
      Atomic.set t.state (apply_add (Atomic.get t.state) ~name ~doc ~index);
      ignore (Atomic.fetch_and_add t.pending 1);
      Registry.incr adds_total)

let remove t name =
  Mutex.protect t.lock (fun () ->
      let view = Atomic.get t.state in
      if not (mem view name) then false
      else begin
        Journal.append (writer t) (Journal.Remove_doc name);
        Faults.hit "live.apply";
        Atomic.set t.state (apply_remove view name);
        ignore (Atomic.fetch_and_add t.pending 1);
        Registry.incr removes_total;
        true
      end)

(* Rebuild the combined arena from every visible member: surviving base
   subtrees keep their order, live deltas follow in insertion order. *)
let rebuild view =
  let base_trees =
    view.members
    |> List.filter (fun (name, _) -> not (is_tombstoned view name))
    |> List.map (fun (name, root) -> (name, Document.to_xml view.doc root))
  in
  let delta_trees =
    List.map (fun (name, d) -> (name, Document.to_xml d.delta_doc (Document.root d.delta_doc))) view.deltas
  in
  let named = base_trees @ delta_trees in
  let doc = Document.of_xml (Types.element "corpus" (List.map snd named)) in
  {
    generation = view.generation + 1;
    doc;
    index = Inverted_index.build doc;
    analysis = analyze doc;
    members = List.combine (List.map fst named) (member_roots doc);
    tombstones = [];
    deltas = [];
  }

let write_snapshot dir view =
  Snapshot.save ~generation:view.generation ~members:(List.map fst view.members)
    (snapshot_path dir view.generation) view.analysis view.index

let prune_old_generations dir keep =
  Faults.hit "live.prune";
  List.iter
    (fun gen ->
      if gen <> keep then try Sys.remove (snapshot_path dir gen) with Sys_error _ -> ())
    (generations dir)

let compact t =
  if t.read_only then invalid_arg "Live: store opened read-only";
  Mutex.protect t.lock (fun () ->
      (* the rebuilt arena stays in memory as the new base: a mapped one
         would allocate a string for every text read *)
      let next = rebuild (Atomic.get t.state) in
      write_snapshot t.dir next;
      (* the new generation is durable: from here recovery prefers it
         and skips the journal suffix even before the reset lands. *)
      Journal.reset (journal_path t.dir) [ Journal.Checkpoint next.generation ];
      (match t.journal with
      | Some w ->
        t.journal <- None;
        Journal.close w
      | None -> ());
      prune_old_generations t.dir next.generation;
      Atomic.set t.state next;
      Atomic.set t.pending 0;
      Registry.incr compactions_total;
      Registry.set generation_gauge (float_of_int next.generation);
      next.generation)
