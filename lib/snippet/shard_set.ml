module Document = Extract_store.Document
module Codec = Extract_store.Codec
module Envelope = Extract_store.Codec.Envelope
module Snapshot = Extract_store.Snapshot
module Result_tree = Extract_search.Result_tree
module Registry = Extract_obs.Registry

let queries_total =
  Registry.counter ~help:"Sharded queries executed" "extract_shard_queries_total"

(* One shard: an independently analyzed sub-corpus plus its provenance —
   the contiguous global node-id block its local ids [1..len] came from.
   Local node 0 is the shard's copy of the global root. *)
type shard = {
  db : Pipeline.t;
  global_first : int; (* global id of local node 1 *)
  global_last : int;  (* inclusive *)
}

type t = {
  shards : shard array; (* read-only — built once by split/load_dir, never mutated *)
  root_node_count : int; (* of the original document, for integrity checks *)
}

let shard_count t = Array.length t.shards

let shard_db t i = t.shards.(i).db

let provenance t i = t.shards.(i).global_first, t.shards.(i).global_last

(* ------------------------------------------------------------------ *)
(* Splitting: partition the root's children into contiguous groups of
   roughly equal node weight. Each child subtree is a contiguous
   pre-order block, so a group is one global interval [g0, g1] and the
   shard document is root ^ that block, ids shifted by g0-1. Depths are
   unchanged (the children keep depth 1); parents shift, except the
   group's top-level children which re-parent to the shard root. *)

let split ?(shards = 4) doc =
  let repr = Document.Internal.to_repr doc in
  let n = Array.length repr.Document.Internal.tag in
  let size = repr.Document.Internal.size in
  let children =
    let acc = ref [] in
    let c = ref 1 in
    while !c < n do
      acc := !c :: !acc;
      c := !c + size.(!c)
    done;
    Array.of_list (List.rev !acc)
  in
  let nchildren = Array.length children in
  let k = max 1 (min shards nchildren) in
  (* greedy balanced grouping by node weight *)
  let groups = ref [] in
  let start = ref 0 in
  let remaining = ref (n - 1) in
  for g = 0 to k - 1 do
    let want = !remaining / (k - g) in
    let stop = ref !start in
    let got = ref 0 in
    while
      !stop < nchildren
      && (!got < want || !stop = !start)
      && nchildren - (!stop + 1) >= k - g - 1
    do
      got := !got + size.(children.(!stop));
      incr stop
    done;
    groups := (!start, !stop) :: !groups;
    remaining := !remaining - !got;
    start := !stop
  done;
  let groups = List.rev !groups in
  let make_shard (c_start, c_stop) =
    let g0 = children.(c_start) in
    let g1 =
      let last = children.(c_stop - 1) in
      last + size.(last) - 1
    in
    let len = g1 - g0 + 1 in
    let open Document.Internal in
    let kinds = Bytes.make (len + 1) '\000' in
    Bytes.blit repr.kinds g0 kinds 1 len;
    let tag = Array.make (len + 1) repr.tag.(0) in
    Array.blit repr.tag g0 tag 1 len;
    let parent = Array.make (len + 1) (-1) in
    for i = 0 to len - 1 do
      let p = repr.parent.(g0 + i) in
      parent.(i + 1) <- (if p < g0 then 0 else p - (g0 - 1))
    done;
    let depth = Array.make (len + 1) 0 in
    Array.blit repr.depth g0 depth 1 len;
    let sizes = Array.make (len + 1) (len + 1) in
    Array.blit repr.size g0 sizes 1 len;
    let texts = Array.make (len + 1) "" in
    Array.blit repr.texts g0 texts 1 len;
    let element_count = ref 1 in
    for i = 1 to len do
      if Bytes.get kinds i = '\000' then incr element_count
    done;
    let shard_doc =
      of_repr
        {
          dtd_source = repr.dtd_source;
          tag_names = repr.tag_names;
          kinds;
          tag;
          parent;
          depth;
          size = sizes;
          texts;
          element_count = !element_count;
        }
    in
    { db = Pipeline.build shard_doc; global_first = g0; global_last = g1 }
  in
  { shards = Array.of_list (List.map make_shard groups); root_node_count = n }

(* ------------------------------------------------------------------ *)
(* Queries: every shard is one segment of a ranked merge *)

type hit = {
  shard : int;
  score : float;
  global_root : int;
  result : Pipeline.snippet_result;
}

let run ?semantics ?config ?bound ?limit ?deadline t query =
  Registry.incr queries_total;
  let segment i s =
    {
      Pipeline.db = s.db;
      mask = None;
      (* results rooted at the shard-local root are dropped: they have
         no counterpart in the unsharded evaluation (documented in the
         mli). One source for every shard, so equal scores keep shard
         order. *)
      source_of = (fun r -> if Result_tree.root r = 0 then None else Some "");
      span = Some ("shard.run", [ ("shard", string_of_int i) ]);
    }
  in
  Pipeline.run_merged ?semantics ?config ?bound ?limit ?deadline
    (List.mapi segment (Array.to_list t.shards))
    query
  |> List.map (fun (h : Pipeline.hit) ->
         let shard = h.Pipeline.segment and result = h.Pipeline.snippet in
         (* a kept root is never the local root, so it lies in the
            shard's global block, shifted down by [global_first - 1] *)
         let local = Result_tree.root result.Pipeline.result in
         {
           shard;
           score = h.Pipeline.score;
           global_root = local + t.shards.(shard).global_first - 1;
           result;
         })

(* ------------------------------------------------------------------ *)
(* Persistence: a directory of per-shard snapshots plus a sealed
   manifest recording the provenance intervals. *)

let manifest_magic = "XTRSHRDS"

let manifest_name = "shards.manifest"

let shard_file i = Printf.sprintf "shard-%02d.snap" i

let is_shard_dir path =
  Sys.file_exists path
  && Sys.is_directory path
  && Sys.file_exists (Filename.concat path manifest_name)

let save_dir dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let w = Codec.writer () in
  Codec.write_varint w t.root_node_count;
  Codec.write_varint w (Array.length t.shards);
  Array.iteri
    (fun i s ->
      Codec.write_string w (shard_file i);
      Codec.write_varint w s.global_first;
      Codec.write_varint w s.global_last;
      Snapshot.save (Filename.concat dir (shard_file i)) (Pipeline.keys s.db) (Pipeline.index s.db))
    t.shards;
  Extract_store.Durable.replace_atomic
    ~path:(Filename.concat dir manifest_name)
    (Envelope.seal ~magic:manifest_magic (Codec.contents w))

let load_dir dir =
  let path = Filename.concat dir manifest_name in
  let data = In_channel.with_open_bin path In_channel.input_all in
  if String.length data = 0 then
    raise
      (Codec.Truncated
         (Printf.sprintf
            "%s: empty file (expected a shard manifest artifact with magic %S)"
            path manifest_magic));
  let payload = Envelope.unseal ~magic:manifest_magic ~kind:"shard manifest" data in
  let r = Codec.reader payload in
  let root_node_count = Codec.read_varint r in
  let k = Codec.read_varint r in
  if k <= 0 || k > 4096 then
    raise (Codec.Corrupt (Printf.sprintf "%s: implausible shard count %d" path k));
  let shards =
    Array.init k (fun _ ->
        let file = Codec.read_string r in
        let global_first = Codec.read_varint r in
        let global_last = Codec.read_varint r in
        if Filename.basename file <> file then
          raise (Codec.Corrupt (Printf.sprintf "%s: shard file %S escapes the directory" path file));
        let s = Snapshot.load_analyzed (Filename.concat dir file) in
        { db = Pipeline.of_analysis s.Snapshot.keys s.Snapshot.index; global_first; global_last })
  in
  if not (Codec.at_end r) then
    raise (Codec.Corrupt (Printf.sprintf "%s: trailing bytes after shard table" path));
  { shards; root_node_count }
