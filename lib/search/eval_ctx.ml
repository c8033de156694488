module Document = Extract_store.Document
module Postings = Extract_store.Postings
module Inverted_index = Extract_store.Inverted_index
module Registry = Extract_obs.Registry
module Trace = Extract_obs.Trace
module Log = Extract_obs.Log
module Capture = Extract_obs.Explain
module Jsonv = Extract_obs.Jsonv

type t = {
  index : Inverted_index.t;
  query : Query.t;
  mask : (int * int) array option;
  resolved : (string * Document.node array) list; (* query-keyword order *)
}

(* Two-pointer intersection of an ascending posting list with sorted
   disjoint inclusive intervals. Returns the input array unchanged when
   nothing is filtered out, so the common no-tombstone case allocates
   nothing. *)
let apply_mask mask arr =
  let m = Array.length mask in
  let n = Array.length arr in
  if m = 0 then [||]
  else begin
    let buf = Array.make n 0 in
    let k = ref 0 in
    let i = ref 0 in
    let j = ref 0 in
    while !i < n && !j < m do
      let node = arr.(!i) in
      let lo, hi = mask.(!j) in
      if node < lo then incr i
      else if node > hi then incr j
      else begin
        buf.(!k) <- node;
        incr k;
        incr i
      end
    done;
    if !k = n then arr else Array.sub buf 0 !k
  end

let masked mask arr =
  match mask with
  | None -> arr
  | Some intervals -> apply_mask intervals arr

let lists_resolved_total =
  Registry.counter ~help:"Posting lists resolved into evaluation contexts"
    "extract_posting_lists_resolved_total"

let entries_resolved_total =
  Registry.counter ~help:"Posting entries in lists resolved into evaluation contexts"
    "extract_posting_entries_resolved_total"

let make ?mask index query =
  let resolved =
    Trace.with_span "eval_ctx.resolve" (fun () ->
        List.map
          (fun k -> k, masked mask (Inverted_index.lookup index k))
          (Query.keywords query))
  in
  Registry.add lists_resolved_total (List.length resolved);
  Registry.add entries_resolved_total
    (List.fold_left (fun acc (_, arr) -> acc + Array.length arr) 0 resolved);
  if Log.enabled Log.Debug || Capture.capturing () then begin
    let counts = List.map (fun (k, arr) -> k, Jsonv.Int (Array.length arr)) resolved in
    Log.debug "eval_ctx.resolve" counts;
    Capture.record "postings" (fun () -> Jsonv.Obj counts)
  end;
  { index; query; mask; resolved }

let index t = t.index

let query t = t.query

let document t = Inverted_index.document t.index

let postings t keyword =
  match List.assoc_opt keyword t.resolved with
  | Some arr -> arr
  | None -> masked t.mask (Inverted_index.lookup t.index keyword)

let lists t = List.map snd t.resolved

let matches_under t node =
  let doc = document t in
  List.concat_map (fun (_, arr) -> Postings.in_subtree doc arr node) t.resolved
