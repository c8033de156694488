(* Seeded inputs. Every corpus, query mix and request sequence is built
   here before any timing starts; the served program only ever sees the
   generated requests. The corpora are the two the repository's
   experiments use, and the query pool is what the workload generator
   makes of each (fixed generator seeds, so node counts and the pool are
   the same in every run). What a run sends — every (query, bound) pair
   and how often, the hot set, the writes and the documents they write —
   is fixed by the workload and the request count; the run's seed draws
   the order in which it is sent. A change of seed therefore changes the
   sequence and not the cost of the workload. *)

module Prng = Extract_util.Prng
module Zipf = Extract_util.Zipf
module Retail = Extract_datagen.Retail
module Types = Extract_xml.Types

(* The corpus `extract gen retail` writes: 8 x 10 x 12, 7,401 nodes. *)
let retail_default () = Retail.generate Retail.default

(* E22's ten-times corpus: 9,600 clothes, 74,001 nodes. *)
let retail_10x () = Retail.scaled ~seed:7 9_600

let xml_of_document doc = Extract_xml.Printer.document_to_string doc

(* One independent stream per purpose, so changing how one part of the
   input is drawn leaves the others unchanged. *)
let stream ~seed purpose = Prng.create ((seed * 1_000_003) + purpose)

let url_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | ' ' -> Buffer.add_char b '+'
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

type read = {
  query : string;
  bound : int;
}

(* Workload.generate asked for 20,000 queries at seed 11, deduplicated
   in first-seen order: 863 distinct on the 10x corpus. *)
let query_pool kinds =
  let generated =
    Extract_datagen.Workload.generate
      { Extract_datagen.Workload.default with seed = 11; queries = 20_000 }
      kinds
  in
  let seen = Hashtbl.create 1024 in
  let fresh q =
    if Hashtbl.mem seen q then false
    else begin
      Hashtbl.add seen q ();
      true
    end
  in
  let queries = Array.of_list (List.filter fresh generated) in
  if Array.length queries = 0 then Common.die "the workload generator produced no queries";
  queries

(* Snippet bounds 4 to 12 in turn. *)
let bound_of i = 4 + (i mod 9)

(* Uniform draws without replacement: a deck holds every distinct query
   once, in an order the seed shuffles, the [j]-th query of deck [d]
   paired with [bound_of (n * (d mod 2) + j)]; a run is as many decks as
   it needs, the last one an evenly spaced selection from the pool (the
   pool's first queries are its most frequent, and broad). Which pairs a
   run sends thus depends on [count] alone. From the third deck on the
   pairs repeat those of two decks before, at least a deck apart: long
   after either cache has let them go, and without more answers to
   compute before timing. *)
let deck_sequence rng queries ~count =
  let n = Array.length queries in
  let deck d =
    let size = min n (count - (d * n)) in
    let cards =
      Array.init size (fun j ->
          { query = queries.(j * n / size); bound = bound_of ((n * (d mod 2)) + j) })
    in
    Prng.shuffle rng cards;
    cards
  in
  Array.concat (List.init ((count + n - 1) / n) deck)

let search_target r =
  Printf.sprintf "/search?data=retail&q=%s&bound=%d" (url_encode r.query) r.bound

let shards_target r = Printf.sprintf "/shards/search?q=%s&bound=%d" (url_encode r.query) r.bound

let live_target r = Printf.sprintf "/live/search?q=%s&bound=%d" (url_encode r.query) r.bound

(* The cold-start probe: of the pool's first 50 queries, the one with
   the fewest results (at least one), so that set-up time is the start
   and not one expensive query; at bound 3, which no sequence uses, so
   answering it leaves nothing a timed request could hit. *)
let probe pool ~results =
  let candidates = Array.sub pool 0 (min 50 (Array.length pool)) in
  let best =
    Array.fold_left
      (fun best q ->
        let n = results q in
        match best with
        | Some (m, _) when m <= n -> best
        | Some _ | None -> if n > 0 then Some (n, q) else best)
      None candidates
  in
  { query = (match best with Some (_, q) -> q | None -> pool.(0)); bound = 3 }

(* hot-http's targets: the middle one of each of [strata] equal-count
   page-size bands of [candidates], ordered so that popularity rank k
   always falls on the same band, middle bands first. *)
let stratified candidates ~size ~strata =
  let by_size = Array.map (fun c -> size c, c) candidates in
  Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) by_size;
  let n = Array.length by_size in
  let pick band =
    let lo = band * n / strata and hi = ((band + 1) * n / strata) - 1 in
    snd by_size.((lo + max lo hi) / 2)
  in
  let middle_out =
    List.init strata Fun.id
    |> List.stable_sort (fun a b ->
           Int.compare (abs ((2 * a) + 1 - strata)) (abs ((2 * b) + 1 - strata)))
  in
  Array.of_list (List.map pick middle_out)

(* [count] popularity ranks 0 .. distinct-1 in a seeded order, rank k
   as often as its Zipf([skew]) weight gives (largest remainders), so
   that how often each rank comes depends on [count] alone. *)
let zipf_sequence rng ~distinct ~skew ~count =
  let z = Zipf.create ~n:distinct ~skew in
  let share = Array.init distinct (fun k -> Zipf.probability z k *. float_of_int count) in
  let times = Array.map int_of_float share in
  let short = count - Array.fold_left ( + ) 0 times in
  let by_remainder = Array.init distinct Fun.id in
  Array.stable_sort
    (fun a b ->
      Float.compare (share.(b) -. float_of_int times.(b)) (share.(a) -. float_of_int times.(a)))
    by_remainder;
  for i = 0 to short - 1 do
    let k = by_remainder.(i mod distinct) in
    times.(k) <- times.(k) + 1
  done;
  let ranks = Array.concat (List.init distinct (fun k -> Array.make times.(k) k)) in
  Prng.shuffle rng ranks;
  ranks

(* live-write's members are the default corpus's retailers, one
   document each; its writes put in further retailers, generated at a
   fixed seed ([replacement_documents]). *)
let retailer_elements (doc : Types.document) =
  List.filter_map
    (function Types.Element e -> Some e | Types.Text _ -> None)
    doc.Types.root.Types.children

let element_xml e = Extract_xml.Printer.to_string ~indent:None (Types.Element e)

let member_name i = Printf.sprintf "retailer-%02d" i

let replacement_documents ~count =
  let doc = Retail.generate { Retail.default with seed = 5; retailers = count } in
  Array.of_list (List.map element_xml (retailer_elements doc))

type live_op =
  | Read of read
  | Add of { name : string; body : int } (* index into the replacement documents *)
  | Compact

(* The [w]-th add of a run (or of the prepared store's tail): it
   replaces member [w mod replaced] with body [w mod bodies]. *)
let nth_add ~replaced ~bodies w = member_name (w mod replaced), w mod bodies

(* One request in [write_every] is the next add (counting on from the
   [adds_before] the store already holds), a compaction every
   [compact_every] requests, and the rest are reads drawn in decks; the
   seed orders the reads, the writes stand where they stand. *)
let live_sequence rng queries ~count ~write_every ~compact_every ~replaced ~bodies ~adds_before =
  let kind i =
    if (i + 1) mod compact_every = 0 then `Compact
    else if (i + 1) mod write_every = 0 then `Add
    else `Read
  in
  let is_read i = match kind i with `Read -> true | `Add | `Compact -> false in
  let n_reads = List.length (List.filter is_read (List.init count Fun.id)) in
  let reads = deck_sequence rng queries ~count:n_reads in
  let next_read = ref 0 and next_add = ref adds_before in
  Array.init count (fun i ->
      match kind i with
      | `Compact -> Compact
      | `Add ->
        incr next_add;
        let name, body = nth_add ~replaced ~bodies (!next_add - 1) in
        Add { name; body }
      | `Read ->
        incr next_read;
        Read reads.(!next_read - 1))
