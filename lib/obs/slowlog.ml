(* Slow-query capture: a small always-on store answering "what were the
   worst queries lately, and what did every degraded one look like".
   Two retention rules under one mutex:
     - the N slowest queries ever seen (sorted list, truncated), and
     - a circular ring of the most recent degraded/faulted queries —
       kept unconditionally, because a degraded answer is interesting
       regardless of how fast it was produced.
   Entries carry a compact explain digest, not the full bundle: the
   store is a diagnostic of last resort and must stay O(capacity). *)

type entry = {
  rid : string;
  query : string;
  seconds : float;
  degraded : int;
  faulted : bool;
  digest : Jsonv.t;
}

let lock = Mutex.create ()

let default_slowest = 16

let default_ring = 64

let slowest_cap = ref default_slowest (* guarded-by: lock *)

let ring_cap = ref default_ring (* guarded-by: lock *)

(* slowest first; length <= !slowest_cap *)
(* guarded-by: lock *)
let slowest : entry list ref = ref []

(* most recent first; length <= !ring_cap *)
(* guarded-by: lock *)
let ring : entry list ref = ref []

let truncate n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

let configure ?slowest:(n = default_slowest) ?ring:(r = default_ring) () =
  if n < 0 || r < 0 then invalid_arg "Slowlog.configure: negative capacity";
  Mutex.protect lock (fun () ->
      slowest_cap := n;
      ring_cap := r;
      slowest := truncate n !slowest;
      ring := truncate r !ring)

let record e =
  Mutex.protect lock (fun () ->
      let rec insert = function
        | [] -> [ e ]
        | x :: rest ->
          if e.seconds > x.seconds then e :: x :: rest else x :: insert rest
      in
      slowest := truncate !slowest_cap (insert !slowest);
      if e.degraded > 0 || e.faulted then
        ring := truncate !ring_cap (e :: !ring))

let snapshot () = Mutex.protect lock (fun () -> (!slowest, !ring))

let reset () =
  Mutex.protect lock (fun () ->
      slowest := [];
      ring := [])

let entry_json e =
  Jsonv.Obj
    [ ("rid", Jsonv.Str e.rid);
      ("query", Jsonv.Str e.query);
      ("seconds", Jsonv.Float e.seconds);
      ("degraded", Jsonv.Int e.degraded);
      ("faulted", Jsonv.Bool e.faulted);
      ("digest", e.digest) ]

let render_json () =
  let slow, degraded = snapshot () in
  Jsonv.pretty
    (Jsonv.Obj
       [ ("slowest", Jsonv.Arr (List.map entry_json slow));
         ("degraded", Jsonv.Arr (List.map entry_json degraded)) ])
