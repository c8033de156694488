(* One global mutex guards the name table and every value mutation: the
   update sites are per-request / per-stage / per-cache-probe, orders of
   magnitude off the per-node hot loops, so contention is irrelevant and
   the simplicity is worth it. Metric handles returned to callers are the
   interned records themselves; updating one never touches the table. *)

(* guarded-by: lock *)
type counter = {
  c_name : string;
  c_labels : (string * string) list;
  c_help : string;
  mutable c_value : int;
}

(* guarded-by: lock *)
type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  g_help : string;
  mutable g_value : float;
}

(* guarded-by: lock *)
type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  h_help : string;
  h_bounds : float array; (* finite upper bounds, strictly increasing *)
  h_counts : int array; (* per finite bucket, non-cumulative *)
  mutable h_overflow : int; (* observations above the last bound *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let lock = Mutex.create ()

(* identity = name + ordered labels *)
(* guarded-by: lock *)
let table : (string * (string * string) list, metric) Hashtbl.t = Hashtbl.create 64

(* read-only — shared bucket template; histograms copy it on creation *)
let default_latency_buckets =
  [|
    1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1;
    0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
  |]

let kind_of = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register ~name ~labels ~want make =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table (name, labels) with
      | Some existing -> existing
      | None ->
        let m = make () in
        if kind_of m <> want then
          invalid_arg (Printf.sprintf "Registry: %s is not a %s" name want);
        Hashtbl.replace table (name, labels) m;
        m)

let counter ?(help = "") ?(labels = []) name =
  match
    register ~name ~labels ~want:"counter" (fun () ->
        Counter { c_name = name; c_labels = labels; c_help = help; c_value = 0 })
  with
  | Counter c -> c
  | existing ->
    invalid_arg
      (Printf.sprintf "Registry.counter: %s already registered as a %s" name
         (kind_of existing))

let gauge ?(help = "") ?(labels = []) name =
  match
    register ~name ~labels ~want:"gauge" (fun () ->
        Gauge { g_name = name; g_labels = labels; g_help = help; g_value = 0.0 })
  with
  | Gauge g -> g
  | existing ->
    invalid_arg
      (Printf.sprintf "Registry.gauge: %s already registered as a %s" name
         (kind_of existing))

let validate_buckets bounds =
  if Array.length bounds = 0 then invalid_arg "Registry.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Registry.histogram: buckets must be strictly increasing")
    bounds

let histogram ?(help = "") ?(labels = []) ?(buckets = default_latency_buckets) name =
  validate_buckets buckets;
  match
    register ~name ~labels ~want:"histogram" (fun () ->
        Histogram
          {
            h_name = name;
            h_labels = labels;
            h_help = help;
            h_bounds = Array.copy buckets;
            h_counts = Array.make (Array.length buckets) 0;
            h_overflow = 0;
            h_sum = 0.0;
            h_count = 0;
          })
  with
  | Histogram h ->
    let same_buckets =
      Array.length h.h_bounds = Array.length buckets
      && Array.for_all2 (fun a b -> Float.equal a b) h.h_bounds buckets
    in
    if not same_buckets then
      invalid_arg
        (Printf.sprintf "Registry.histogram: %s already registered with other buckets" name);
    h
  | existing ->
    invalid_arg
      (Printf.sprintf "Registry.histogram: %s already registered as a %s" name
         (kind_of existing))

let incr c = Mutex.protect lock (fun () -> c.c_value <- c.c_value + 1)

let add c n =
  if n < 0 then invalid_arg "Registry.add: counters are monotonic";
  Mutex.protect lock (fun () -> c.c_value <- c.c_value + n)

let counter_value c = Mutex.protect lock (fun () -> c.c_value)

let set g v = Mutex.protect lock (fun () -> g.g_value <- v)

let gauge_value g = Mutex.protect lock (fun () -> g.g_value)

(* first bucket whose bound admits [v]; bounds are few (≤ ~20), linear is
   fine and branch-predictable *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  Mutex.protect lock (fun () ->
      let i = bucket_index h.h_bounds v in
      if i < Array.length h.h_counts then h.h_counts.(i) <- h.h_counts.(i) + 1
      else h.h_overflow <- h.h_overflow + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

let histogram_count h = Mutex.protect lock (fun () -> h.h_count)

let histogram_sum h = Mutex.protect lock (fun () -> h.h_sum)

(* Prometheus-style estimate: find the bucket holding the target rank and
   interpolate linearly inside it; the overflow bucket clamps to the last
   finite bound. Callers must hold the lock. *)
let percentile_locked h q =
  if q <= 0.0 || q > 1.0 then invalid_arg "Registry.percentile: q outside (0, 1]";
  if h.h_count = 0 then 0.0
  else begin
    let target = q *. float_of_int h.h_count in
    let n = Array.length h.h_bounds in
    let rec go i cum =
      if i >= n then h.h_bounds.(n - 1)
      else begin
        let cum' = cum + h.h_counts.(i) in
        if float_of_int cum' >= target then begin
          let lower = if i = 0 then 0.0 else h.h_bounds.(i - 1) in
          let upper = h.h_bounds.(i) in
          let in_bucket = h.h_counts.(i) in
          if in_bucket = 0 then upper
          else
            let frac = (target -. float_of_int cum) /. float_of_int in_bucket in
            lower +. (frac *. (upper -. lower))
        end
        else go (i + 1) cum'
      end
    in
    go 0 0
  end

let percentile h q = Mutex.protect lock (fun () -> percentile_locked h q)

(* Pinned gauges carry process facts (build info, start time) that must
   survive [reset] — tests reset the registry, and losing build metadata
   to test isolation would be a lie on the next /metrics scrape. *)
(* guarded-by: lock *)
let pins : (gauge * float) list ref = ref []

let pin g v =
  Mutex.protect lock (fun () ->
      g.g_value <- v;
      pins := (g, v) :: List.filter (fun (g', _) -> g' != g) !pins)

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> c.c_value <- 0
          | Gauge g -> g.g_value <- 0.0
          | Histogram h ->
            Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
            h.h_overflow <- 0;
            h.h_sum <- 0.0;
            h.h_count <- 0)
        table;
      List.iter (fun (g, v) -> g.g_value <- v) !pins)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let compare_labels a b =
  List.compare
    (fun (ka, va) (kb, vb) ->
      let c = String.compare ka kb in
      if c <> 0 then c else String.compare va vb)
    a b

let name_of = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let labels_of = function
  | Counter c -> c.c_labels
  | Gauge g -> g.g_labels
  | Histogram h -> h.h_labels

let help_of = function
  | Counter c -> c.c_help
  | Gauge g -> g.g_help
  | Histogram h -> h.h_help

let sorted_metrics () =
  Hashtbl.fold (fun _ m acc -> m :: acc) table []
  |> List.sort (fun a b ->
         let c = String.compare (name_of a) (name_of b) in
         if c <> 0 then c else compare_labels (labels_of a) (labels_of b))

let float_str v =
  (* integral floats render without an exponent or trailing dot noise *)
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* The exposition format escapes exactly backslash, double quote and
   newline inside label values — OCaml's %S would also escape tabs,
   high bytes etc., which scrapers then read back literally. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_str labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
    ^ "}"

(* labels plus an [le] bound, for histogram bucket series *)
let le_label_str labels le =
  label_str (labels @ [ "le", le ])

let render_prometheus () =
  Mutex.protect lock (fun () ->
      let buf = Buffer.create 4096 in
      let last_family = ref "" in
      List.iter
        (fun m ->
          let name = name_of m in
          if name <> !last_family then begin
            last_family := name;
            let help = help_of m in
            if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
            Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name (kind_of m))
          end;
          match m with
          | Counter c ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" name (label_str c.c_labels) c.c_value)
          | Gauge g ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (label_str g.g_labels) (float_str g.g_value))
          | Histogram h ->
            let cum = ref 0 in
            Array.iteri
              (fun i bound ->
                cum := !cum + h.h_counts.(i);
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (le_label_str h.h_labels (float_str bound))
                     !cum))
              h.h_bounds;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (le_label_str h.h_labels "+Inf")
                 h.h_count);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" name (label_str h.h_labels) (float_str h.h_sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" name (label_str h.h_labels) h.h_count))
        (sorted_metrics ());
      Buffer.contents buf)

let json_labels labels =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Jsonv.quote k) (Jsonv.quote v)) labels)
  ^ "}"

let render_json () =
  Mutex.protect lock (fun () ->
      let metrics = sorted_metrics () in
      let pick f = List.filter_map f metrics in
      let counters =
        pick (function
          | Counter c ->
            Some
              (Printf.sprintf "{ \"name\": %S, \"labels\": %s, \"value\": %d }" c.c_name
                 (json_labels c.c_labels) c.c_value)
          | _ -> None)
      in
      let gauges =
        pick (function
          | Gauge g ->
            Some
              (Printf.sprintf "{ \"name\": %S, \"labels\": %s, \"value\": %s }" g.g_name
                 (json_labels g.g_labels) (float_str g.g_value))
          | _ -> None)
      in
      let histograms =
        pick (function
          | Histogram h ->
            Some
              (Printf.sprintf
                 "{ \"name\": %S, \"labels\": %s, \"count\": %d, \"sum\": %s, \"p50\": %s, \
                  \"p95\": %s, \"p99\": %s }"
                 h.h_name (json_labels h.h_labels) h.h_count (float_str h.h_sum)
                 (float_str (percentile_locked h 0.50))
                 (float_str (percentile_locked h 0.95))
                 (float_str (percentile_locked h 0.99)))
          | _ -> None)
      in
      Printf.sprintf "{ \"counters\": [%s], \"gauges\": [%s], \"histograms\": [%s] }"
        (String.concat ", " counters) (String.concat ", " gauges)
        (String.concat ", " histograms))

(* ------------------------------------------------------------------ *)
(* Process facts, registered once at module init and pinned so they
   survive [reset]. The conventional shapes: a constant-1 info gauge
   whose labels carry the facts, and a start-time gauge Prometheus can
   turn into process uptime. *)

let version = "1.0.0"

let () =
  pin
    (gauge ~help:"Build information; the value is always 1"
       ~labels:[ ("ocaml_version", Sys.ocaml_version); ("version", version) ]
       "extract_build_info")
    1.0;
  pin
    (gauge ~help:"Unix time the process started, in seconds"
       "extract_process_start_time_seconds")
    (Unix.gettimeofday ())
