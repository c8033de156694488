(* Shared helpers: clock and sample statistics, failure exits, the
   metric record and its JSON, files, GC marks, cold starts, and the
   untraced timed phase split across processes. *)

let now = Unix.gettimeofday

(* Fatal set-up errors: no result line, non-zero exit. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let sorted samples =
  let copy = Array.copy samples in
  Array.sort Float.compare copy;
  copy

(* Nearest-rank percentile of an ascending sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median samples = percentile (sorted samples) 0.5

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

let sum samples = Array.fold_left ( +. ) 0. samples

let timed f =
  let t0 = now () in
  let x = f () in
  x, now () -. t0

let ratio num den = if den <= 0. then 0. else num /. den

(* A percentile is reported only where at least ten samples lie beyond
   it: p99 needs 1000 samples, p90 needs 100. *)
let require_tail ~what ~p n =
  if float_of_int n *. (1. -. p) < 10. -. 1e-9 then
    die "%s: %d samples leave fewer than ten beyond p%g" what n (p *. 100.)

type metric = {
  name : string;
  unit : string;
  value : float;
}

let metric name unit value = { name; unit; value }

(* What one run of one workload produced. [info] values are JSON text. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * string) list;
}

(* The end-to-end metrics of an untraced run: [reads] are the read
   requests' latencies, [wall] the timed phase, [heap] the live heap of
   the serving process at the end. *)
let end_to_end_metrics ~setups ~reads ~requests ~wall ~heap =
  require_tail ~what:"latency_p99_ms" ~p:0.99 (Array.length reads);
  let sorted_reads = sorted reads in
  [ metric "setup_s" "s" (median setups);
    metric "latency_p50_ms" "ms" (percentile sorted_reads 0.5 *. 1000.);
    metric "latency_p99_ms" "ms" (percentile sorted_reads 0.99 *. 1000.);
    metric "throughput_rps" "1/s" (float_of_int requests /. wall);
    metric "heap_mb" "MiB" heap ]

(* Cold starts per run; setup_s is their median. An untraced run makes
   [starts_before] of them ahead of its first slice and the rest
   between slices ({!run_parts}), so that, like the slices, they sample
   the machine's speed across the whole run; a traced run makes them
   all up front. *)
let starts_per_run = 21

let starts_before = 5

(* [count] cold starts, each one's result discarded before the next
   begins; [start ()] gives the started corpus, the seconds from the
   artifact on disk to the first answer, the first request's seconds,
   and whether that answer was right. *)
type 'a cold_starts = {
  last : 'a;
  setups : float array;
  firsts : float array;
  wrong : int;
}

let cold_starts ~count ~discard start =
  let rec go i previous setups firsts wrong =
    Option.iter discard previous;
    (* a full major collection first, so that every start begins, as a
       fresh process would, with the earlier starts' garbage gone *)
    Gc.full_major ();
    let x, total, first, ok = start () in
    let setups = total :: setups and firsts = first :: firsts in
    let wrong = if ok then wrong else wrong + 1 in
    if i < count then go (i + 1) (Some x) setups firsts wrong
    else { last = x; setups = Array.of_list setups; firsts = Array.of_list firsts; wrong }
  in
  go 1 None [] [] 0

(* [count] more cold starts, none kept: their setups and wrong answers. *)
let discarded_starts ~count ~discard start =
  let s = cold_starts ~count ~discard start in
  discard s.last;
  s.setups, s.wrong

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision: the value as measured, not rounded for display. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_int n = string_of_int n

let json_bool b = if b then "true" else "false"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Copy the regular files of [src] into a fresh directory [dst]. *)
let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name -> copy_file (Filename.concat src name) (Filename.concat dst name))
    (Sys.readdir src)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* Live OCaml heap after a full major collection ([Gc.stat] forces one). *)
let live_heap_mb () =
  let s = Gc.stat () in
  float_of_int (s.Gc.live_words * (Sys.word_size / 8)) /. 1048576.

(* A full major collection before a timed replay, so that no replay
   pays for garbage the set-up left behind. *)
let settle () = Gc.full_major ()

type gc_mark = {
  minor_words : float;
  major_collections : int;
}

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* gc.minor_kw (per request) and gc.major_collections (per 1000
   requests) between two marks. *)
let gc_metrics ~requests before after =
  let n = float_of_int (max 1 requests) in
  [ metric "gc.minor_kw" "kw" ((after.minor_words -. before.minor_words) /. n /. 1000.);
    metric "gc.major_collections" "count/1000req"
      (float_of_int (after.major_collections - before.major_collections) *. 1000. /. n) ]

(* ------------------------------------------------------------------ *)
(* Timed phases split across processes                                 *)

(* Run-to-run spread on the reference machine comes mostly from how
   fast one process happens to be over a stretch of a few seconds
   (consecutive slices of one run differ by up to ~13%), so an untraced
   timed phase is split into [parts] consecutive slices of the
   sequence, each replayed in a fresh process of this executable
   ([main.exe part WORKLOAD PLAN REPORT]), and their samples are
   pooled. *)
let parts = 8

(* cold starts after each slice: starts_before + parts * starts_between
   = starts_per_run *)
let starts_between = (starts_per_run - starts_before) / parts

let slice array k =
  let edge i = i * Array.length array / parts in
  Array.sub array (edge k) (edge (k + 1) - edge k)

let write_marshal path v = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v [])

let read_marshal path = In_channel.with_open_bin path Marshal.from_channel

type part_report = {
  latencies : float array; (* seconds, per request of the slice *)
  failed : int;
  wall : float; (* the slice's timed phase, seconds *)
  heap_mb : float; (* live heap when the slice ended *)
}

(* Replay every slice, in order, each in its own process, with the cold
   starts [between ()] makes after each. Returns the slices' reports and
   those starts' setups and wrong answers. *)
let run_parts ~workload ~work ~between plan_of =
  let setups = ref [] and wrong = ref 0 in
  let reports =
    List.init parts (fun k ->
      let plan_path = Filename.concat work (Printf.sprintf "part-%d.plan" k) in
      let report_path = Filename.concat work (Printf.sprintf "part-%d.report" k) in
      write_marshal plan_path (plan_of k);
      let exe = Sys.executable_name in
      let pid =
        Unix.create_process exe [| exe; "part"; workload; plan_path; report_path |] Unix.stdin
          Unix.stderr Unix.stderr
      in
      let report =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> (read_marshal report_path : part_report)
        | _ -> die "part %d of %s failed" k workload
      in
      let s, w = between () in
      setups := s :: !setups;
      wrong := !wrong + w;
      report)
  in
  reports, Array.concat (List.rev !setups), !wrong

(* The pooled result: samples in sequence order, failures and timed
   phases summed, and the median of the heaps the slices' processes
   ended with (what the caches hold at the end depends on the last
   requests, which the seed orders). *)
let pool reports =
  ( Array.concat (List.map (fun r -> r.latencies) reports),
    List.fold_left (fun acc r -> acc + r.failed) 0 reports,
    List.fold_left (fun acc r -> acc +. r.wall) 0. reports,
    median (Array.of_list (List.map (fun r -> r.heap_mb) reports)) )

(* [main.exe part WORKLOAD PLAN REPORT] *)
let serve_part run ~plan_path ~report_path =
  write_marshal report_path (run (read_marshal plan_path) : part_report)
