(* Unit tests for the extract.util substrate. *)

open Extract_util

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Arraylist *)

let of_list xs =
  let t = Arraylist.create () in
  List.iter (Arraylist.push t) xs;
  t

let to_list t = Array.to_list (Arraylist.to_array t)

let test_arraylist_empty () =
  let t = Arraylist.create () in
  check int "length" 0 (Arraylist.length t);
  check bool "is_empty" true (Arraylist.is_empty t);
  check bool "to_list" true (to_list t = [])

let test_arraylist_push_get () =
  let t = Arraylist.create () in
  for i = 0 to 99 do
    Arraylist.push t (i * i)
  done;
  check int "length" 100 (Arraylist.length t);
  check int "get 0" 0 (Arraylist.get t 0);
  check int "get 99" (99 * 99) (Arraylist.get t 99);
  check int "last" (99 * 99) (Arraylist.last t)

let test_arraylist_set () =
  let t = of_list [ 1; 2; 3 ] in
  Arraylist.set t 1 42;
  check bool "after set" true (to_list t = [ 1; 42; 3 ])

let test_arraylist_pop () =
  let t = of_list [ 1; 2; 3 ] in
  check int "pop" 3 (Arraylist.pop t);
  check int "length after pop" 2 (Arraylist.length t);
  check int "pop" 2 (Arraylist.pop t);
  check int "pop" 1 (Arraylist.pop t);
  Alcotest.check_raises "pop empty" (Invalid_argument "Arraylist.pop: empty") (fun () ->
      ignore (Arraylist.pop t))

let test_arraylist_bounds () =
  let t = of_list [ 1 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Arraylist: index 1 out of bounds [0,1)") (fun () ->
      ignore (Arraylist.get t 1));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Arraylist: index -1 out of bounds [0,1)") (fun () ->
      ignore (Arraylist.get t (-1)))

let test_arraylist_clear_reuse () =
  let t = of_list [ 1; 2 ] in
  Arraylist.clear t;
  check int "cleared" 0 (Arraylist.length t);
  Arraylist.push t 9;
  check int "reused" 9 (Arraylist.get t 0)

let test_arraylist_iter_fold_map () =
  let t = of_list [ 1; 2; 3; 4 ] in
  let sum = ref 0 in
  Arraylist.iter (fun x -> sum := !sum + x) t;
  check int "iter" 10 !sum;
  let seen = ref [] in
  Arraylist.iteri (fun i x -> seen := (i, x) :: !seen) t;
  check bool "iteri in order" true (List.rev !seen = [ 0, 1; 1, 2; 2, 3; 3, 4 ])

let test_arraylist_sort () =
  let t = of_list [ 3; 1; 2 ] in
  Arraylist.sort compare t;
  check bool "sorted" true (to_list t = [ 1; 2; 3 ])

let test_arraylist_make () =
  let t = Arraylist.make 5 'x' in
  check int "make length" 5 (Arraylist.length t);
  check bool "make fill" true (to_list t = [ 'x'; 'x'; 'x'; 'x'; 'x' ])

(* ------------------------------------------------------------------ *)
(* Interner *)

let test_interner_basics () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  check int "first id" 0 a;
  check int "second id" 1 b;
  check int "repeat" a (Interner.intern t "alpha");
  check int "count" 2 (Interner.count t);
  check string "name" "beta" (Interner.name t b)

let test_interner_find () =
  let t = Interner.create () in
  ignore (Interner.intern t "x");
  check bool "find present" true (Interner.find t "x" = Some 0);
  check bool "find absent" true (Interner.find t "y" = None)

let test_interner_bad_id () =
  let t = Interner.create () in
  Alcotest.check_raises "unknown id" (Invalid_argument "Interner.name: unknown id 0")
    (fun () -> ignore (Interner.name t 0))

let test_interner_iter_order () =
  let t = Interner.create () in
  List.iter (fun s -> ignore (Interner.intern t s)) [ "c"; "a"; "b" ];
  let order = ref [] in
  Interner.iter (fun id s -> order := (id, s) :: !order) t;
  check bool "id order = first-seen order" true
    (List.rev !order = [ 0, "c"; 1, "a"; 2, "b" ])

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  check bool "same seed, same stream" true (xs = ys)

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000000) in
  check bool "different seeds differ" true (xs <> ys)

let test_prng_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of bounds"
  done;
  for _ = 1 to 1000 do
    let x = Prng.int_in_range rng ~min:3 ~max:5 in
    if x < 3 || x > 5 then Alcotest.fail "range out of bounds"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_float () =
  let rng = Prng.create 8 in
  for _ = 1 to 1000 do
    let x = Prng.float rng 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_prng_split_independence () =
  let a = Prng.create 77 in
  let b = Prng.split a in
  let xs = List.init 10 (fun _ -> Prng.int a 1000000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000000) in
  check bool "split streams differ" true (xs <> ys)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 31 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check bool "shuffle is a permutation" true (Array.to_list sorted = List.init 50 Fun.id)

let test_prng_sample () =
  let rng = Prng.create 13 in
  let arr = Array.init 10 Fun.id in
  let s = Prng.sample rng arr 4 in
  check int "sample size" 4 (List.length s);
  check int "distinct" 4 (List.length (List.sort_uniq compare s));
  let all = Prng.sample rng arr 99 in
  check int "oversample returns all" 10 (List.length all)

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~skew:0.0 in
  List.iter
    (fun k ->
      Alcotest.check (Alcotest.float 1e-9) "uniform mass" 0.25 (Zipf.probability z k))
    [ 0; 1; 2; 3 ]

let test_zipf_monotone () =
  let z = Zipf.create ~n:6 ~skew:1.2 in
  for k = 0 to 4 do
    if Zipf.probability z k < Zipf.probability z (k + 1) then
      Alcotest.fail "mass should decrease with rank"
  done

let test_zipf_mass_sums_to_one () =
  let z = Zipf.create ~n:9 ~skew:0.7 in
  let total = List.fold_left (fun acc k -> acc +. Zipf.probability z k) 0.0 (List.init 9 Fun.id) in
  Alcotest.check (Alcotest.float 1e-9) "sums to 1" 1.0 total

let test_zipf_sampling_skew () =
  let z = Zipf.create ~n:5 ~skew:1.5 in
  let rng = Prng.create 4 in
  let counts = Array.make 5 0 in
  for _ = 1 to 5000 do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  check bool "rank 0 most frequent" true (counts.(0) > counts.(1));
  check bool "rank 1 beats rank 4" true (counts.(1) > counts.(4))

let test_zipf_invalid () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~skew:1.0))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create [ "name"; "count" ] in
  Table.add_row t [ "alpha"; "10" ];
  Table.add_row t [ "b"; "2" ];
  let rendered = Table.render t in
  check bool "has header" true (String.length rendered > 0);
  let lines = String.split_on_char '\n' rendered in
  check int "rows + header + rule" 4 (List.length lines);
  (* all lines are equally wide or less; header then rule *)
  (match lines with
  | _header :: rule :: _ -> check bool "rule is dashes" true (String.for_all (fun c -> c = '-' || c = ' ') rule)
  | _ -> Alcotest.fail "missing lines")

let test_table_width_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad row" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only" ])

let test_table_row_count () =
  let t = Table.create [ "x" ] in
  check int "empty" 0 (Table.row_count t);
  Table.add_row t [ "1" ];
  check int "one" 1 (Table.row_count t)

(* ------------------------------------------------------------------ *)
(* Pretty *)

let tree = Pretty.Node ("root", [ Pretty.Node ("a", [ Pretty.Node ("a1", []) ]); Pretty.Node ("b", []) ])

let test_pretty_counts () =
  check int "size" 4 (Pretty.size tree);
  check int "depth" 2 (Pretty.depth tree);
  check int "leaf depth" 0 (Pretty.depth (Pretty.Node ("x", [])))

let test_pretty_render_ascii () =
  let s = Pretty.render_ascii tree in
  check string "ascii rendition" "root\n|-- a\n|   `-- a1\n`-- b" s

let test_pretty_render_unicode_lines () =
  let s = Pretty.render tree in
  check int "line count" 4 (List.length (String.split_on_char '\n' s))

(* ------------------------------------------------------------------ *)
(* Deadline *)

(* drive the clock by hand so deadline arithmetic is tested exactly *)
let with_clock t f =
  Deadline.set_clock (Some (fun () -> !t));
  Fun.protect ~finally:(fun () -> Deadline.set_clock None) f

let test_deadline_never () =
  check bool "never not expired" false (Deadline.expired Deadline.never);
  let t = ref 100.0 in
  with_clock t (fun () ->
      let d = Deadline.of_ms_opt None in
      t := infinity;
      check bool "of_ms_opt None never expires" false (Deadline.expired d))

let test_deadline_expiry () =
  let t = ref 100.0 in
  with_clock t (fun () ->
      let d = Deadline.of_ms_opt (Some 250) in
      check bool "fresh" false (Deadline.expired d);
      t := 100.2;
      check bool "not yet" false (Deadline.expired d);
      t := 100.25;
      check bool "on the dot" true (Deadline.expired d);
      t := 200.0;
      check bool "long past" true (Deadline.expired d))

let test_deadline_zero_budget () =
  let t = ref 7.0 in
  with_clock t (fun () ->
      check bool "0ms budget expires immediately" true
        (Deadline.expired (Deadline.of_ms_opt (Some 0))))

let test_deadline_monotonic_floor () =
  (* the wall clock stepping backwards must not resurrect a deadline *)
  let a = Deadline.now () in
  let b = Deadline.now () in
  check bool "now never decreases" true (b >= a)

(* ------------------------------------------------------------------ *)
(* Faults *)

let with_faults spec f =
  match Faults.configure spec with
  | Error e -> Alcotest.failf "configure %S: %s" spec e
  | Ok () -> Fun.protect ~finally:Faults.clear f

let test_faults_unarmed () =
  Faults.clear ();
  check bool "inactive" true (Faults.configured () = []);
  check bool "never fails" false (Faults.should_fail "persist.read");
  Faults.hit "persist.read";
  check int "no hits recorded unarmed" 0 (Faults.hits "persist.read")

let test_faults_fail_spec () =
  with_faults "persist.read:fail" (fun () ->
      check bool "active" true (Faults.configured () <> []);
      check bool "fires" true (Faults.should_fail "persist.read");
      check bool "fires again" true (Faults.should_fail "persist.read");
      check bool "other points untouched" false (Faults.should_fail "persist.write");
      check int "hits" 2 (Faults.hits "persist.read");
      check int "fired" 2 (Faults.fired "persist.read"))

let test_faults_once_spec () =
  with_faults "p:once" (fun () ->
      check bool "first fires" true (Faults.should_fail "p");
      check bool "second clean" false (Faults.should_fail "p");
      check bool "third clean" false (Faults.should_fail "p");
      check int "hits" 3 (Faults.hits "p");
      check int "fired once" 1 (Faults.fired "p"))

let test_faults_nth_spec () =
  with_faults "p:nth=3" (fun () ->
      check bool "1st clean" false (Faults.should_fail "p");
      check bool "2nd clean" false (Faults.should_fail "p");
      check bool "3rd fires" true (Faults.should_fail "p");
      check bool "4th clean" false (Faults.should_fail "p"))

let test_faults_prob_deterministic () =
  let run () =
    with_faults "p:p=0.5;seed=11" (fun () ->
        List.init 64 (fun _ -> Faults.should_fail "p"))
  in
  let a = run () and b = run () in
  check bool "same seed, same decisions" true (a = b);
  check bool "some fired" true (List.mem true a);
  check bool "some passed" true (List.mem false a)

let test_faults_hit_raises () =
  with_faults "p:fail" (fun () ->
      match Faults.hit "p" with
      | () -> Alcotest.fail "hit should raise"
      | exception Faults.Injected (point, _) -> check string "point" "p" point)

let test_faults_multi_and_configured () =
  with_faults "a:fail,b:nth=2" (fun () ->
      check bool "listed" true (Faults.configured () = [ "a", "fail"; "b", "nth=2" ]))

let test_faults_bad_spec () =
  (match Faults.configure "nonsense" with
  | Ok () -> Alcotest.fail "bad spec accepted"
  | Error _ -> ());
  check bool "bad spec disarms" true (Faults.configured () = []);
  match Faults.configure "p:p=1.5" with
  | Ok () -> Alcotest.fail "out-of-range probability accepted"
  | Error _ -> ()

let suites =
  [
    ( "util.arraylist",
      [
        Alcotest.test_case "empty" `Quick test_arraylist_empty;
        Alcotest.test_case "push/get" `Quick test_arraylist_push_get;
        Alcotest.test_case "set" `Quick test_arraylist_set;
        Alcotest.test_case "pop" `Quick test_arraylist_pop;
        Alcotest.test_case "bounds" `Quick test_arraylist_bounds;
        Alcotest.test_case "clear/reuse" `Quick test_arraylist_clear_reuse;
        Alcotest.test_case "iter/fold/map" `Quick test_arraylist_iter_fold_map;
        Alcotest.test_case "sort" `Quick test_arraylist_sort;
        Alcotest.test_case "make" `Quick test_arraylist_make;
      ] );
    ( "util.interner",
      [
        Alcotest.test_case "basics" `Quick test_interner_basics;
        Alcotest.test_case "find" `Quick test_interner_find;
        Alcotest.test_case "bad id" `Quick test_interner_bad_id;
        Alcotest.test_case "iter order" `Quick test_interner_iter_order;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "bounds" `Quick test_prng_bounds;
        Alcotest.test_case "float" `Quick test_prng_float;
        Alcotest.test_case "split" `Quick test_prng_split_independence;
        Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutation;
        Alcotest.test_case "sample" `Quick test_prng_sample;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "uniform" `Quick test_zipf_uniform;
        Alcotest.test_case "monotone" `Quick test_zipf_monotone;
        Alcotest.test_case "mass" `Quick test_zipf_mass_sums_to_one;
        Alcotest.test_case "sampling skew" `Quick test_zipf_sampling_skew;
        Alcotest.test_case "invalid" `Quick test_zipf_invalid;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        Alcotest.test_case "row count" `Quick test_table_row_count;
      ] );
    ( "util.pretty",
      [
        Alcotest.test_case "counts" `Quick test_pretty_counts;
        Alcotest.test_case "ascii" `Quick test_pretty_render_ascii;
        Alcotest.test_case "unicode lines" `Quick test_pretty_render_unicode_lines;
      ] );
    ( "util.deadline",
      [
        Alcotest.test_case "never" `Quick test_deadline_never;
        Alcotest.test_case "expiry" `Quick test_deadline_expiry;
        Alcotest.test_case "zero budget" `Quick test_deadline_zero_budget;
        Alcotest.test_case "monotonic" `Quick test_deadline_monotonic_floor;
      ] );
    ( "util.faults",
      [
        Alcotest.test_case "unarmed" `Quick test_faults_unarmed;
        Alcotest.test_case "fail" `Quick test_faults_fail_spec;
        Alcotest.test_case "once" `Quick test_faults_once_spec;
        Alcotest.test_case "nth" `Quick test_faults_nth_spec;
        Alcotest.test_case "probabilistic" `Quick test_faults_prob_deterministic;
        Alcotest.test_case "hit raises" `Quick test_faults_hit_raises;
        Alcotest.test_case "configured" `Quick test_faults_multi_and_configured;
        Alcotest.test_case "bad spec" `Quick test_faults_bad_spec;
      ] );
  ]
