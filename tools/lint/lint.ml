(* extract-lint — the static-analysis driver for this repository's
   correctness conventions. Run via [dune build @lint] (see the root
   dune file) or directly: [extract-lint [OPTIONS] DIR ...].

   The framework is a rule registry (Lint_rule) over a shared lexical
   context: Lint_core carries the source-convention rules (poly-compare,
   partial-fn, raise-discipline, missing-mli, unused-export), Lint_domain
   the domain-safety analyzer (domain-safety, lock-pairing, lock-raise,
   stale-annotation) and the doc/CONCURRENCY.md generator.

   unused-export reports a lib/**/*.mli val that no file under the given
   roots references outside its own module, so the roots decide what
   counts as a caller: [dune build @lint] passes
   lib bin bench examples tools perfbench, not test. A test seam carries
   the per-site suppression below, with a doc comment naming its test.

   Options:
     --format=text|json   output format (default text)
     --list-rules         print every rule with its one-line synopsis
     --explain-rule RULE  print a rule's full documentation
     --concurrency-doc    print the shared-state catalogue as markdown
                          (the checked-in doc/CONCURRENCY.md)

   Exit codes (the contract CI and editors consume):
     0  clean — no violations
     1  violations found (text/json listing on stdout)
     2  usage error (unknown flag or rule; message on stderr)

   Per-site suppression: [(* lint: allow <rule> ... *)] on the offending
   line or the line above. *)

let rules : Lint_rule.rule list =
  [
    Lint_core.poly_compare;
    Lint_core.partial_fn;
    Lint_core.raise_discipline;
    Lint_core.missing_mli;
    Lint_core.unused_export;
    Lint_domain.domain_safety;
    Lint_domain.lock_pairing;
    Lint_domain.lock_raise;
    Lint_domain.stale_annotation;
  ]

let stdlib_exceptions = [ "Invalid_argument"; "Not_found"; "Exit"; "End_of_file" ]

(* [exception Name ...] declarations from interface files: the repo's
   sanctioned error types (lib/xml/error.mli's Parse_error, Codec.Corrupt,
   Check.Violation, ...). *)
let declared_exceptions (mlis : Lint_rule.file_unit list) =
  let declared = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace declared e ()) stdlib_exceptions;
  List.iter
    (fun (fu : Lint_rule.file_unit) ->
      let tokens = fu.lexed.Lint_source.tokens in
      Array.iteri
        (fun k (tok : Lint_source.token) ->
          if tok.text = "exception" && k + 1 < Array.length tokens then begin
            let name = tokens.(k + 1).Lint_source.text in
            if name <> "" && Lint_source.is_upper name.[0] then Hashtbl.replace declared name ()
          end)
        tokens)
    mlis;
  declared

let build_ctx roots : Lint_rule.ctx =
  let files =
    List.sort String.compare (List.fold_left (fun acc d -> Lint_source.walk d acc) [] roots)
  in
  let load path : Lint_rule.file_unit =
    { path; lexed = Lint_source.lex (Lint_source.read_file path) }
  in
  let mls = List.filter (fun f -> Filename.check_suffix f ".ml") files |> List.map load in
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") files |> List.map load in
  { mls; mlis; files_scanned = List.length files; declared = declared_exceptions mlis }

let usage () =
  prerr_endline
    "usage: extract-lint [--format=text|json] [--list-rules] [--explain-rule RULE] \
     [--concurrency-doc] [DIR ...]";
  exit 2

let () =
  let format = ref `Text in
  let mode = ref `Check in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--format=json" :: rest ->
      format := `Json;
      parse rest
    | "--format=text" :: rest ->
      format := `Text;
      parse rest
    | "--list-rules" :: rest ->
      mode := `List;
      parse rest
    | "--explain-rule" :: rule :: rest ->
      mode := `Explain rule;
      parse rest
    | "--concurrency-doc" :: rest ->
      mode := `Doc;
      parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "extract-lint: unknown option %s\n" arg;
      usage ()
    | dir :: rest ->
      roots := dir :: !roots;
      parse rest
  in
  (match Array.to_list Sys.argv with [] -> () | _ :: args -> parse args);
  let roots = match List.rev !roots with [] -> [ "lib"; "bin" ] | rs -> rs in
  match !mode with
  | `List ->
    List.iter (fun (r : Lint_rule.rule) -> Printf.printf "%-17s %s\n" r.name r.synopsis) rules
  | `Explain rule -> (
    match List.find_opt (fun (r : Lint_rule.rule) -> r.name = rule) rules with
    | Some r ->
      Printf.printf "%s — %s\n\n%s\n" r.name r.synopsis r.doc
    | None ->
      Printf.eprintf "extract-lint: unknown rule %s (try --list-rules)\n" rule;
      exit 2)
  | `Doc ->
    let ctx = build_ctx roots in
    print_string (Lint_domain.concurrency_doc ctx)
  | `Check ->
    let ctx = build_ctx roots in
    let violations =
      Lint_rule.sort (List.concat_map (fun (r : Lint_rule.rule) -> r.run ctx) rules)
    in
    (match !format with
    | `Text -> Lint_rule.render_text ~files_scanned:ctx.files_scanned violations
    | `Json -> Lint_rule.render_json ~files_scanned:ctx.files_scanned violations);
    if violations <> [] then exit 1
