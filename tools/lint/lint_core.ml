(* The source-convention rules: polymorphic compare, partial functions,
   raise discipline, missing interfaces and unused exports. The first
   four keep their diagnostics byte-identical to the single-file linter
   they grew out of, so the cram self-tests pin the exact messages. *)

open Lint_rule
module S = Lint_source

let strip_stdlib tok =
  let prefix = "Stdlib." in
  if String.length tok > String.length prefix && String.sub tok 0 (String.length prefix) = prefix
  then String.sub tok (String.length prefix) (String.length tok - String.length prefix)
  else tok

let base_name path_token =
  match List.rev (String.split_on_char '.' path_token) with
  | base :: _ -> base
  | [] -> path_token

(* ------------------------------------------------------------------ *)

let poly_compare =
  {
    name = "poly-compare";
    synopsis = "bare polymorphic compare (or Stdlib.compare)";
    doc =
      "Tree nodes, Dewey labels and posting entries must use a dedicated\n\
       comparator (Int.compare, String.compare, Dewey.compare_nodes, ...):\n\
       the polymorphic version is slow on the hot paths and silently wrong\n\
       on abstract or cyclic types.\n\n\
       Definition sites (let compare, val compare) are exempt: defining a\n\
       dedicated comparator named compare is the fix, not the offence.";
    run =
      (fun ctx ->
        List.concat_map
          (fun fu ->
            let acc, add = collector fu in
            let tokens = fu.lexed.S.tokens in
            Array.iteri
              (fun k tok ->
                if strip_stdlib tok.S.text = "compare" then begin
                  let definition_site =
                    k > 0
                    && List.mem tokens.(k - 1).S.text
                         [ "let"; "rec"; "and"; "val"; "method"; "external" ]
                  in
                  if not definition_site then
                    add tok.S.line "poly-compare"
                      "polymorphic compare; use Int.compare / String.compare / a dedicated \
                       comparator"
                end)
              tokens;
            !acc)
          ctx.mls);
  }

let partial_functions =
  [
    "List.hd", "List.hd raises on []; match the list or use a non-empty invariant";
    "List.tl", "List.tl raises on []; match the list instead";
    "List.nth", "List.nth raises out of range; use List.nth_opt";
    "Option.get", "Option.get raises on None; match the option";
    "Hashtbl.find", "Hashtbl.find raises Not_found; use Hashtbl.find_opt with explicit handling";
  ]

let partial_fn =
  {
    name = "partial-fn";
    synopsis = "partial stdlib functions that raise on representable inputs";
    doc =
      "List.hd, List.tl, List.nth, Option.get and exception-raising\n\
       Hashtbl.find raise on perfectly representable inputs. Use the _opt\n\
       forms (or a match on the structure) with explicit handling.";
    run =
      (fun ctx ->
        List.concat_map
          (fun fu ->
            let acc, add = collector fu in
            Array.iter
              (fun tok ->
                match List.assoc_opt (strip_stdlib tok.S.text) partial_functions with
                | Some message -> add tok.S.line "partial-fn" message
                | None -> ())
              fu.lexed.S.tokens;
            !acc)
          ctx.mls);
  }

let raise_discipline =
  {
    name = "raise-discipline";
    synopsis = "raise of an exception not declared in a library .mli; failwith";
    doc =
      "Every raise must use an exception declared in some library .mli\n\
       (the registry is built by scanning the tree: Parse_error from\n\
       lib/xml/error.mli, Codec.Corrupt, Check.Violation, ...) or a\n\
       sanctioned stdlib exception (Invalid_argument, Not_found, Exit,\n\
       End_of_file); re-raising a bound exception variable is fine.\n\
       failwith (anonymous Failure) is banned.";
    run =
      (fun ctx ->
        List.concat_map
          (fun fu ->
            let acc, add = collector fu in
            let tokens = fu.lexed.S.tokens in
            let n = Array.length tokens in
            Array.iteri
              (fun k tok ->
                let text = strip_stdlib tok.S.text in
                if text = "failwith" then
                  add tok.S.line "raise-discipline"
                    "failwith raises the anonymous Failure; use invalid_arg or a declared error \
                     type";
                if text = "raise" || text = "raise_notrace" then begin
                  (* the raised expression: skip open parens to its head token *)
                  let j = ref (k + 1) in
                  while !j < n && tokens.(!j).S.text = "(" do incr j done;
                  if !j >= n then add tok.S.line "raise-discipline" "dangling raise"
                  else begin
                    let head = strip_stdlib tokens.(!j).S.text in
                    if head = "" then add tok.S.line "raise-discipline" "dangling raise"
                    else if S.is_upper head.[0] then begin
                      let base = base_name head in
                      if not (Hashtbl.mem ctx.declared base) then
                        add tok.S.line "raise-discipline"
                          (Printf.sprintf
                             "raise of undeclared exception %s; declare it in a library .mli or \
                              use a sanctioned error type"
                             head)
                    end
                    (* lowercase head: re-raising a bound exception is fine *)
                  end
                end)
              tokens;
            !acc)
          ctx.mls);
  }

let is_lib_module path =
  (* lib/**/x.ml, under any of the scanned roots *)
  String.length path > 4
  && (String.sub path 0 4 = "lib/"
     ||
     let rec has_sub s sub i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || has_sub s sub (i + 1))
     in
     has_sub path "/lib/" 0)

let missing_mli =
  {
    name = "missing-mli";
    synopsis = "library module without a .mli interface";
    doc =
      "Every library module lib/**/x.ml must ship an x.mli interface:\n\
       interfaces are where the exception registry, the documented locking\n\
       story and the abstraction boundaries live. Executable directories\n\
       (bin/, bench/, tools/) are exempt.";
    run =
      (fun ctx ->
        List.filter_map
          (fun fu ->
            if is_lib_module fu.path && not (Sys.file_exists (fu.path ^ "i")) then
              Some
                {
                  file = fu.path;
                  vline = 1;
                  rule = "missing-mli";
                  message = "library module has no .mli interface";
                }
            else None)
          ctx.mls);
  }

(* ------------------------------------------------------------------ *)
(* unused-export                                                       *)

(* The vals an interface exports, as (submodule path, name, line): a val
   inside [module X : sig ... end] carries [["X"]]; one inside any other
   signature (a module type) exports nothing. *)
let exported_vals (tokens : S.token array) =
  let n = Array.length tokens in
  let rec go k stack acc =
    if k >= n then List.rev acc
    else
      match tokens.(k).S.text with
      | "sig" ->
        let sub =
          if k >= 3 && tokens.(k - 1).S.text = ":" && tokens.(k - 3).S.text = "module" then
            Some tokens.(k - 2).S.text
          else None
        in
        go (k + 1) (sub :: stack) acc
      | "end" -> go (k + 1) (match stack with [] -> [] | _ :: outer -> outer) acc
      | "val" when k + 1 < n && List.for_all Option.is_some stack ->
        let path = List.rev (List.filter_map Fun.id stack) in
        go (k + 1) stack ((path, tokens.(k + 1).S.text, tokens.(k).S.line) :: acc)
      | _ -> go (k + 1) stack acc
  in
  go 0 [] []

let is_module_path tok = tok <> "" && S.is_upper tok.[0]

let last_segment tok =
  match String.rindex_opt tok '.' with
  | Some i -> String.sub tok (i + 1) (String.length tok - i - 1)
  | None -> tok

(* Every suffix of two or more segments: [A.B.c] gives "A.B.c", "B.c". *)
let rec suffix_keys = function
  | [] | [ _ ] -> []
  | _ :: rest as segs -> String.concat "." segs :: suffix_keys rest

(* The keys one file references: each suffix of a qualified path, with a
   [module X = P] alias expanded to P, and "M.v" for every bare [v] when
   the file opens M ([open M], [let open M in], [M.( ... )]). *)
let references (fu : file_unit) =
  let tokens = fu.lexed.S.tokens in
  let n = Array.length tokens in
  let aliases = Hashtbl.create 8 in
  let expand tok =
    match String.split_on_char '.' tok with
    | head :: rest as segs -> (
      match Hashtbl.find_opt aliases head with Some target -> target @ rest | None -> segs)
    | [] -> []
  in
  let opens = ref [] in
  let bare = Hashtbl.create 256 in
  let keys = Hashtbl.create 256 in
  let add_keys segs = List.iter (fun key -> Hashtbl.replace keys key ()) (suffix_keys segs) in
  let adjacent_open k =
    (* [M.(], [M.[], [M.{]: the bracket sits one column past the path *)
    k + 1 < n
    && List.mem tokens.(k + 1).S.text [ "("; "["; "{"; "[|" ]
    && tokens.(k + 1).S.line = tokens.(k).S.line
    && tokens.(k + 1).S.col = tokens.(k).S.col + String.length tokens.(k).S.text + 1
  in
  Array.iteri
    (fun k (tok : S.token) ->
      let text = tok.S.text in
      if text = "module" && k + 3 < n && tokens.(k + 2).S.text = "="
         && is_module_path tokens.(k + 3).S.text
      then Hashtbl.replace aliases tokens.(k + 1).S.text (expand tokens.(k + 3).S.text)
      else if text = "open" && k + 1 < n && is_module_path tokens.(k + 1).S.text then
        opens := expand tokens.(k + 1).S.text :: !opens
      else if is_module_path text then begin
        if not (is_module_path (last_segment text)) then add_keys (expand text)
        else if adjacent_open k then opens := expand text :: !opens
      end
      else if text <> "" && S.is_ident_start text.[0] then Hashtbl.replace bare text ())
    tokens;
  List.iter
    (fun segs -> Hashtbl.iter (fun v () -> add_keys (segs @ [ v ])) bare)
    !opens;
  keys

let unused_export =
  {
    name = "unused-export";
    synopsis = "library val that no scanned file outside its own module references";
    doc =
      "Every val in a library interface (lib/**/*.mli, including one inside\n\
       a submodule signature such as Document.Flat) must be referenced by\n\
       some scanned file outside its own .ml/.mli: as a path ending M.v or\n\
       M.Sub.v (also through a module X = ...M alias), or as a bare v in a\n\
       file that opens M (open M, let open M in, M.( ... )). An export that\n\
       only its own module uses belongs out of the interface, and one that\n\
       nothing uses belongs deleted: the libraries' -w +32 then points at\n\
       any body left without a caller.\n\n\
       The scanned roots decide what counts as a caller. dune build @lint\n\
       passes lib bin bench examples tools perfbench and not test/, so an\n\
       export that only a test calls is reported too. A deliberate test\n\
       seam carries (* lint: allow unused-export *) on or above its val,\n\
       with a doc comment naming the test that relies on it.\n\n\
       References are matched by module name, so two libraries' modules of\n\
       the same name (Extract_obs.Explain, Extract_snippet.Explain) share\n\
       theirs: the rule may miss a dead export, never report a live one.";
    run =
      (fun ctx ->
        let index = Hashtbl.create 4096 in
        List.iter
          (fun fu -> Hashtbl.iter (fun key () -> Hashtbl.add index key fu.path) (references fu))
          (ctx.mls @ ctx.mlis);
        List.concat_map
          (fun fu ->
            if not (is_lib_module fu.path) then []
            else begin
              let own = [ fu.path; Filename.remove_extension fu.path ^ ".ml" ] in
              let acc, add = collector fu in
              List.iter
                (fun (path, name, line) ->
                  let qualified = String.concat "." ((S.module_name fu.path :: path) @ [ name ]) in
                  let outside f = not (List.mem f own) in
                  if not (List.exists outside (Hashtbl.find_all index qualified)) then
                    add line "unused-export"
                      (Printf.sprintf
                         "%s is referenced by no scanned file outside its module; delete it, drop \
                          it from the .mli, or allow it as a test seam"
                         qualified))
                (exported_vals fu.lexed.S.tokens);
              !acc
            end)
          ctx.mlis);
  }
