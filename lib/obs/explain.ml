(* Ambient explain capture. The layers that know interesting per-query
   facts (posting-list sizes in Eval_ctx, stage timings and
   differentiator scores in Pipeline) sit below the layer that
   assembles the user-facing bundle, so they can't return explain data
   directly without widening every signature. Instead, a capture scope
   installs a domain-local accumulator; instrumented code calls
   [record], which is a no-op (one DLS read) outside a scope. Section
   thunks are forced immediately at record time — the values they close
   over are mutable pipeline state. *)

(* domain-local — frames live on the per-domain DLS stack below *)
type frame = { mutable sections : (string * Jsonv.t) list (* reversed *) }

(* a stack, so a capture nested inside another keeps sections
   separate *)
let frames_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let capturing () =
  match !(Domain.DLS.get frames_key) with
  | [] -> false
  | _ :: _ -> true

let record name mk =
  match !(Domain.DLS.get frames_key) with
  | [] -> ()
  | top :: _ -> top.sections <- (name, mk ()) :: top.sections

let with_capture f =
  let frames = Domain.DLS.get frames_key in
  let frame = { sections = [] } in
  frames := frame :: !frames;
  let pop () =
    match !frames with
    | top :: rest when top == frame -> frames := rest
    | _ -> ()
  in
  match f () with
  | x ->
    pop ();
    (x, List.rev frame.sections)
  | exception e ->
    pop ();
    raise e
