let finish share spawned =
  let first = ref None in
  let note e =
    let bt = Printexc.get_raw_backtrace () in
    if Option.is_none !first then first := Some (e, bt)
  in
  (try share () with e -> note e);
  List.iter (fun d -> try Domain.join d with e -> note e) spawned;
  match !first with
  | None -> ()
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
