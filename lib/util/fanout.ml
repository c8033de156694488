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

(* One domain at a time, so that when a spawn fails (a fault, or the
   runtime's cap on live domains) the ones already running are known
   and joined before the failure reaches the caller. Their own
   exceptions are dropped: the failed spawn is the one reported. *)
let spawn_all jobs =
  let rec go spawned = function
    | [] -> List.rev spawned
    | job :: rest -> (
      match
        Faults.hit "fanout.spawn";
        Domain.spawn job
      with
      | d -> go (d :: spawned) rest
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        List.iter (fun d -> try Domain.join d with _ -> ()) (List.rev spawned);
        Printexc.raise_with_backtrace e bt)
  in
  go [] jobs

let run share jobs = finish share (spawn_all jobs)
