type t = {
  results : int;
  frequency : (Feature.t, int) Hashtbl.t;
}

let make analyses =
  let frequency = Hashtbl.create 64 in
  List.iter
    (fun analysis ->
      List.iter
        (fun (f, _) ->
          Hashtbl.replace frequency f (1 + Option.value ~default:0 (Hashtbl.find_opt frequency f)))
        (Feature.all analysis))
    analyses;
  { results = List.length analyses; frequency }

let result_frequency t f = Option.value ~default:0 (Hashtbl.find_opt t.frequency f)

let distinctiveness t f =
  let rf = result_frequency t f in
  log (float_of_int (1 + t.results) /. float_of_int (1 + rf)) +. 1.0

let compare_feature (a : Feature.t) (b : Feature.t) =
  let c = String.compare a.Feature.entity b.Feature.entity in
  if c <> 0 then c
  else
    let c = String.compare a.Feature.attribute b.Feature.attribute in
    if c <> 0 then c else String.compare a.Feature.value b.Feature.value

(* deterministic readout of the (unordered) frequency table: most
   distinctive first, ties by feature triplet *)
let report t =
  Hashtbl.fold (fun f rf acc -> (f, rf, distinctiveness t f) :: acc) t.frequency []
  |> List.sort (fun (fa, _, da) (fb, _, db) ->
         let c = Float.compare db da in
         if c <> 0 then c else compare_feature fa fb)

let apply t ilist =
  Ilist.reorder_features
    ~score:(fun f stats -> stats.Feature.score *. distinctiveness t f)
    ilist
