(* One query over every database of a corpus, ranked as one list: a
   Pipeline.run_merged with one segment per database, in name order,
   each hit tagged with its database's name. *)

module Corpus = Extract_snippet.Corpus
module Pipeline = Extract_snippet.Pipeline

let segments corpus =
  List.map
    (fun name ->
      {
        Pipeline.db = Option.get (Corpus.find corpus name);
        mask = None;
        source_of = (fun _ -> Some name);
        span = None;
      })
    (Corpus.names corpus)

let run ?bound ?limit ?deadline corpus query =
  Pipeline.run_merged ?bound ?limit ?deadline (segments corpus) query
