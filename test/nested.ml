module Prng = Extract_util.Prng
module Gen = Extract_datagen.Gen

type config = {
  seed : int;
  top_sections : int;
  max_depth : int;
  fanout : int;
}

let default = { seed = 29; top_sections = 6; max_depth = 4; fanout = 3 }

let dtd_subset =
  "\n\
  \  <!ELEMENT report (section*)>\n\
  \  <!ELEMENT section (heading, pagecount, para*, section*)>\n\
  \  <!ELEMENT heading (#PCDATA)>\n\
  \  <!ELEMENT pagecount (#PCDATA)>\n\
  \  <!ELEMENT para (#PCDATA)>\n"

let heading_words =
  [|
    "overview"; "background"; "methods"; "results"; "analysis"; "discussion";
    "implementation"; "evaluation"; "architecture"; "experiments"; "conclusions";
    "appendix";
  |]

let para_sentences =
  [|
    "the measurements were repeated under identical settings";
    "each subsection refines the preceding analysis";
    "the data set is described in the appendix";
    "all timings are medians of five runs";
    "the schema permits arbitrarily nested sections";
  |]

let rec section rng cfg ~depth ~id_counter =
  let id = !id_counter in
  incr id_counter;
  let heading =
    Printf.sprintf "%s %d" (Prng.choose rng heading_words) id
  in
  let paras =
    List.init (Prng.int rng 3) (fun _ -> Gen.leaf "para" (Prng.choose rng para_sentences))
  in
  let subsections =
    if depth >= cfg.max_depth then []
    else
      List.init (Prng.int rng (cfg.fanout + 1)) (fun _ ->
          section rng cfg ~depth:(depth + 1) ~id_counter)
  in
  Gen.el "section"
    ((Gen.leaf "heading" heading
     :: Gen.leaf "pagecount" (string_of_int (Prng.int_in_range rng ~min:1 ~max:40))
     :: paras)
    @ subsections)

let generate cfg =
  let rng = Prng.create cfg.seed in
  let id_counter = ref 0 in
  let sections =
    List.init cfg.top_sections (fun _ -> section rng cfg ~depth:1 ~id_counter)
  in
  Gen.document ~dtd:dtd_subset (Gen.el "report" sections)

let sized ?(seed = 29) n =
  (* expected sections ≈ top × (1 + f/2 + (f/2)^2 + ...) with f/2 = 1.5 for
     the default fanout; scale the top-section count *)
  let top = max 1 (n / 8) in
  generate { default with seed; top_sections = top }
