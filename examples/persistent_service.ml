(* The demo's deployment story, end to end: build an indexed database once,
   persist it as a snapshot, reload it in a "fresh server process", and
   answer an HTTP request against it — all the pieces the original Apache +
   PHP + C++ deployment needed, from the public API.

   Run with: dune exec examples/persistent_service.exe *)

module Pipeline = Extract_snippet.Pipeline
module Corpus = Extract_snippet.Corpus
module Demo_server = Extract_server.Demo_server

let () =
  let snapshot_path = Filename.temp_file "extract_movies" ".snap" in

  (* 1. offline, once: generate + analyze + index + persist *)
  let db =
    Pipeline.build
      (Extract_store.Document.of_document (Extract_datagen.Movies.sized 40))
  in
  Pipeline.save_snapshot snapshot_path db;
  Printf.printf "persisted %s (%d bytes)\n" snapshot_path
    (let ic = open_in_bin snapshot_path in
     let n = in_channel_length ic in
     close_in ic;
     n);

  (* 2. "server restart": map the snapshot (no XML parsing, no index
     rebuild, no analysis: the stored one is adopted) *)
  let reloaded = Pipeline.load_snapshot snapshot_path in
  Printf.printf "reloaded: %d nodes, %d index tokens\n"
    (Extract_store.Document.node_count (Pipeline.document reloaded))
    (Extract_store.Inverted_index.token_count (Pipeline.index reloaded));

  (* 3. serve one real HTTP request against it *)
  let server = Demo_server.create (Corpus.of_list [ "movies", reloaded ]) in
  let listening = Demo_server.listen ~port:0 in
  let port = Demo_server.bound_port listening in
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let request = "GET /search?data=movies&q=drama+movie&bound=6 HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring client request 0 (String.length request));
  Demo_server.serve_once server listening;
  let buf = Bytes.create 65536 in
  let n = Unix.read client buf 0 65536 in
  let response = Bytes.sub_string buf 0 n in
  Unix.close client;
  Unix.close listening;
  Sys.remove snapshot_path;

  (match String.index_opt response '\r' with
  | Some i -> Printf.printf "HTTP response: %s\n" (String.sub response 0 i)
  | None -> ());
  let has_snippets =
    let needle = "class=\"snippet\"" in
    let rec find i =
      i + String.length needle <= String.length response
      && (String.sub response i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  Printf.printf "page contains snippets: %b\n" has_snippets
