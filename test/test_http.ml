(* The transport's buffered request reader against the byte-wise one it
   replaced (Http_reference): fed the same bytes in any read sizes, both
   must give the same outcome for every request of a stream — request
   lines, header records, bodies and errors. *)

module Http = Extract_server.Http

(* How a stream ends once its bytes are read. *)
type ending = Closed | Reset | Stalled

(* A refill function over [data] handing out at most [sizes.(k)] bytes
   on its k-th read (cycling), then ending as [ending] says. *)
let source ~ending ~sizes data =
  let off = ref 0 in
  let reads = ref 0 in
  fun buf pos len ->
    if !off >= String.length data then
      match ending with
      | Closed -> 0
      | Reset -> raise (Unix.Unix_error (Unix.ECONNRESET, "read", ""))
      | Stalled -> raise (Unix.Unix_error (Unix.EAGAIN, "read", ""))
    else begin
      let size = sizes.(!reads mod Array.length sizes) in
      incr reads;
      let n = min len (min size (String.length data - !off)) in
      Bytes.blit_string data !off buf pos n;
      off := !off + n;
      n
    end

(* Read requests until one ends the stream, as the keep-alive loop does
   whatever the Connection header says. *)
let outcomes next =
  let rec go acc n =
    match next () with
    | Http.Request q as o
      when (not q.Http.headers.Http.headers_eof) && (not q.Http.truncated) && n < 64 ->
      go (o :: acc) (n + 1)
    | o -> List.rev (o :: acc)
  in
  go [] 0

let buffered ~max_header_bytes ~ending ~sizes data =
  let r = Http.reader (source ~ending ~sizes data) in
  outcomes (fun () -> Http.read_request ~max_header_bytes r)

let bytewise ~max_header_bytes ~ending data =
  let read = source ~ending ~sizes:[| 1 |] data in
  outcomes (fun () -> Http_reference.read_request ~max_header_bytes read)

let show_outcome = function
  | Http.Eof -> "Eof"
  | Http.Timed_out -> "Timed_out"
  | Http.Rejected { http11; response } ->
    Printf.sprintf "Rejected(%b, %d %S)" http11 response.Http.status response.Http.body
  | Http.Request q ->
    let h = q.Http.headers in
    Printf.sprintf "Request(%s %S %b [%s] %s eof=%b body=%S truncated=%b)"
      (match q.Http.meth with Http.Get -> "GET" | Http.Post -> "POST")
      q.Http.target q.Http.http11
      (String.concat "," h.Http.connection)
      (match h.Http.content_length with None -> "-" | Some n -> string_of_int n)
      h.Http.headers_eof q.Http.body q.Http.truncated

let show_outcomes l = String.concat "; " (List.map show_outcome l)

(* ------------------------------------------------------------------ *)
(* Inputs *)

let crlf = "\r\n"

(* A well-formed request; [pad] lengthens its target. *)
let request ?(pad = 0) ~post ~http11 ~eol ~headers ~body () =
  let target = "/search?data=retail&q=store+texas" ^ String.make pad 'a' in
  let line =
    Printf.sprintf "%s %s %s" (if post then "POST" else "GET") target
      (if http11 then "HTTP/1.1" else "HTTP/1.0")
  in
  let headers =
    if body = "" then headers
    else headers @ [ "Content-Length", string_of_int (String.length body) ]
  in
  line ^ eol
  ^ String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ eol) headers)
  ^ eol ^ body

(* The bytes of a header block before its final LF: what
   [max_header_bytes] bounds. *)
let header_block_bytes req =
  let line_end = String.index req '\n' in
  let rec blank i =
    match String.index_from_opt req i '\n' with
    | None -> String.length req - line_end - 1
    | Some j ->
      let l = String.sub req i (j - i) in
      if l = "" || l = "\r" then j - line_end - 1 else blank (j + 1)
  in
  blank (line_end + 1)

let gen_request =
  let open QCheck.Gen in
  let* post = bool in
  let* http11 = bool in
  let* eol = frequency [ 4, return crlf; 1, return "\n" ] in
  let* connection =
    oneofl
      [
        [];
        [ "Connection", "close" ];
        [ "Connection", "Keep-Alive, Upgrade" ];
        [ "conNection", " close , keep-alive " ];
        (* a CR inside a header line is dropped *)
        [ "Connection", "keep-\ralive" ];
      ]
  in
  let* filler = frequency [ 3, return 0; 1, int_range 1 200; 1, int_range 4000 9000 ] in
  (* a declared length that is invalid or over the 1 MiB cap *)
  let* bad_length =
    frequency
      [
        12, return [];
        1,
        oneofl
          [
            [ "Content-Length", "-1" ];
            [ "content-length", "1x" ];
            [ "Content-Length", "2000000" ];
          ];
      ]
  in
  let headers =
    [ "Host", "127.0.0.1" ] @ connection @ bad_length
    @ if filler = 0 then [] else [ "X-Filler", String.make filler 'x' ]
  in
  let* body =
    frequency
      [
        3, return "";
        2, map (fun n -> String.make n 'b') (int_range 1 64);
        1, map (fun n -> String.make n 'c') (int_range 4000 9000);
      ]
  in
  let body = if post || body = "" then body else String.sub body 0 (min 8 (String.length body)) in
  (* now and then a request line of 8,190 to 8,199 content bytes,
     around the 8,192 bound *)
  let* pad =
    frequency
      [ 6, return 0; 1, map (fun d -> 8192 - 44 + d) (int_range (-4) 4) ]
  in
  return (request ~pad ~post ~http11 ~eol ~headers ~body ())

(* One mutation at a random offset: a flipped byte, a truncation, or an
   inserted CR, LF or NUL. *)
let mutate s =
  let open QCheck.Gen in
  let n = String.length s in
  let* at = int_bound (max 0 (n - 1)) in
  let* op = int_bound 4 in
  match op with
  | 0 ->
    let* mask = int_range 1 255 in
    return (String.mapi (fun j c -> if j = at then Char.chr (Char.code c lxor mask) else c) s)
  | 1 -> return (String.sub s 0 at)
  | _ ->
    let* c = oneofl [ "\r"; "\n"; "\000" ] in
    return (String.sub s 0 at ^ c ^ String.sub s at (n - at))

type case = {
  data : string;
  max_header_bytes : int;
  sizes : int array;
  ending : ending;
}

let gen_case =
  let open QCheck.Gen in
  let* reqs = list_size (int_range 1 4) gen_request in
  let* mutations = frequency [ 2, return 0; 2, return 1; 1, int_range 2 4 ] in
  let rec apply k s = if k = 0 then return s else mutate s >>= apply (k - 1) in
  let* data = apply mutations (String.concat "" reqs) in
  (* the bound at, just under or just over the first request's block, or
     the default *)
  let block = header_block_bytes (List.hd reqs) in
  let* max_header_bytes =
    frequency [ 2, return 32_768; 3, map (fun d -> max 1 (block + d)) (int_range (-2) 2) ]
  in
  let* sizes =
    array_size (int_range 1 6)
      (frequency [ 2, return 1; 3, int_range 1 16; 3, int_range 1 8192 ])
  in
  let* ending = frequency [ 4, return Closed; 1, return Reset; 1, return Stalled ] in
  return { data; max_header_bytes; sizes; ending }

let show_case c =
  Printf.sprintf "max_header_bytes=%d sizes=[%s] ending=%s data=%S" c.max_header_bytes
    (String.concat ";" (Array.to_list (Array.map string_of_int c.sizes)))
    (match c.ending with Closed -> "closed" | Reset -> "reset" | Stalled -> "stalled")
    c.data

let prop_same_outcomes =
  QCheck.Test.make ~name:"same outcomes as the byte-wise reader" ~count:1000
    (QCheck.make ~print:show_case gen_case)
    (fun c ->
      let expected = bytewise ~max_header_bytes:c.max_header_bytes ~ending:c.ending c.data in
      let got =
        buffered ~max_header_bytes:c.max_header_bytes ~ending:c.ending ~sizes:c.sizes c.data
      in
      expected = got
      || QCheck.Test.fail_reportf "byte-wise: %s\nbuffered: %s" (show_outcomes expected)
           (show_outcomes got))

(* Every fixed read size from 1 byte to past the buffer over one
   pipelined stream: a POST whose body ends inside a later read, a GET
   with a declared body, a bare-LF GET and a final request cut short. *)
let test_every_read_size () =
  let stream =
    request ~post:true ~http11:true ~eol:crlf ~headers:[ "Host", "x" ] ~body:"<a>one</a>" ()
    ^ request ~post:false ~http11:true ~eol:crlf ~headers:[] ~body:"ignored" ()
    ^ request ~post:false ~http11:false ~eol:"\n" ~headers:[ "Connection", "keep-alive" ]
        ~body:"" ()
    ^ "GET /cut HTTP/1.1\r\nHost: "
  in
  let expected = bytewise ~max_header_bytes:32_768 ~ending:Closed stream in
  Alcotest.(check int) "four outcomes" 4 (List.length expected);
  for size = 1 to 4200 do
    let got = buffered ~max_header_bytes:32_768 ~ending:Closed ~sizes:[| size |] stream in
    if expected <> got then
      Alcotest.failf "read size %d: %s, expected %s" size (show_outcomes got)
        (show_outcomes expected)
  done

(* A stream that ends, resets or stalls inside a header block that has
   declared a body: the reader must not take the bytes it already
   scanned for the body. *)
let test_ends_inside_headers () =
  List.iter
    (fun (ending, data) ->
      let expected = bytewise ~max_header_bytes:32_768 ~ending data in
      for size = 1 to 64 do
        let got = buffered ~max_header_bytes:32_768 ~ending ~sizes:[| size |] data in
        if expected <> got then
          Alcotest.failf "read size %d over %S: %s, expected %s" size data (show_outcomes got)
            (show_outcomes expected)
      done)
    (List.concat_map
       (fun data -> List.map (fun ending -> ending, data) [ Closed; Reset; Stalled ])
       [
         "GET / HTTP/1.1\r\nContent-Length: 8\r\nHost: 127.0.0.1";
         "POST /admin/add?name=a HTTP/1.1\r\nContent-Length: 8\r\nHost: 127.0.0.1";
       ])

let suites =
  [
    ( "http.reader",
      [
        Alcotest.test_case "every read size, one stream" `Quick test_every_read_size;
        Alcotest.test_case "stream ends inside the headers" `Quick test_ends_inside_headers;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x4774 |]) prop_same_outcomes;
      ] );
  ]
