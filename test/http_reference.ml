(* The tests' reference request reader: the transport's reader as it was
   before it read through a per-connection buffer, one read per byte of
   the request line and header block. Nothing that ships reads this way
   any more, so the byte-wise loop lives here, beside the property that
   holds [Http.read_request] to it: under any read sizes, both must give
   the same outcome for every request of a stream. It reads through the
   same refill function as [Http.reader] ([read buf off len], 0 at end of
   stream, [Unix.Unix_error] for a timeout or a reset). *)

module Http = Extract_server.Http

let max_request_line = 8192

let max_body_bytes = 1_048_576

type read_outcome =
  | Line of string
  | Eof
  | Timed_out
  | Too_long
  | Bad_cr

let read_request_line read =
  (* byte-wise up to the first line terminator *)
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec loop n =
    if n >= max_request_line then Too_long
    else if read byte 0 1 <> 1 then Eof
    else begin
      match Bytes.get byte 0 with
      | '\n' -> Line (Buffer.contents buf)
      | '\r' ->
        (* CR is only valid as the first half of the CRLF terminator *)
        if read byte 0 1 <> 1 then Eof
        else if Bytes.get byte 0 = '\n' then Line (Buffer.contents buf)
        else Bad_cr
      | c ->
        Buffer.add_char buf c;
        loop (n + 1)
    end
  in
  try loop 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) -> Timed_out
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> Eof

type header_outcome =
  | Headers of Http.request_headers
  | Header_overflow
  | Header_timeout
  | Bad_content_length

let read_headers ~max_bytes read =
  let byte = Bytes.create 1 in
  let line = Buffer.create 64 in
  let connection = ref [] in
  let content_length = ref None in
  let bad_length = ref false in
  let lowercase_trim s = String.lowercase_ascii (String.trim s) in
  let process_line l =
    match String.index_opt l ':' with
    | None -> ()
    | Some i ->
      let name = lowercase_trim (String.sub l 0 i) in
      let value = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
      (match name with
      | "connection" ->
        connection :=
          !connection @ List.map lowercase_trim (String.split_on_char ',' value)
      | "content-length" -> begin
        match int_of_string_opt value with
        | Some n when n >= 0 -> content_length := Some n
        | Some _ | None -> bad_length := true
      end
      | _ -> ())
  in
  let finish eof =
    if !bad_length then Bad_content_length
    else
      Headers
        {
          Http.connection = !connection;
          content_length = !content_length;
          headers_eof = eof;
        }
  in
  let rec loop consumed =
    if consumed >= max_bytes then Header_overflow
    else if read byte 0 1 <> 1 then finish true
    else
      match Bytes.get byte 0 with
      | '\n' ->
        let l = Buffer.contents line in
        Buffer.clear line;
        if l = "" then finish false
        else begin
          process_line l;
          loop (consumed + 1)
        end
      | '\r' -> loop (consumed + 1) (* CRLF handled at '\n'; bare CR dropped *)
      | c ->
        Buffer.add_char line c;
        loop (consumed + 1)
  in
  try loop 0 with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
    Header_timeout
  | Unix.Unix_error (Unix.ECONNRESET, _, _) -> finish true

let drain_body ~length read =
  let chunk = Bytes.create 4096 in
  let rec loop remaining =
    if remaining <= 0 then `Drained
    else
      match read chunk 0 (min remaining (Bytes.length chunk)) with
      | 0 -> `Eof
      | n -> loop (remaining - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
        ->
        `Timeout
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
  in
  loop length

let read_body ~length read =
  if length = 0 then `Body ""
  else begin
    let buf = Bytes.create length in
    let rec loop off =
      if off >= length then `Body (Bytes.unsafe_to_string buf)
      else
        match read buf off (length - off) with
        | 0 -> `Eof
        | n -> loop (off + n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
          ->
          `Timeout
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof
    in
    loop 0
  end

(* The keep-alive loop's reading of one request, as it ran up to the
   handler call, with each answer it would write put as an outcome. *)
let read_request ~max_header_bytes read =
  let reject ?(http11 = false) status reason detail =
    Http.Rejected { http11; response = Http.error status reason detail }
  in
  match read_request_line read with
  | Eof -> Http.Eof
  | Timed_out -> Http.Timed_out
  | Too_long ->
    reject 400 "Bad Request"
      (Printf.sprintf "request line longer than %d bytes" max_request_line)
  | Bad_cr -> reject 400 "Bad Request" "bare CR in request line"
  | Line line -> begin
    match String.split_on_char ' ' line with
    | (("GET" | "POST") as meth_str) :: target :: rest -> begin
      let meth = if meth_str = "POST" then Http.Post else Http.Get in
      let http11 = List.mem "HTTP/1.1" rest in
      match read_headers ~max_bytes:max_header_bytes read with
      | Header_overflow ->
        reject ~http11 431 "Request Header Fields Too Large"
          (Printf.sprintf "headers longer than %d bytes" max_header_bytes)
      | Header_timeout ->
        reject ~http11 408 "Request Timeout" "headers not finished within the read timeout"
      | Bad_content_length -> reject ~http11 400 "Bad Request" "invalid Content-Length"
      | Headers h -> begin
        let body =
          match h.Http.content_length with
          | None | Some 0 -> `Body ""
          | Some n when n > max_body_bytes -> `Too_big
          | Some n ->
            if meth = Http.Post then read_body ~length:n read
            else begin
              match drain_body ~length:n read with
              | `Drained -> `Body ""
              | (`Eof | `Timeout) as r -> r
            end
        in
        let request body truncated =
          Http.Request { Http.meth; target; http11; headers = h; body; truncated }
        in
        match body with
        | `Too_big ->
          reject ~http11 413 "Payload Too Large"
            (Printf.sprintf "request body longer than %d bytes" max_body_bytes)
        | `Timeout ->
          reject ~http11 408 "Request Timeout" "request body not finished within the read timeout"
        | `Eof when meth = Http.Post ->
          reject ~http11 400 "Bad Request" "request body truncated (peer closed mid-body)"
        | `Eof -> request "" true
        | `Body s -> request s false
      end
    end
    | _ -> reject 400 "Bad Request" (Printf.sprintf "unsupported request %S" line)
  end
