module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry

let appends_total =
  Registry.counter ~help:"Journal records appended" "extract_journal_appends_total"

let append_bytes_total =
  Registry.counter ~help:"Bytes appended to journals" "extract_journal_append_bytes_total"

let resets_total =
  Registry.counter ~help:"Journal resets (checkpoint rewrites)" "extract_journal_resets_total"

type record =
  | Add_doc of { name : string; xml : string }
  | Remove_doc of string
  | Checkpoint of int

(* 8 raw bytes, not a Codec string: the header is fixed-size so a torn
   write inside it is detectable by length alone. *)
let header = "XTRJNL01"

let header_len = String.length header

(* frame = 4-byte little-endian payload length, 16-byte raw MD5 of the
   payload, payload bytes. The fixed-size prefix makes torn-tail
   detection a length check, no parsing. *)
let frame_overhead = 4 + 16

let tag_add = 1

let tag_remove = 2

let tag_checkpoint = 3

let encode_record record =
  let w = Codec.writer () in
  (match record with
  | Add_doc { name; xml } ->
    Codec.write_varint w tag_add;
    Codec.write_string w name;
    Codec.write_string w xml
  | Remove_doc name ->
    Codec.write_varint w tag_remove;
    Codec.write_string w name
  | Checkpoint generation ->
    Codec.write_varint w tag_checkpoint;
    Codec.write_varint w generation);
  Codec.contents w

let decode_record payload =
  let r = Codec.reader payload in
  let record =
    match Codec.read_varint r with
    | t when t = tag_add ->
      let name = Codec.read_string r in
      let xml = Codec.read_string r in
      Add_doc { name; xml }
    | t when t = tag_remove -> Remove_doc (Codec.read_string r)
    | t when t = tag_checkpoint -> Checkpoint (Codec.read_varint r)
    | t -> raise (Codec.Corrupt (Printf.sprintf "unknown journal record tag %d" t))
  in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes in journal record");
  record

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (frame_overhead + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string (Digest.string payload) 0 b 4 16;
  Bytes.blit_string payload 0 b frame_overhead len;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)

type writer = {
  fd : Unix.file_descr;
  path : string;
}

let open_append path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  match
    let size = (Unix.fstat fd).Unix.st_size in
    if size = 0 then begin
      Durable.write_all fd header;
      Unix.fsync fd
    end
    else ignore (Unix.lseek fd 0 Unix.SEEK_END)
  with
  | () -> { fd; path }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let append w record =
  Faults.hit "journal.append";
  let payload = encode_record record in
  let data = frame payload in
  if Faults.should_fail "journal.torn" then begin
    (* torn-write injection: half the frame reaches the disk, then the
       power goes. Recovery must discard exactly this tail. *)
    Durable.write_all w.fd (String.sub data 0 (max 1 (String.length data / 2)));
    Unix.fsync w.fd;
    Unix._exit Faults.crash_exit_code
  end;
  Durable.write_all w.fd data;
  Unix.fsync w.fd;
  Registry.incr appends_total;
  Registry.add append_bytes_total (String.length data)

let close w = Unix.close w.fd

(* ------------------------------------------------------------------ *)
(* Reading / recovery                                                  *)

type tail =
  | Complete
  | Torn of {
      offset : int;
      reason : string;
    }

let read_bytes path =
  let ic = open_in_bin path in
  let data =
    try really_input_string ic (in_channel_length ic)
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  data

let decode_all data =
  let len = String.length data in
  if len = 0 then [], Complete
  else if len < header_len then
    [], Torn { offset = 0; reason = "torn header (shorter than the magic)" }
  else if String.sub data 0 header_len <> header then
    raise (Codec.Corrupt (Printf.sprintf "bad journal magic %S" (String.sub data 0 header_len)))
  else begin
    let records = ref [] in
    let pos = ref header_len in
    let tail = ref Complete in
    (try
       while !pos < len do
         let remaining = len - !pos in
         if remaining < frame_overhead then begin
           tail := Torn { offset = !pos; reason = "torn record frame (incomplete prefix)" };
           raise Exit
         end;
         let plen = Int32.to_int (String.get_int32_le data !pos) in
         (* a negative length can never come from a torn write of our own
            frames (the writer never emits one), only from damage *)
         if plen < 0 then
           raise (Codec.Corrupt (Printf.sprintf "absurd journal record length %d" plen));
         if remaining < frame_overhead + plen then begin
           tail :=
             Torn
               {
                 offset = !pos;
                 reason =
                   Printf.sprintf "torn record payload (%d of %d bytes)"
                     (remaining - frame_overhead) plen;
               };
           raise Exit
         end;
         let digest = String.sub data (!pos + 4) 16 in
         let payload = String.sub data (!pos + frame_overhead) plen in
         if Digest.string payload <> digest then
           raise (Codec.Corrupt "journal record checksum mismatch");
         (* the checksum passed, so a short read inside the payload is
            structural damage, not a torn write *)
         let record =
           try decode_record payload
           with Codec.Truncated msg -> raise (Codec.Corrupt ("journal record: " ^ msg))
         in
         records := record :: !records;
         pos := !pos + frame_overhead + plen
       done
     with Exit -> ());
    List.rev !records, !tail
  end

let read path =
  if Faults.should_fail "journal.read" then
    raise (Codec.Corrupt "injected fault: journal.read");
  if Sys.file_exists path then decode_all (read_bytes path) else [], Complete

let truncate path offset =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd offset;
      Unix.fsync fd)

let reset path records =
  Faults.hit "journal.reset";
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  List.iter (fun r -> Buffer.add_string buf (frame (encode_record r))) records;
  Durable.replace_atomic ~path (Buffer.contents buf);
  Registry.incr resets_total

let last_checkpoint records =
  List.fold_left
    (fun acc r -> match r with Checkpoint g -> Some g | Add_doc _ | Remove_doc _ -> acc)
    None records

let records_after_checkpoint records =
  let rec strip kept = function
    | [] -> List.rev kept
    | Checkpoint _ :: rest -> strip [] rest
    | r :: rest -> strip (r :: kept) rest
  in
  strip [] records
