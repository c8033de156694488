exception Corrupt of string

exception Truncated of string

type writer = { buf : Buffer.t }

let writer () = { buf = Buffer.create 4096 }

let write_varint w n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  let rec loop n =
    if n < 0x80 then Buffer.add_char w.buf (Char.chr n)
    else begin
      Buffer.add_char w.buf (Char.chr (0x80 lor (n land 0x7F)));
      loop (n lsr 7)
    end
  in
  loop n

(* zig-zag: maps 0,-1,1,-2,... to 0,1,2,3,... *)
let write_int w n = write_varint w ((n lsl 1) lxor (n asr 62))

let write_string w s =
  write_varint w (String.length s);
  Buffer.add_string w.buf s

let write_bytes_raw w b =
  write_varint w (Bytes.length b);
  Buffer.add_bytes w.buf b

(* fixed-width native-endian word: the {!Snapshot} header's endianness
   probe — a varint is endian-agnostic, so it cannot detect a snapshot
   written on a foreign-endian machine, but a raw word can *)
let write_fixed64 w v = Buffer.add_int64_ne w.buf v

let contents w = Buffer.contents w.buf

type reader = {
  data : string;
  mutable pos : int;
}

let reader data = { data; pos = 0 }

let byte r =
  if r.pos >= String.length r.data then raise (Truncated "unexpected end of input");
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_varint r =
  let rec loop shift acc =
    if shift > 62 then raise (Corrupt "varint too long");
    let b = byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let read_int r =
  let z = read_varint r in
  (z lsr 1) lxor (- (z land 1))

let read_string r =
  let n = read_varint r in
  if n < 0 || n > String.length r.data - r.pos then raise (Truncated "string overruns input");
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* A count that sizes an allocation: every element it counts takes at
   least one of the bytes left, so a larger count is damage, and is
   refused before anything is allocated for it. *)
let read_count r =
  let n = read_varint r in
  if n < 0 || n > String.length r.data - r.pos then
    raise
      (Corrupt
         (Printf.sprintf "count %d exceeds the %d bytes left" n (String.length r.data - r.pos)));
  n

let read_bytes_raw r = Bytes.of_string (read_string r)

let read_fixed64 r =
  if r.pos + 8 > String.length r.data then raise (Truncated "fixed64 overruns input");
  let v = String.get_int64_ne r.data r.pos in
  r.pos <- r.pos + 8;
  v

let pos r = r.pos

let seek r p =
  if p < 0 || p > String.length r.data then
    invalid_arg (Printf.sprintf "Codec.seek: position %d out of [0,%d]" p (String.length r.data));
  r.pos <- p

let at_end r = r.pos >= String.length r.data

let block_size = 128
