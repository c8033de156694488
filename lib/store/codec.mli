(** Binary encoding primitives for {!Persist}.

    A deliberately boring format: unsigned LEB128 varints for integers
    (with a zig-zag variant for possibly-negative values) and
    length-prefixed byte strings. No [Marshal]: files are portable across
    OCaml versions and trivially inspectable. *)

type writer

val writer : unit -> writer

val write_varint : writer -> int -> unit
(** Non-negative integers. @raise Invalid_argument on negatives. *)

val write_int : writer -> int -> unit
(** Any integer (zig-zag encoded). *)

val write_string : writer -> string -> unit

val write_bytes_raw : writer -> bytes -> unit
(** Length-prefixed raw bytes. *)

val write_fixed64 : writer -> int64 -> unit
(** A raw native-endian 64-bit word, no length prefix. Unlike a varint
    this is {e not} endian-agnostic — which is exactly why the
    {!Snapshot} header uses one as an endianness probe. *)

val contents : writer -> string

type reader

val reader : string -> reader
(** Reader positioned at the start of the buffer. *)

val read_varint : reader -> int

val read_int : reader -> int

val read_string : reader -> string

val read_count : reader -> int
(** A varint that counts the elements of an array or list about to be
    allocated. Every element takes at least one byte, so the count must
    fit in the bytes left.
    @raise Corrupt when it is negative or does not fit. *)

val read_bytes_raw : reader -> bytes

val read_fixed64 : reader -> int64

val pos : reader -> int
(** Current byte position, for consumers that record offsets. *)

val seek : reader -> int -> unit
(** Jump to an absolute byte position (a previously recorded offset).
    @raise Invalid_argument if the position is outside the buffer. *)

val at_end : reader -> bool

val block_size : int
(** Entries per compression block of a {!Packed_postings} list (the
    skip-table granularity). *)

exception Corrupt of string
(** Raised on malformed input: bad magic, checksum mismatch, overlong
    varints, inconsistent structure. The data is there but wrong. *)

exception Truncated of string
(** Raised when the input ends before the value being read is complete —
    the signature of an interrupted write rather than bit rot. Recovery
    code ({!Journal}) treats truncation of the {e final} record of a
    journal as benign (a torn tail to discard), while {!Corrupt} mid-file
    is always fatal; whole-file readers ({!Persist}) treat both as a bad
    artifact. *)
