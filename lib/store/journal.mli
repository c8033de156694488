(** Write-ahead journal for the {!Live} store.

    Every mutation of a live corpus is appended here — and fsync'd —
    {e before} it is applied in memory, so a process death at any
    instant loses at most work that was never acknowledged. The file is
    an 8-byte magic header followed by framed records; each frame is a
    4-byte little-endian payload length, a 16-byte MD5 digest of the
    payload, and the payload itself (a {!Codec}-encoded record). The
    fixed-size frame prefix makes torn-tail detection a pure length
    check.

    Recovery contract ({!read}): an incomplete {e final} frame is the
    signature of a crash mid-append and is reported as a benign
    {!type:tail} to truncate away; a checksum or structure failure
    {e before} the end of the file means the journal itself is damaged
    and raises {!Codec.Corrupt}.

    Fault points: [journal.append] (raise before writing),
    [journal.torn] (write half a frame, fsync, die with
    {!Extract_util.Faults.crash_exit_code} — a deterministic torn
    write), [journal.read], [journal.reset]. *)

type record =
  | Add_doc of {
      name : string;  (** corpus member name (unique key) *)
      xml : string;  (** full document source *)
    }
      (** Add or replace the member called [name]. Replays are
          idempotent: the last [Add_doc] for a name wins. *)
  | Remove_doc of string
      (** Remove the member by name; removing an absent name is a
          no-op on replay. *)
  | Checkpoint of int
      (** All preceding records are contained in snapshot generation
          [n]; replay restarts after the latest checkpoint. *)

(** {1 Appending} *)

type writer

val open_append : string -> writer
(** Open (creating and stamping the magic header if empty) for
    appending. Single-writer: callers serialise through the live
    store's lock. *)

val append : writer -> record -> unit
(** Encode, frame, write, [fsync]. On return the record is durable. *)

val close : writer -> unit

(** {1 Reading / recovery} *)

type tail =
  | Complete  (** the file ends on a frame boundary *)
  | Torn of {
      offset : int;  (** byte offset where the torn frame starts *)
      reason : string;
    }
      (** the final frame is incomplete — expected after a crash
          mid-append; truncate the file at [offset] to repair *)

val read : string -> record list * tail
(** Decode every complete record. A missing file reads as
    [([], Complete)] (a fresh store).
    @raise Codec.Corrupt on bad magic, a mid-file checksum mismatch, or
    a malformed record — damage recovery must not paper over. *)

val truncate : string -> int -> unit
(** [truncate path offset] — cut the file at [offset] (discarding a
    torn tail reported by {!read}) and fsync. *)

val reset : string -> record list -> unit
(** Atomically replace the journal with one containing exactly
    [records] (typically [[Checkpoint gen]] after a snapshot). Uses
    {!Durable.replace_atomic}: a crash leaves the old or the new
    journal, never a mixture. *)

(** {1 Replay helpers} *)

val last_checkpoint : record list -> int option
(** Generation of the latest [Checkpoint], if any. *)

val records_after_checkpoint : record list -> record list
(** The suffix after the latest [Checkpoint] (the whole list when there
    is none) — exactly the records recovery must re-apply. *)
