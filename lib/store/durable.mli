(** Crash-safe file IO primitives.

    {!Journal}, {!Snapshot.save} (packed corpora, shards and the {!Live}
    store's generations) and the shard manifest share one durability
    story, built from three facts about POSIX filesystems:
    data is only guaranteed on disk after [fsync] of the file; a rename
    is only guaranteed to survive a crash after [fsync] of the containing
    directory; and [rename] over an existing name is atomic — a reader
    (or a recovery pass) sees the old file or the new one, never a
    mixture. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying short writes. *)

val fsync_dir : string -> unit
(** Fsync a directory so a rename inside it becomes durable. On
    platforms that refuse to open a directory for fsync this degrades to
    a no-op: the rename stays atomic, only its durability ordering
    weakens. *)

val write_file_fsync : string -> string -> unit
(** [write_file_fsync path data] — create/truncate, write everything,
    fsync, close. The file's {e content} is durable on return; its
    {e name} is durable only after the containing directory is synced
    (see {!replace_atomic}). *)

val replace_atomic : path:string -> string -> unit
(** Write [data] to [path ^ ".tmp"] (fsync'd), rename it over [path],
    and fsync the directory. A crash at any point leaves either the old
    complete file or the new complete file at [path] — never a torn
    mixture. The temp sibling may survive a crash; recovery deletes
    strays. *)
