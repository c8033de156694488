(* Durability primitives shared by the journal, every snapshot writer
   (Snapshot.save) and the shard manifest. Everything here is about making a write either
   fully visible after a crash or not visible at all:

   - data reaches the disk before we depend on it (fsync the file);
   - renames become durable (fsync the containing directory — without it
     a crash can forget the rename even though the data survived);
   - replacement is atomic (write a temp sibling, fsync, rename over). *)

let write_all fd data =
  let len = String.length data in
  let bytes = Bytes.unsafe_of_string data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

let fsync_dir dir =
  (* O_RDONLY on a directory is the portable way to get an fsync-able
     handle on Linux/macOS; if the platform refuses, the rename is still
     atomic — only its durability ordering is weakened. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  | exception Unix.Unix_error _ -> ()

let write_file_fsync path data =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd data;
      Unix.fsync fd)

let replace_atomic ~path data =
  let tmp = path ^ ".tmp" in
  write_file_fsync tmp data;
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)
