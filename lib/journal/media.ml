type t = {
  load : unit -> (string * string) option;
  append : string -> unit;
  checkpoint : string -> unit;
  sync : unit -> unit;
  fsyncs : unit -> int;
  pending : unit -> int;
  close : unit -> unit;
}

let load t = t.load ()
let append t s = t.append s
let checkpoint t s = t.checkpoint s
let sync t = t.sync ()
let fsyncs t = t.fsyncs ()
let pending t = t.pending ()
let close t = t.close ()

let memory ?snapshot ?journal () =
  let snap = ref snapshot in
  let jour = Buffer.create 256 in
  Option.iter (Buffer.add_string jour) journal;
  {
    load =
      (fun () ->
        match !snap with
        | None -> None
        | Some s -> Some (s, Buffer.contents jour));
    append = Buffer.add_string jour;
    checkpoint =
      (fun s ->
        snap := Some s;
        Buffer.clear jour);
    sync = ignore;
    fsyncs = (fun () -> 0);
    pending = (fun () -> 0);
    close = ignore;
  }

let snapshot_file = "snapshot.bin"
let journal_file = "journal.bin"
let compact_bytes = 65536

let read_file p = In_channel.with_open_bin p In_channel.input_all

(* The length of a journal file and the end of its last whole frame,
   reading frame headers only: the channel's buffer serves the seeks, and
   no payload is copied. *)
let whole_end p =
  In_channel.with_open_bin p (fun ic ->
      let size = Int64.to_int (In_channel.length ic) in
      let read pos =
        In_channel.seek ic (Int64.of_int pos);
        really_input_string ic Frame.header_size
      in
      (size, (Frame.walk ~size read).Frame.whole))

(* Write, flush, and fsync before close: the bytes are on the medium, not
   merely in the page cache, when this returns. *)
let write_file_sync p s =
  Out_channel.with_open_bin p (fun oc ->
      Out_channel.output_string oc s;
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

(* Persist a directory's entries: fsync the directory so a new or renamed
   entry survives power loss. Best-effort — some filesystems refuse fsync
   on a directory fd, and a refusal must not take down the run. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let mkdir_p path =
  let rec missing p acc =
    if Sys.file_exists p then acc else missing (Filename.dirname p) (p :: acc)
  in
  let made = missing path [] in
  List.iter
    (fun d -> try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ())
    made;
  made

let dir path =
  if Sys.file_exists path && not (Sys.is_directory path) then
    invalid_arg (Printf.sprintf "Media.dir: %s exists and is not a directory" path);
  (* Directories whose new entries the first barrier makes durable: the
     parent of every directory made here, and [path] itself once this
     handle creates journal.bin. *)
  let new_entries = ref (List.map Filename.dirname (mkdir_p path)) in
  let snap_path = Filename.concat path snapshot_file in
  let jour_path = Filename.concat path journal_file in
  let oc = ref None in
  let size = ref 0 in
  let unsynced = ref 0 in
  (* journal.bin's length and the end of its last whole frame, as [load]
     last read them. *)
  let loaded = ref None in
  let count = ref 0 in
  let fsync_file c =
    incr count;
    Out_channel.flush c;
    Unix.fsync (Unix.descr_of_out_channel c);
    unsynced := 0
  in
  let close_journal () =
    Option.iter Out_channel.close !oc;
    oc := None;
    loaded := None
  in
  let open_append () =
    oc :=
      Some
        (Out_channel.open_gen
           [ Open_wronly; Open_append; Open_creat; Open_binary ]
           0o644 jour_path)
  in
  (* Before the first write, cut whatever follows the last whole frame — a
     torn tail, or damage — since frames appended after it could never be
     walked to. *)
  let journal_oc () =
    (match !oc with
    | Some _ -> ()
    | None ->
        if Sys.file_exists jour_path then begin
          let n, whole =
            match !loaded with Some l -> l | None -> whole_end jour_path
          in
          if whole < n then Unix.truncate jour_path whole;
          size := whole
        end
        else begin
          new_entries := path :: !new_entries;
          size := 0
        end;
        open_append ());
    Option.get !oc
  in
  let write s =
    let c = journal_oc () in
    Out_channel.output_string c s;
    Out_channel.flush c;
    size := !size + String.length s;
    unsynced := !unsynced + String.length s
  in
  {
    load =
      (fun () ->
        let jour = if Sys.file_exists jour_path then read_file jour_path else "" in
        let l = Frame.layout jour in
        loaded := Some (String.length jour, l.Frame.whole);
        match l.Frame.last_checkpoint with
        | Some (off, len) ->
            let rest = off + len in
            Some
              ( Frame.of_checkpoint (String.sub jour off len),
                String.sub jour rest (String.length jour - rest) )
        | None when Sys.file_exists snap_path -> Some (read_file snap_path, jour)
        | None when l.Frame.whole = 0 && not l.Frame.damaged -> None
        | None ->
            (* Frames, but no checkpoint and no snapshot to anchor them:
               damage. Hand the bytes over as the snapshot, so the runner's
               own checks refuse them with the precise decode error. *)
            Some (jour, ""));
    append = write;
    checkpoint =
      (fun s ->
        let ck = Frame.to_checkpoint s in
        ignore (journal_oc ());
        if !size < compact_bytes then write ck
        else begin
          (* Compaction: the checkpoint alone becomes the journal, by
             write-tmp-then-rename with the tmp file synced before the
             rename and the directory after it. A crash leaves the old
             journal or the new one, never a hybrid. *)
          close_journal ();
          let tmp = jour_path ^ ".tmp" in
          incr count;
          write_file_sync tmp ck;
          Sys.rename tmp jour_path;
          incr count;
          fsync_dir path;
          size := String.length ck;
          unsynced := 0;
          open_append ()
        end);
    sync =
      (fun () ->
        Option.iter fsync_file !oc;
        List.iter
          (fun d ->
            incr count;
            fsync_dir d)
          (List.sort_uniq compare !new_entries);
        new_entries := []);
    fsyncs = (fun () -> !count);
    pending = (fun () -> !unsynced);
    close = close_journal;
  }
