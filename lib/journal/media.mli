(** Where a journal lives: storage backends behind one small interface.

    A medium holds the latest {e checkpoint} (a framed snapshot) and the
    {e journal} frames appended after it, and nothing else; all
    interpretation of the bytes belongs to {!Frame} and {!Runner}. Two
    backends:

    - {!memory}: a buffer pair. The crash-recovery chaos sweep runs
      thousands of kill/tamper/resume cycles per second against it, and its
      optional initializers let the sweep hand recovery a deliberately
      damaged journal.
    - {!dir}: a directory whose one file, [journal.bin], holds every
      frame. {!checkpoint} appends the snapshot as a checkpoint frame
      ({!Frame.to_checkpoint}) and {!append} appends a record; both write
      through to the kernel and neither syncs. {!sync} is the one barrier:
      one fsync of [journal.bin], plus, the first time only, the
      directories whose new entries this handle made. {!load} walks the
      frame headers and returns the last whole checkpoint and the bytes
      after it; a directory with no checkpoint in [journal.bin] falls back
      to the older two-file layout, [snapshot.bin] plus the whole of
      [journal.bin], so stores written that way boot unchanged. Before its
      first write a handle cuts whatever a crash left after the last whole
      frame. Once [journal.bin] reaches {!compact_bytes}, the next
      checkpoint replaces it by write-tmp-then-rename, with the tmp file
      synced before the rename and the directory after it: a crash leaves
      the old journal or the new one.

    What a crash leaves on {!dir}, given that the runner calls {!sync}
    after the verdict frame and before the reply is released:

    - Process death anywhere: recovery finds the run's own verdict (or
      finishes the run to it), or what the medium held before the run —
      the previous run of a reused medium, or no journal.
    - Power loss: the same for every reply that was released. A run whose
      reply never left may come back as [Λ/recovery] ∈ F, since its frames
      were not yet synced.

    A damaged byte in the magic, checksum or payload of a whole frame that
    recovery reads is refused ([Decode], so [Λ/recovery]); it never falls
    back to an earlier checkpoint or to [snapshot.bin]. A length field
    damaged to reach past the end of the file cannot be told from a torn
    tail: the frames after it read as lost in a crash. *)

type t

val load : t -> (string * string) option
(** [(checkpoint_bytes, journal_bytes)]: the latest checkpoint, as passed
    to {!checkpoint}, and the frames appended after it; [None] before the
    first checkpoint. *)

val append : t -> string -> unit
(** Append (already framed) bytes to the journal. No fsync. *)

val checkpoint : t -> string -> unit
(** Start the journal over from a snapshot frame (a {!Frame.frame}): the
    frames before it are never replayed again. No fsync, except when
    {!dir} compacts. *)

val sync : t -> unit
(** Make everything this handle wrote durable. A no-op for {!memory}. *)

val fsyncs : t -> int
(** fsync calls this handle has issued, on files and directories alike. *)

val pending : t -> int
(** Bytes this handle wrote that no fsync covers yet; always 0 for
    {!memory}. *)

val close : t -> unit

val memory : ?snapshot:string -> ?journal:string -> unit -> t
(** Fresh in-memory medium, optionally preloaded (for handing recovery a
    tampered journal). With no [snapshot], {!load} is [None]. *)

val dir : string -> t
(** Directory backend; the directory and any missing parents are created.
    @raise Invalid_argument if the path exists and is not a directory. *)

val snapshot_file : string
val journal_file : string

val compact_bytes : int
(** The [journal.bin] size past which the next checkpoint compacts it. *)

val write_file_sync : string -> string -> unit
(** Write a whole file and fsync it before closing. *)

val fsync_dir : string -> unit
(** fsync a directory, so its new or renamed entries survive power loss.
    Best-effort: a filesystem that refuses is ignored. *)

val mkdir_p : string -> string list
(** Create a directory and its missing parents; returns the directories
    made, outermost first. *)
