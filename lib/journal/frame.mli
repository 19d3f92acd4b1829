(** Checksummed, length-prefixed record framing for the journal.

    A frame is [magic | u32 length | u32 crc32(payload) | payload]. The
    format is append-only: the only damage an interrupted append can cause
    is a {e torn tail} — a strict byte prefix of a frame at end-of-file —
    which {!scan} silently drops (recovery re-executes from the intact
    prefix and, the interpreter being deterministic, reaches the same
    verdict). Any other inconsistency (checksum failure, bytes that are not
    a frame) cannot come from a crash, only from a lying medium, and makes
    the whole journal untrusted: {!scan} returns the typed error and the
    caller degrades to the [Λ/recovery] violation notice.

    A {e checkpoint frame} is a framed snapshot stored inside a journal
    file: the same bytes under {!checkpoint_magic} instead of {!magic}, so
    a reader can tell it from a record without decoding any payload. *)

val magic : string

val checkpoint_magic : string

val header_size : int

val frame : string -> string
(** One framed payload.
    @raise Invalid_argument beyond the u32 length limit. *)

val append : Buffer.t -> string -> unit

val to_checkpoint : string -> string
(** Retag a record frame as a checkpoint frame.
    @raise Invalid_argument if the bytes do not start with {!magic}. *)

val of_checkpoint : string -> string
(** Inverse of {!to_checkpoint}: the record frame back, magic restored. *)

type scan = {
  records : string list;  (** payloads of the intact frames, in order *)
  dropped_bytes : int;  (** torn-tail bytes dropped at EOF; 0 when clean *)
}

val scan : string -> (scan, Codec.decode_error) result
(** The records of a journal suffix. A torn tail of either kind is
    dropped; a whole checkpoint frame is not a record and is refused as
    [Bad_magic]. *)

val one : string -> (string, Codec.decode_error) result
(** Exactly one intact frame and nothing else — the shape of a snapshot
    file. Torn or multi-frame inputs are errors: a snapshot is replaced
    atomically, so unlike the journal it is never legitimately torn. *)

type layout = {
  last_checkpoint : (int * int) option;
      (** offset and length of the last whole checkpoint frame *)
  whole : int;  (** end of the last whole frame: a torn tail starts here *)
  damaged : bool;  (** the walk stopped at bytes that are no frame header *)
}

val walk : size:int -> (int -> string) -> layout
(** Walk the frame headers of a journal file of [size] bytes, without
    checking any payload, up to EOF, a torn tail, or the first bytes that
    are no frame header. [header pos] returns the {!header_size} bytes at
    offset [pos]. The payloads a reader then adopts are checked by {!one}
    and {!scan}. *)

val layout : string -> layout
(** {!walk} over a journal file's bytes. *)
