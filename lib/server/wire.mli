(** The enforcement service's wire protocol.

    Requests and responses are CRC-framed binary messages built on the
    journal's {!Secpol_journal.Codec} primitives and
    {!Secpol_journal.Frame} framing: every payload opens with the
    {!version} stamp and a message tag, every frame carries the length and
    CRC-32 of its payload. Decoding is total — truncation, foreign
    versions, checksum failures and nonsense bytes come back as the typed
    {!Secpol_journal.Codec.decode_error}, never an exception and never a
    misread message — so a malformed client can cost itself its
    connection, not the server its soundness.

    {!Stream} assembles frames from the byte dribble of a socket: it
    distinguishes {e incomplete} (wait for more bytes, remember since
    when — the slowloris clock) from {e corrupt} (close the connection). *)

module Codec = Secpol_journal.Codec
module Mechanism = Secpol_core.Mechanism

val version : int
(** Wire-protocol version, stamped into every payload. Distinct from the
    journal's {!Codec.format_version}: the wire and the journal evolve
    independently. *)

val overload_notice : string
(** {!Secpol_core.Notice.Overload} ("Λ/overload") — the violation notice
    for every request the service sheds, expires or refuses. *)

val default_deadline_us : int
(** Deadline applied when a request carries a negative [deadline_us]. *)

type open_session = {
  session : string;
  allowed : Secpol_core.Iset.t;  (** the session's [allow(J)] policy *)
  mode : Secpol_taint.Dynamic.mode;
  fuel : int;
  guard_retries : int;  (** per-session guard retry budget *)
  journaled : bool;  (** journal every run; enables {!Resume} recovery *)
}

type enforce = {
  session : string;
  request_id : int;  (** client-chosen; echoed in the {!Reply} *)
  program : string;  (** corpus entry name *)
  inputs : Secpol_core.Value.t array;
  deadline_us : int;
      (** microseconds from arrival; [0] is already expired (always shed
          with [Λ/overload]), negative means {!default_deadline_us} *)
}

type request =
  | Hello of { client : string }
  | Open_session of open_session
  | Enforce of enforce
  | Resume of { session : string; request_id : int }
      (** Ask for the verdict of a journaled run interrupted by a crash. *)
  | Stats
  | Drain

type response =
  | Welcome of { server : string }
  | Session_opened of { session : string }
  | Reply of { session : string; request_id : int; reply : Mechanism.reply }
  | Stats_reply of { body : string }  (** rendered metrics JSON *)
  | Draining of { outstanding : int }
  | Refused of { code : string; detail : string }
      (** Protocol-level refusal (unknown session, draining, foreign
          version, ...); never carries a verdict. *)

val encode_request : request -> string
(** Framed bytes, ready for the socket. *)

val encode_response : response -> string

val decode_request : string -> (request, Codec.decode_error) result
(** Decode one frame {e payload} (as produced by {!Stream.next}). *)

val decode_response : string -> (response, Codec.decode_error) result

val request_name : request -> string
val response_name : response -> string

val max_payload : int
(** The largest payload a frame may declare: 16 MiB, far above any
    message the service sends, [Stats_reply] bodies included. The length
    field arrives from the network, so {!Stream.next} refuses a header
    declaring more as soon as the header is in, instead of buffering
    whatever the peer sends until the frame deadline. *)

(** Incremental frame assembly for one connection. *)
module Stream : sig
  type t

  val create : unit -> t

  val feed : t -> now:float -> string -> unit
  (** Append received bytes; [now] timestamps the oldest unparsed byte
      (the slowloris clock). *)

  val next : t -> [ `Frame of string | `Await | `Corrupt of Codec.decode_error ]
  (** Pop the next complete frame's payload. [`Await]: the buffer holds a
      (possibly empty) strict prefix of a frame. [`Corrupt]: the bytes can
      never become a frame (bad magic, a declared length over
      {!max_payload}, checksum failure) — close the connection. Costs one
      copy of the payload; the bytes queued behind it are not touched. *)

  val stalled_since : t -> float option
  (** [Some t0] while undecoded bytes are pending: the arrival time of the
      oldest of them. [None] when the buffer is empty. *)

  val pending_bytes : t -> int
end
