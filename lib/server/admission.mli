(** The bounded admission queue: backpressure that fails secure.

    Every enforce request either runs before its deadline or is {e shed}
    — and a shed request is {e answered}, with the violation notice
    [Λ/overload ∈ F], never silently dropped and never granted. The queue
    is a deterministic state machine: given the same seed and the same
    sequence of offers and pops it makes the same decisions, so the chaos
    sweep replays overload scenarios bit-for-bit.

    Shedding policy when the queue is full: the victim is the entry with
    the {e latest} absolute deadline among the queued entries and the
    newcomer — the request most likely to expire anyway — with ties
    broken by a draw from the seeded {!Secpol_fault.Plan.Rng} stream.
    Entries with [deadline <= now] at offer time are shed immediately
    ([Expired]); a queue in drain refuses every offer ([Draining]).

    Cost: {!pop} and {!length} are O(1), and so is {!offer} unless the
    queue is full: only a full queue's victim search walks it. *)

type 'a entry = {
  seq : int;  (** admission sequence number: a total order on offers *)
  conn : int;
  session : string;
  request_id : int;
  deadline : float;  (** absolute *)
  work : 'a;
}

type reason =
  | Expired  (** deadline at or before [now] when offered or popped *)
  | Queue_full  (** displaced by the shedding policy *)
  | Draining  (** offered after {!drain} *)

val reason_name : reason -> string

type 'a t

val create : ?seed:int -> capacity:int -> unit -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val draining : 'a t -> bool

val offer :
  'a t ->
  now:float ->
  conn:int ->
  session:string ->
  request_id:int ->
  deadline:float ->
  'a ->
  [ `Admitted of 'a entry | `Shed of 'a entry * reason ] list
(** Offer one request. Exactly one decision concerns the newcomer; a
    [`Shed] of a {e queued} entry (displaced by the newcomer under the
    shedding policy) may precede it. Every returned entry — admitted or
    shed — must be answered by the caller: the queue never swallows one. *)

val pop : 'a t -> now:float -> [ `Run of 'a entry | `Expired of 'a entry | `Empty ]
(** FIFO by admission order. An entry whose deadline has passed comes back
    [`Expired] — the caller answers it with [Λ/overload] instead of
    running it. *)

val drain : 'a t -> unit
(** Refuse all future offers. Already-admitted entries stay queued: keep
    popping until [`Empty] — drain never drops an admitted request. *)
