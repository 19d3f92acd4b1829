module Rng = Secpol_fault.Plan.Rng

type 'a entry = {
  seq : int;
  conn : int;
  session : string;
  request_id : int;
  deadline : float;
  work : 'a;
}

type reason = Expired | Queue_full | Draining

let reason_name = function
  | Expired -> "expired"
  | Queue_full -> "queue-full"
  | Draining -> "draining"

type 'a t = {
  cap : int;
  rng : Rng.state;
  queue : 'a entry Queue.t;  (* admission order, front = oldest *)
  mutable next_seq : int;
  mutable draining : bool;
}

let create ?(seed = 0) ~capacity () =
  if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
  {
    cap = capacity;
    rng = Rng.create seed;
    queue = Queue.create ();
    next_seq = 0;
    draining = false;
  }

let capacity t = t.cap
let length t = Queue.length t.queue
let draining t = t.draining

(* Full: shed the candidate with the latest deadline among the queue and
   the newcomer; seeded draw on deadline ties so the choice is a pure
   function of (seed, queue state). Only a full queue gets here, so the
   O(capacity) walk is off the admission fast path. *)
let offer_full t e =
  let queued = List.of_seq (Queue.to_seq t.queue) in
  let latest =
    List.fold_left (fun acc c -> if c.deadline > acc.deadline then c else acc) e queued
  in
  let ties = List.filter (fun c -> c.deadline = latest.deadline) (e :: queued) in
  let victim =
    match ties with
    | [ v ] -> v
    | vs -> List.nth vs (Rng.below t.rng (List.length vs))
  in
  if victim.seq = e.seq then [ `Shed (e, Queue_full) ]
  else begin
    Queue.clear t.queue;
    List.iter (fun c -> if c.seq <> victim.seq then Queue.add c t.queue) queued;
    Queue.add e t.queue;
    [ `Shed (victim, Queue_full); `Admitted e ]
  end

let offer t ~now ~conn ~session ~request_id ~deadline work =
  let e = { seq = t.next_seq; conn; session; request_id; deadline; work } in
  t.next_seq <- t.next_seq + 1;
  if t.draining then [ `Shed (e, Draining) ]
  else if deadline <= now then [ `Shed (e, Expired) ]
  else if Queue.length t.queue < t.cap then begin
    Queue.add e t.queue;
    [ `Admitted e ]
  end
  else offer_full t e

let pop t ~now =
  match Queue.take_opt t.queue with
  | None -> `Empty
  | Some e -> if e.deadline <= now then `Expired e else `Run e

let drain t = t.draining <- true
