(* The service workloads: a real `secpol serve`, driven by this one
   single-threaded process over one enforce connection, every reply
   checked against the clean monitor. *)

module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Dynamic = Secpol_taint.Dynamic
module Guard = Secpol_fault.Guard
module Runner = Secpol_journal.Runner
module Media = Secpol_journal.Media
module Paper = Secpol_corpus.Paper_programs
module Wire = Secpol_server.Wire
module Session = Secpol_server.Session
module Store = Secpol_server.Store
module Loadgen = Secpol_server.Loadgen

exception Mismatch of string

(* A slot is a request id. Slots form a ring much longer than any
   window, so a reply's id names its request unambiguously. *)
type req =
  | Enforce of int  (** index into [distinct] *)
  | Resume of int  (** the enforce slot whose journaled verdict to re-read *)

type t = {
  name : string;
  entry : Paper.entry;
  specs : Wire.open_session array;
  distinct : (int * Value.t array) array;  (** (session index, inputs) *)
  clean : Mechanism.reply array;  (** per distinct request *)
  reqs : req array;  (** per slot *)
  frames : string array;  (** per slot, encoded before any timing *)
  first : int;  (** first slot sent; earlier ones are pre-seeded runs *)
  lo_rate : float;  (** open-loop rates, req/s, frozen from the seed run *)
  hi_rate : float;
}

let graph w = Paper.graph w.entry

let clean_mechanism g (s : Wire.open_session) =
  Dynamic.mechanism
    (Dynamic.config ~fuel:s.Wire.fuel ~mode:s.Wire.mode
       (Policy.allow_set s.Wire.allowed))
    g

let rec expected w slot =
  match w.reqs.(slot) with
  | Enforce d -> w.clean.(d)
  | Resume target -> expected w target

let make ~name ~entry ~specs ~distinct ~reqs ~first ~lo_rate ~hi_rate =
  let g = Paper.graph entry in
  let mechs = Array.map (clean_mechanism g) specs in
  let clean =
    Array.map (fun (s, inputs) -> Mechanism.respond mechs.(s) inputs) distinct
  in
  let frames =
    Array.mapi
      (fun slot r ->
        Wire.encode_request
          (match r with
          | Enforce d ->
              let s, inputs = distinct.(d) in
              Wire.Enforce
                {
                  Wire.session = specs.(s).Wire.session;
                  request_id = slot;
                  program = entry.Paper.name;
                  inputs;
                  deadline_us = -1;
                }
          | Resume target ->
              Wire.Resume { session = specs.(0).Wire.session; request_id = target }))
      reqs
  in
  { name; entry; specs; distinct; clean; reqs; frames; first; lo_rate; hi_rate }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let corpus_points entry = Array.of_seq (Space.enumerate entry.Paper.space)

(* ex7 under allow(0), cycling through its 16-point corpus space in a
   seeded order: after the first few misses every request is a session
   cache hit, so the time goes to the wire, admission, cache key, session
   and metrics bookkeeping, not the 5-box monitor run. *)
let hot_cache ~seed =
  let rng = Random.State.make [| seed |] in
  let entry = Paper.find "ex7" in
  let points = corpus_points entry in
  let order = shuffle rng (Array.init (Array.length points) Fun.id) in
  let spec = Loadgen.session_spec ~session:"hot" ~policy:(Policy.allow [ 0 ]) () in
  make ~name:"hot-cache" ~entry ~specs:[| spec |]
    ~distinct:(Array.map (fun p -> (0, p)) points)
    ~reqs:(Array.init 65536 (fun k -> Enforce order.(k mod Array.length order)))
    ~first:0 ~lo_rate:6_000. ~hi_rate:18_000.

(* loop-then-secretfree on two sessions alternating on one connection:
   allow(1) always denies, allow(0,1) always grants. 16,384 distinct
   vectors outside the corpus space (x1 >= 4), x0 < 1000 so a run costs
   3..2,001 monitored steps, sent in a fixed cycle of 8,192 per session —
   twice the session LRU, so the cache almost never hits and the monitor
   and guard dominate. *)
let cycle = 8192

let cold_monitor ~seed =
  let rng = Random.State.make [| seed |] in
  let entry = Paper.find "loop-then-secretfree" in
  let seen = Hashtbl.create (2 * cycle) in
  let rec fresh () =
    let x0 = Random.State.int rng 1000 and x1 = 4 + Random.State.int rng 1_000_000 in
    if Hashtbl.mem seen (x0, x1) then fresh ()
    else begin
      Hashtbl.add seen (x0, x1) ();
      [| Value.int x0; Value.int x1 |]
    end
  in
  let distinct = Array.init (2 * cycle) (fun i -> (i / cycle, fresh ())) in
  let spec session allowed =
    Loadgen.session_spec ~session ~policy:(Policy.allow allowed) ()
  in
  make ~name:"cold-monitor" ~entry
    ~specs:[| spec "deny" [ 1 ]; spec "grant" [ 0; 1 ] |]
    ~distinct
    ~reqs:
      (Array.init (8 * cycle) (fun k ->
           Enforce ((k mod 2 * cycle) + (k / 2 mod cycle))))
    ~first:0 ~lo_rate:850. ~hi_rate:2_500.

(* ex7 journaled on a --store directory: every enforce fsyncs its
   journal, 1 request in 10 re-reads an earlier answered one through
   Resume, and the daemon boots on a store pre-seeded with [preseed]
   (4,000) completed runs. The session cache never runs. A resume reaches
   256 to 511 requests back: more than a window plus the batch of replies
   the generator refills for before it reads them, and never past the
   pre-seeded runs. *)
let journal_slots = 8192
let default_preseed = 4000
let max_preseed = 4000 (* with its resume slots, well inside the ring *)
let min_preseed = 512 (* the first resumes reach back into the pre-seeded runs *)

let durable_journal ?(preseed = default_preseed) ~seed () =
  let rng = Random.State.make [| seed |] in
  let entry = Paper.find "ex7" in
  let points = corpus_points entry in
  let order = shuffle rng (Array.init (Array.length points) Fun.id) in
  let spec =
    Loadgen.session_spec ~session:"journal" ~journaled:true
      ~policy:(Policy.allow [ 0 ]) ()
  in
  let is_resume k = k mod 10 = 9 in
  let reqs =
    Array.init journal_slots (fun k ->
        if is_resume k then begin
          let t = (k - 256 - Random.State.int rng 256 + journal_slots) mod journal_slots in
          let t = if is_resume t then (t + journal_slots - 1) mod journal_slots else t in
          Resume t
        end
        else Enforce order.(k mod Array.length order))
  in
  make ~name:"durable-journal" ~entry ~specs:[| spec |]
    ~distinct:(Array.map (fun p -> (0, p)) points)
    ~reqs ~first:(preseed + (preseed / 9)) ~lo_rate:110. ~hi_rate:330.

(* ---------- the oracle ---------- *)

let reply_to_string (r : Mechanism.reply) =
  let resp =
    match r.Mechanism.response with
    | Mechanism.Granted v -> "granted " ^ Value.to_string v
    | Mechanism.Denied n -> "denied " ^ n
    | Mechanism.Hung -> "hung"
    | Mechanism.Failed m -> "failed " ^ m
  in
  Printf.sprintf "%s in %d steps" resp r.Mechanism.steps

let reply_equal (a : Mechanism.reply) (b : Mechanism.reply) =
  a.Mechanism.steps = b.Mechanism.steps
  &&
  match (a.Mechanism.response, b.Mechanism.response) with
  | Mechanism.Granted x, Mechanism.Granted y -> Value.equal x y
  | Mechanism.Denied m, Mechanism.Denied n -> m = n
  | Mechanism.Hung, Mechanism.Hung -> true
  | Mechanism.Failed m, Mechanism.Failed n -> m = n
  | _ -> false

(* Answers that describe the service's trouble, not the monitor's
   verdict: these count as failed requests, never as mismatches. *)
let service_failure (r : Mechanism.reply) =
  match r.Mechanism.response with
  | Mechanism.Denied n ->
      n = Wire.overload_notice || n = Guard.degraded_notice
      || n = Guard.recovery_notice
  | Mechanism.Hung | Mechanism.Failed _ -> true
  | Mechanism.Granted _ -> false

(* Write the completed journaled runs of every enforce slot before
   [first] into a store directory, in the layout the daemon recovers.
   Runs are journaled to memory and written without fsync: this is
   fixture set-up, not the measured write path. *)
let preseed w ~root =
  let g = graph w in
  let spec = w.specs.(0) in
  let store = Store.dir root in
  Session.save store (Session.create spec);
  let dcfg =
    Dynamic.config ~fuel:spec.Wire.fuel ~mode:spec.Wire.mode
      (Policy.allow_set spec.Wire.allowed)
  in
  let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  for slot = 0 to w.first - 1 do
    match w.reqs.(slot) with
    | Resume _ -> ()
    | Enforce d -> (
        let media = Media.memory () in
        (match
           Runner.run ~media ~program_ref:w.entry.Paper.name dcfg g (snd w.distinct.(d))
         with
        | Runner.Completed r when reply_equal r w.clean.(d) -> ()
        | _ -> failwith "pre-seeded run differs from the clean monitor");
        match Media.load media with
        | None -> failwith "pre-seeded run left no snapshot"
        | Some (snap, journal) ->
            let dir =
              Filename.concat root
                (Session.media_key ~session:spec.Wire.session ~request_id:slot)
            in
            Proc.mkdir_p dir;
            write (Filename.concat dir Media.snapshot_file) snap;
            write (Filename.concat dir Media.journal_file) journal)
  done

(* ---------- the generator ---------- *)

(* Set-up is timed on this many fresh daemons; the last one serves the
   measured phases. *)
let spawns = 5

type gen = {
  w : t;
  expect : Mechanism.reply array;  (** per slot *)
  mutable link : Link.t option;
  send_at : float array;  (** per slot: send time, or due time in open loop *)
  resume_of : int array;  (** target slot -> outstanding resume slot, or -1 *)
  answered : bool array;  (** per enforce slot: its latest run was answered *)
  out : Buffer.t;
  mutable next : int;
  mutable outstanding : int;
  mutable attempted : int;
  mutable failed : int;
  mutable observe : int -> float -> unit;  (** the phase's sink for (slot, latency) *)
}

let generator ?(corrupt = false) w =
  let slots = Array.length w.reqs in
  let expect = Array.init slots (expected w) in
  (* Deliberately wrong oracle (harness self-test): the first request sent
     after set-up must now fail the check. *)
  if corrupt then begin
    let slot = (w.first + (spawns * Array.length w.specs)) mod slots in
    let e = expect.(slot) in
    expect.(slot) <- { e with Mechanism.steps = e.Mechanism.steps + 1 }
  end;
  {
    w;
    expect;
    link = None;
    send_at = Array.make slots 0.;
    resume_of = Array.make slots (-1);
    answered = Array.init slots (fun k -> k < w.first);
    out = Buffer.create 65536;
    next = 0;
    outstanding = 0;
    attempted = 0;
    failed = 0;
    observe = (fun _ _ -> ());
  }

let link g = match g.link with Some l -> l | None -> invalid_arg "no daemon"

let send g ~at =
  let slot = (g.w.first + g.next) mod Array.length g.w.reqs in
  (match g.w.reqs.(slot) with
  | Resume target ->
      if not g.answered.(target) then
        failwith (Printf.sprintf "resume of unanswered request %d" target);
      g.resume_of.(target) <- slot
  | Enforce _ -> g.answered.(slot) <- false);
  g.send_at.(slot) <- at;
  Buffer.add_string g.out g.w.frames.(slot);
  g.next <- g.next + 1;
  g.outstanding <- g.outstanding + 1;
  g.attempted <- g.attempted + 1

let flush g =
  if Buffer.length g.out > 0 then begin
    Link.write (link g) (Buffer.contents g.out);
    Buffer.clear g.out
  end

(* One response that arrived at [t]. *)
let on_response g t (r : Wire.response) =
  match r with
  | Wire.Reply { request_id = id; reply; _ } ->
      let slot =
        let k = g.resume_of.(id) in
        if k >= 0 then begin
          g.resume_of.(id) <- -1;
          k
        end
        else id
      in
      g.observe slot (t -. g.send_at.(slot));
      if not (reply_equal reply g.expect.(slot)) then begin
        if service_failure reply then g.failed <- g.failed + 1
        else
          raise
            (Mismatch
               (Printf.sprintf "%s: request %d%s: expected %s, got %s" g.w.name slot
                  (match g.w.reqs.(slot) with
                  | Resume target -> Printf.sprintf " (resume of %d)" target
                  | Enforce _ -> "")
                  (reply_to_string g.expect.(slot))
                  (reply_to_string reply)))
      end;
      (match g.w.reqs.(slot) with
      | Enforce _ -> g.answered.(slot) <- true
      | Resume _ -> ())
  | Wire.Refused { code; detail } -> Link.lost "refused %s: %s" code detail
  | r -> Link.lost "unexpected %s" (Wire.response_name r)

(* Take what has arrived. The generator never sleeps: it has a CPU of its
   own, and a wake-up on a VM costs as much as a hot-cache request, and
   varies as much as the host. [refill] runs as soon as the number of
   answers is known — before they are decoded and checked — so the daemon
   is not left waiting on the generator's own bookkeeping. *)
let poll ?(refill = ignore) g =
  match Link.read (link g) with
  | [] -> ()
  | frames ->
      let t = Proc.now () in
      g.outstanding <- g.outstanding - List.length frames;
      refill ();
      List.iter (fun p -> on_response g t (Link.decode p)) frames

(* Every sent request answered, or a failure after 5 s of silence. *)
let drain g =
  let deadline = ref (Proc.now () +. 5.) in
  while g.outstanding > 0 do
    let before = g.outstanding in
    poll g;
    let t = Proc.now () in
    if g.outstanding < before then deadline := t +. 5.
    else if t > !deadline then
      Link.lost "%d requests unanswered for 5 s" g.outstanding
  done

let window = 64

(* The host's speed wanders within a run, and it only ever slows the
   system down. So throughput is the best of many short closed-loop
   windows, and a median latency is the lowest of the medians of several
   slices of its phase: the least disturbed stretch. *)
let closed_windows = 15
let single_slices = 6
let max_chunks = 6
let chunk_samples = 200 (* a slice's median needs a few hundred samples *)

(* Closed loop: [window] requests always outstanding. Returns the
   throughput of each of [windows] consecutive windows. The daemon
   answers in batches (up to its exec budget per round), so a window's
   rate is taken between its first and last batch — the answers after
   the first batch over the time between them — not over its edges. *)
let closed g ~window ~windows ~window_s =
  let answered = ref 0 and last = ref 0. in
  g.observe <- (fun _ _ -> incr answered);
  let fill () =
    let t = Proc.now () in
    last := t;
    while g.outstanding < window do
      send g ~at:t
    done;
    flush g
  in
  fill ();
  let rps =
    Array.init windows (fun _ ->
        let stop = Proc.now () +. window_s in
        let first = ref None in
        while Proc.now () < stop do
          let n = !answered in
          poll g ~refill:fill;
          if !first = None && !answered > n then first := Some (!answered, !last)
        done;
        match !first with
        | Some (n0, t0) when !last > t0 -> float_of_int (!answered - n0) /. (!last -. t0)
        | _ -> 0.)
  in
  drain g;
  rps

(* One request outstanding at a time: the latency of a lone client, with
   no queue in front of it and no idle gap for the host to deschedule the
   daemon in. Returns the latencies of each of [slices] consecutive
   stretches of the phase. *)
let single g ~duration ~slices =
  let lat = Array.init slices (fun _ -> Stats.Buf.create ()) and slice = ref 0 in
  g.observe <- (fun _ l -> Stats.Buf.add lat.(!slice) l);
  let t0 = Proc.now () in
  for i = 0 to slices - 1 do
    slice := i;
    let stop = t0 +. (float_of_int (i + 1) *. duration /. float_of_int slices) in
    while Proc.now () < stop do
      send g ~at:(Proc.now ());
      flush g;
      drain g
    done
  done;
  Array.map Stats.Buf.to_array lat

(* Open loop at a fixed rate: request i is due at t0 + i/rate and its
   latency runs from then, so a stall on either side also charges the
   requests queued behind it. The generator holds at most [cap] requests
   outstanding (the daemon's admission bound), so a stall delays sends —
   which the due-time clock still charges — instead of overflowing the
   daemon's queue. Returns the latencies of each of [chunks] consecutive
   slices of the schedule, and how late each send left. *)
let open_loop g ~rate ~duration ~cap =
  let n = max 1 (int_of_float (duration *. rate)) in
  let chunks = max 1 (min max_chunks (n / chunk_samples)) in
  let lat = Array.init chunks (fun _ -> Stats.Buf.create ()) and late = Stats.Buf.create () in
  let index = Array.make (Array.length g.w.reqs) 0 in
  g.observe <- (fun slot l -> Stats.Buf.add lat.(index.(slot) * chunks / n) l);
  let t0 = Proc.now () +. 0.001 in
  for i = 0 to n - 1 do
    let due = t0 +. (float_of_int i /. rate) in
    while g.outstanding >= cap || Proc.now () < due do
      poll g
    done;
    Stats.Buf.add late (Proc.now () -. due);
    index.((g.w.first + g.next) mod Array.length g.w.reqs) <- i;
    send g ~at:due;
    flush g
  done;
  drain g;
  (Array.map Stats.Buf.to_array lat, Stats.Buf.to_array late)

(* ---------- one run ---------- *)

type report = {
  e2e : (string * float * string) list;
  info : (string * float * string) list;
  attempted : int;
  failed : int;
}

(* Spawn a daemon and bring every session to its first reply; the
   elapsed time is this spawn's set-up time. *)
let boot g ~exe ~dir ~name ?store () =
  let t0 = Proc.now () in
  let d = Proc.spawn ~exe ~dir ~name ?store () in
  let l = Link.connect d.Proc.socket in
  g.link <- Some l;
  Array.iter
    (fun spec ->
      match Link.call l (Wire.encode_request (Wire.Open_session spec)) with
      | Wire.Session_opened _ -> ()
      | r -> Link.lost "expected session-opened, got %s" (Wire.response_name r))
    g.w.specs;
  g.observe <- (fun _ _ -> ());
  for _ = 1 to Array.length g.w.specs do
    send g ~at:t0
  done;
  flush g;
  drain g;
  (d, Proc.now () -. t0)

let shutdown g d =
  Option.iter Link.close g.link;
  g.link <- None;
  Proc.stop d

let run ?corrupt ~exe ~dir ~seconds w =
  Proc.pin_generator ();
  let g = generator ?corrupt w in
  let store =
    if w.first > 0 then begin
      let root = Filename.concat dir "store" in
      preseed w ~root;
      Some root
    end
    else None
  in
  let setups =
    Array.init spawns (fun i ->
        let d, s = boot g ~exe ~dir ~name:(Printf.sprintf "d%d" i) ?store () in
        if i < spawns - 1 then shutdown g d;
        (d, s))
  in
  let d, _ = setups.(spawns - 1) in
  let pid = string_of_int d.Proc.pid in
  let info = ref [] in
  let note name v unit = info := (name, v, unit) :: !info in
  let scrape phase =
    let snap, bytes = Link.scrape d.Proc.metrics_socket in
    let hits = Link.counter snap "server/session-cache-hits"
    and misses = Link.counter snap "server/session-cache-misses" in
    note (phase ^ ".cache_hit_pct")
      (if hits + misses = 0 then 0.
       else 100. *. float_of_int hits /. float_of_int (hits + misses))
      "%";
    note (phase ^ ".metrics_bytes") (float_of_int bytes) "B"
  in
  ignore (closed g ~window ~windows:1 ~window_s:(0.1 *. seconds));
  scrape "warmup";
  let cpu_d = Proc.cpu_ns pid and n0 = g.attempted in
  let rps =
    closed g ~window ~windows:closed_windows
      ~window_s:(0.4 *. seconds /. float_of_int closed_windows)
  in
  note "closed.daemon_cpu_us_per_req"
    ((Proc.cpu_ns pid -. cpu_d) /. 1e3 /. float_of_int (g.attempted - n0))
    "us";
  scrape "closed";
  let lone = single g ~duration:(0.2 *. seconds) ~slices:single_slices in
  let p50s = Array.map (fun c -> Stats.median c *. 1e6) lone in
  Array.iteri (fun i p -> note (Printf.sprintf "single.slice%d_p50_us" i) p "us") p50s;
  note "single.samples" (float_of_int (Array.fold_left (fun n c -> n + Array.length c) 0 lone)) "count";
  scrape "single";
  (* The fixed-rate open loop is reported, not gated: on the 2-CPU VM the
     benchmark was defined on, its median moved by a third from run to run
     on cold-monitor and durable-journal, past any bound that would still
     catch a regression (see README). *)
  let open_phase tag rate =
    let chunks, late = open_loop g ~rate ~duration:(0.15 *. seconds) ~cap:window in
    let s = Stats.sorted (Array.concat (Array.to_list chunks)) in
    note (tag ^ ".rate") rate "1/s";
    note (tag ^ ".p50_us") (Array.fold_left Float.min infinity (Array.map (fun c -> Stats.median c *. 1e6) chunks)) "us";
    note (tag ^ ".p99_us") (Stats.quantile_sorted s 0.99 *. 1e6) "us";
    note (tag ^ ".samples") (float_of_int (Array.length s)) "count";
    note (tag ^ ".late_p50_us") (Stats.median late *. 1e6) "us";
    note (tag ^ ".late_max_us") (Array.fold_left Float.max 0. late *. 1e6) "us";
    scrape tag
  in
  open_phase "open_lo" w.lo_rate;
  open_phase "open_hi" w.hi_rate;
  let rss = Proc.peak_rss_mb pid in
  Array.iteri (fun i r -> note (Printf.sprintf "closed.window%d_rps" i) r "1/s") rps;
  Array.iteri (fun i (_, s) -> note (Printf.sprintf "setup.spawn%d_s" i) s "s") setups;
  note "failed_pct" (100. *. float_of_int g.failed /. float_of_int g.attempted) "%";
  shutdown g d;
  {
    e2e =
      [
        ("setup_s", Stats.median (Array.map snd setups), "s");
        ("rps", Array.fold_left Float.max 0. rps, "1/s");
        ("p50_us", Array.fold_left Float.min infinity p50s, "us");
        ("rss_mb", rss, "MB");
      ];
    info = List.rev !info;
    attempted = g.attempted;
    failed = g.failed;
  }
