open Secpol_core

type algo = Refine | Brute

let algo_name = function Refine -> "refine" | Brute -> "brute"

type config = {
  view : Program.view;
  space : Space.t;
  jobs : int;
  cache : Cache.t option;
  algo : algo;
  identify_violations : bool;
}

let config ?(view = `Value) ?(jobs = 1) ?cache ?(algo = Refine)
    ?(identify_violations = false) space =
  { view; space; jobs; cache; algo; identify_violations }

type telemetry = { refine : Refine.stats option; pool : Pool.stats }

(* Brute calls the oracle directly on the calling domain: one task, no
   pool. *)
let brute =
  {
    refine = None;
    pool =
      {
        Pool.jobs = 1;
        task_count = 1;
        workers = [ { Pool.worker = 0; tasks = 1; steals = 0; idle_probes = 0 } ];
      };
  }

(* Raw-Q runs cache losslessly as mechanism replies: Value/Diverged/Fault
   map onto Granted/Hung/Failed with the step count preserved, and Denied
   can never appear under a raw-Q key. *)
let reply_of_outcome (o : Program.outcome) =
  match o.Program.result with
  | Program.Value v -> { Mechanism.response = Mechanism.Granted v; steps = o.Program.steps }
  | Program.Diverged -> { Mechanism.response = Mechanism.Hung; steps = o.Program.steps }
  | Program.Fault m -> { Mechanism.response = Mechanism.Failed m; steps = o.Program.steps }

let outcome_of_reply (r : Mechanism.reply) =
  match r.Mechanism.response with
  | Mechanism.Granted v -> { Program.result = Program.Value v; steps = r.Mechanism.steps }
  | Mechanism.Hung -> { Program.result = Program.Diverged; steps = r.Mechanism.steps }
  | Mechanism.Failed m -> { Program.result = Program.Fault m; steps = r.Mechanism.steps }
  | Mechanism.Denied _ ->
      invalid_arg "Analyze: Denied reply under a raw-Q cache key"

(* Raw-Q runs are shared through the exact-key cache under the program's
   name, projected on the whole input vector; the tag never carries the
   view — observables are projected from the cached outcome after the
   lookup, so [`Value] and [`Timed] analyses of the same program hit the
   same entries. The name-as-digest convention means one cache must not
   see two different programs under one name — the caller owns the cache,
   so it owns that invariant too. *)
let runner cfg q =
  match cfg.cache with
  | None -> Program.run q
  | Some cache ->
      let digest = "analyze:" ^ q.Program.name in
      fun a ->
        let key =
          { Cache.digest; tag = "raw-Q"; projection = Value.tuple (Array.to_list a) }
        in
        outcome_of_reply
          (Cache.find_or_compute cache key (fun () ->
               reply_of_outcome (Program.run q a)))

(* Partition first, then one pool task per class; cells merge in
   class-creation order, so the table is the oracle's at any [jobs]. *)
let refined_table cfg policy q =
  let pt = Refine.partition policy cfg.space in
  let k = Array.length pt.Refine.keys in
  let run = runner cfg q in
  let cells, pool =
    Pool.map ~jobs:cfg.jobs k (Refine.refine_class ~view:cfg.view ~run pt)
  in
  let tbl : (Value.t, Maximal.entry) Hashtbl.t = Hashtbl.create 1024 in
  let runs = ref 0 in
  Array.iteri
    (fun c (entry, r) ->
      runs := !runs + r;
      Hashtbl.replace tbl pt.Refine.keys.(c) entry)
    cells;
  let n = Array.length pt.Refine.points in
  let rstats =
    { Refine.space_size = n; class_count = k; runs = !runs; saved = n - !runs }
  in
  (tbl, pt, { refine = Some rstats; pool })

let refined_soundness cfg config policy m =
  let pt = Refine.partition policy cfg.space in
  let k = Array.length pt.Refine.keys in
  let obs_of a =
    Soundness.canonicalize config
      (Mechanism.observe config.Soundness.view (Mechanism.respond m a))
  in
  (* Per class (independently, so classes parallelize): the first member
     whose observable splits from the representative's, if any. Members
     are ascending, so the candidate is the class's earliest mismatch;
     the globally-earliest candidate is exactly the witness the
     sequential scan reports. Singleton classes are never probed. *)
  let cells, pool =
    Pool.map ~jobs:cfg.jobs k (fun c ->
        let ms = pt.Refine.members.(c) in
        let n = Array.length ms in
        if n < 2 then None
        else
          let obs0 = obs_of pt.Refine.points.(ms.(0)) in
          let rec scan i =
            if i >= n then None
            else
              let o = obs_of pt.Refine.points.(ms.(i)) in
              if Program.Obs.equal o obs0 then scan (i + 1)
              else Some (ms.(i), c, obs0, o)
          in
          scan 1)
  in
  let best =
    Array.fold_left
      (fun acc cand ->
        match (acc, cand) with
        | None, c -> c
        | Some (i, _, _, _), Some (j, _, _, _) when j < i -> cand
        | _ -> acc)
      None cells
  in
  let verdict =
    match best with
    | None -> Soundness.Sound
    | Some (i, c, obs_a, obs_b) ->
        Soundness.Unsound
          {
            Soundness.input_a = pt.Refine.points.(pt.Refine.members.(c).(0));
            input_b = pt.Refine.points.(i);
            obs_a;
            obs_b;
          }
  in
  (verdict, { refine = None; pool })

let soundness cfg policy m =
  let config =
    { Soundness.view = cfg.view; identify_violations = cfg.identify_violations }
  in
  match cfg.algo with
  | Brute -> (Soundness.check ~config policy m cfg.space, brute)
  | Refine -> refined_soundness cfg config policy m

let table cfg policy q =
  match cfg.algo with
  | Brute -> (Maximal.table cfg.view policy q cfg.space, brute)
  | Refine ->
      let tbl, _, t = refined_table cfg policy q in
      (tbl, t)

let maximal cfg policy q =
  let tbl, t = table cfg policy q in
  (Maximal.of_table policy q tbl, t)

let maximal_ratio cfg policy q =
  match cfg.algo with
  | Brute ->
      let m, t = maximal cfg policy q in
      (Completeness.ratio m ~q cfg.space, t)
  | Refine ->
      let tbl, pt, t = refined_table cfg policy q in
      let granted, total = Refine.grant_count_of_table pt tbl in
      let r =
        if total = 0 then 1.0 else float_of_int granted /. float_of_int total
      in
      (r, t)
