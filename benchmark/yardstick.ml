(* The yardstick workload: no daemon. A fixed batch of Secpol.Analyze
   items — soundness of the four monitor modes, the maximal mechanism
   under the value and timed views, and its completeness ratio — for the
   example programs and the corpus loop programs over widened integer
   spaces, under every allow(J). It exercises Refine, Exhaustive, Pool
   and Dynamic with no service layer in the way. *)

module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Graph = Secpol_flowgraph.Graph
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Pool = Secpol_engine.Pool
module Paper = Secpol_corpus.Paper_programs
module Source = Secpol_lang.Source
module Analyze = Secpol.Analyze

(* The programs of examples/programs, frozen here so that the batch —
   and the digest pinned below — cannot drift with the examples. *)
let sources =
  [
    ("program blind-vote(x0, x1, x2)\n  y := x0 + x1 + x2\n", 9);
    ( "program bounded-search(x0, x1)\n\
      \  r0 := x0;\n\
      \  r1 := 0;\n\
      \  r2 := 10;\n\
      \  while r0 > 0 and r2 > 0 do\n\
      \    r0 := r0 - 1;\n\
      \    r2 := r2 - 1;\n\
      \    r1 := r1 + 1\n\
      \  done;\n\
      \  y := r1 + (x1 * 0)\n",
      31 );
    ( "program gcd(x0, x1)\n\
      \  r0 := x0 + 1;\n\
      \  r1 := x1 + 1;\n\
      \  while r0 <> r1 do\n\
      \    if r0 > r1 then r0 := r0 - r1 else r1 := r1 - r0 end\n\
      \  done;\n\
      \  y := r0\n",
      31 );
    ( "program mix(x0, x1, x2)\n\
      \  y := x2;\n\
      \  if x0 = 0 then y := x1 else y := x0 + x1 end\n",
      9 );
    ( "program wage-gap(x0, x1, x2)\n\
      \  if x2 = 1 then\n\
      \    if x0 > x1 then y := x0 - x1 else y := x1 - x0 end\n\
      \  else\n\
      \    y := 0 - 1\n\
      \  end\n",
      9 );
  ]

(* Corpus programs with loops, and the top of each widened domain. *)
let corpus = [ ("loop-then-secretfree", 63); ("timing-constant", 1023) ]

type kind = Sound of Dynamic.mode | Maximal of Program.view | Ratio

let kind_name = function
  | Sound m -> "sound-" ^ Dynamic.mode_name m
  | Maximal `Value -> "maximal-value"
  | Maximal `Timed -> "maximal-timed"
  | Ratio -> "ratio"

let kinds =
  List.map (fun m -> Sound m) Dynamic.all_modes @ [ Maximal `Value; Maximal `Timed; Ratio ]

type program = { name : string; graph : Graph.t; hi : int }

type item = {
  label : string;
  kind : kind;
  run : jobs:int -> Analyze.algo -> Space.t -> string * Analyze.telemetry;
      (** the item's verdict digest, and the analysis telemetry *)
}

let jobs = min 2 (Domain.recommended_domain_count ())

let policies arity =
  List.init (1 lsl arity) (fun mask ->
      Policy.allow (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init arity Fun.id)))

(* A maximal mechanism is judged by its replies on a fixed spread of
   points: the whole small space, every [stride]-th point of a big one. *)
let mechanism_digest m space =
  let points = Array.of_seq (Space.enumerate space) in
  let stride = max 1 (Array.length points / 256) in
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i p ->
      if i mod stride = 0 then
        Buffer.add_string b (Service.reply_to_string (Mechanism.respond m p) ^ ";"))
    points;
  Digest.to_hex (Digest.string (Buffer.contents b))

let item (p : program) policy kind =
  let q = Interp.graph_program p.graph in
  let run =
    match kind with
    | Sound mode ->
        let m = Dynamic.mechanism (Dynamic.config ~mode policy) p.graph in
        let view = if mode = Dynamic.Timed then `Timed else `Value in
        fun ~jobs algo space ->
          let v, t = Analyze.soundness (Analyze.config ~view ~jobs ~algo space) policy m in
          (Format.asprintf "%a" Soundness.pp_verdict v, t)
    | Maximal view ->
        fun ~jobs algo space ->
          let m, t = Analyze.maximal (Analyze.config ~view ~jobs ~algo space) policy q in
          (mechanism_digest m space, t)
    | Ratio ->
        fun ~jobs algo space ->
          let r, t = Analyze.maximal_ratio (Analyze.config ~jobs ~algo space) policy q in
          (Printf.sprintf "%.17g" r, t)
  in
  {
    label = Printf.sprintf "%s/%s/%s" p.name (Policy.name policy) (kind_name kind);
    kind;
    run;
  }

(* What the yardstick's user waits for before the first analysis:
   parse and compile the programs, build the spaces and the items. *)
let setup () =
  let programs =
    List.map
      (fun (src, hi) ->
        let ast = Source.parse_exn src in
        let g = Compile.compile ast in
        { name = g.Graph.name; graph = g; hi })
      sources
    @ List.map
        (fun (name, hi) -> { name; graph = Paper.graph (Paper.find name); hi })
        corpus
  in
  List.concat_map
    (fun p ->
      let arity = p.graph.Graph.arity in
      let wide = Space.ints ~lo:0 ~hi:p.hi ~arity in
      let small = Space.ints ~lo:0 ~hi:3 ~arity in
      List.concat_map
        (fun policy -> List.map (fun k -> (item p policy k, wide, small)) kinds)
        (policies arity))
    programs
  |> Array.of_list

(* MD5 over every item's verdict digest, in batch order: the batch
   answers exactly as on the commit that defined this benchmark. *)
let pinned_digest = "46895893ec11528d47a439a0a39d785e"

(* Open-loop item rates, frozen at about 10% and 30% of the one-domain
   item rate measured at --seed 1 when this benchmark was defined. *)
let lo_rate = 20.
let hi_rate = 60.

let mismatch fmt = Printf.ksprintf (fun m -> raise (Service.Mismatch m)) fmt

(* The one-at-a-time and open-loop phases visit items in a fixed
   spread-out order (a stride coprime with the batch size), whatever the
   seed: item costs span two orders of magnitude, so a median must always
   come from the same items. *)
let stride = 97

let run ?(corrupt = false) ~seed ~seconds () =
  let setups =
    Array.init 51 (fun _ ->
        let t0 = Proc.now () in
        let items = setup () in
        (Proc.now () -. t0, items))
  in
  let items = snd setups.(0) in
  let n = Array.length items in
  (* The refined path must answer exactly as the brute-force oracle on the
     small spaces. *)
  Array.iter
    (fun (it, _, small) ->
      let refined, _ = it.run ~jobs Analyze.Refine small
      and brute, _ = it.run ~jobs Analyze.Brute small in
      if refined <> brute then
        mismatch "yardstick: item %s on the 4-point domains: brute %s, refined %s" it.label
          brute refined)
    items;
  let rng = Random.State.make [| seed |] in
  let order = Service.shuffle rng (Array.init n Fun.id) in
  let exec ?(jobs = jobs) i =
    let it, wide, _ = items.(i) in
    fst (it.run ~jobs Analyze.Refine wide)
  in
  (* The first batch is the warm-up; its verdicts, pinned as one digest,
     are what every later execution of an item must reproduce. *)
  let results = Array.make n "" in
  Array.iter (fun i -> results.(i) <- exec i) order;
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list results))) in
  let pinned = if corrupt then "corrupted-on-purpose" else pinned_digest in
  if digest <> pinned then
    mismatch "yardstick: batch digest: expected %s, got %s" pinned digest;
  let attempted = ref n in
  let check i r =
    incr attempted;
    if r <> results.(i) then
      mismatch "yardstick: item %d (%s): expected %s, got %s" i
        (let it, _, _ = items.(i) in
         it.label)
        results.(i) r
  in
  let batches = Stats.Buf.create () in
  let stop = Proc.now () +. (0.4 *. seconds) in
  let rec closed () =
    let t0 = Proc.now () in
    Array.iter (fun i -> check i (exec i)) order;
    Stats.Buf.add batches (float_of_int n /. (Proc.now () -. t0));
    if Proc.now () < stop then closed ()
  in
  closed ();
  let rps = Stats.Buf.to_array batches in
  let info = ref [] in
  let note name v unit = info := (name, v, unit) :: !info in
  (* One item at a time, back to back, each on this domain alone
     (jobs = 1): the latency of a lone analysis. Whole passes over the
     batch in a fixed order, so every pass has the same items; the lowest
     per-pass median is reported. *)
  let passes = Stats.Buf.create () in
  let stop = Proc.now () +. (0.2 *. seconds) in
  let rec single () =
    let lat = Array.make n 0. in
    for k = 0 to n - 1 do
      let i = k * stride mod n in
      let t0 = Proc.now () in
      let r = exec ~jobs:1 i in
      lat.(k) <- Proc.now () -. t0;
      check i r
    done;
    Stats.Buf.add passes (Stats.median lat *. 1e6);
    if Proc.now () < stop then single ()
  in
  single ();
  let p50s = Stats.Buf.to_array passes in
  Array.iteri (fun i p -> note (Printf.sprintf "single.pass%d_p50_us" i) p "us") p50s;
  (* Reported, not gated, like the service workloads' open loop: item k is
     due at t0 + k/rate and its latency runs from then; the generator
     spins between arrivals, since a parked pool domain or an idle CPU
     would charge every item its wake-up. *)
  let open_phase tag rate =
    let lat = Stats.Buf.create () and late = Stats.Buf.create () in
    let t0 = Proc.now () +. 0.001 in
    for k = 0 to max 1 (int_of_float (0.15 *. seconds *. rate)) - 1 do
      let due = t0 +. (float_of_int k /. rate) in
      while Proc.now () < due do
        ()
      done;
      Stats.Buf.add late (Proc.now () -. due);
      let i = k * stride mod n in
      let r = exec ~jobs:1 i in
      Stats.Buf.add lat (Proc.now () -. due);
      check i r
    done;
    let s = Stats.sorted (Stats.Buf.to_array lat) and late = Stats.Buf.to_array late in
    note (tag ^ ".rate") rate "1/s";
    note (tag ^ ".p50_us") (Stats.quantile_sorted s 0.5 *. 1e6) "us";
    note (tag ^ ".p99_us") (Stats.quantile_sorted s 0.99 *. 1e6) "us";
    note (tag ^ ".samples") (float_of_int (Array.length s)) "count";
    note (tag ^ ".late_p50_us") (Stats.median late *. 1e6) "us";
    note (tag ^ ".late_max_us") (Array.fold_left Float.max 0. late *. 1e6) "us"
  in
  open_phase "open_lo" lo_rate;
  open_phase "open_hi" hi_rate;
  Array.iteri (fun i r -> note (Printf.sprintf "closed.batch%d_rps" i) r "1/s") rps;
  note "batch.items" (float_of_int n) "count";
  note "batch_s" (float_of_int n /. Array.fold_left Float.max 0. rps) "s";
  note "jobs" (float_of_int jobs) "count";
  {
    Service.e2e =
      [
        ("setup_s", Stats.median (Array.map fst setups), "s");
        ("rps", Array.fold_left Float.max 0. rps, "1/s");
        ("p50_us", Array.fold_left Float.min infinity p50s, "us");
        ("rss_mb", Proc.peak_rss_mb "self", "MB");
      ];
    info = List.rev !info;
    attempted = !attempted;
    failed = 0;
  }

(* The Analyze layers for the traced run: one batch, timed per kind. *)
let analysis () =
  let items = setup () in
  let sound = ref 0. and maximal = ref 0. and runs = ref 0 and saved = ref 0 and steals = ref 0 in
  Array.iter
    (fun (it, wide, _) ->
      let t0 = Proc.now () in
      let _, (t : Analyze.telemetry) = it.run ~jobs Analyze.Refine wide in
      let dt = Proc.now () -. t0 in
      (match it.kind with Sound _ -> sound := !sound +. dt | _ -> maximal := !maximal +. dt);
      Option.iter
        (fun (r : Secpol_core.Refine.stats) ->
          runs := !runs + r.Secpol_core.Refine.runs;
          saved := !saved + r.Secpol_core.Refine.saved)
        t.Analyze.refine;
      let _, s, _ = Pool.total t.Analyze.pool in
      steals := !steals + s)
    items;
  {
    Ladder.soundness_s = !sound;
    maximal_s = !maximal;
    refine_runs = !runs;
    refine_saved = !saved;
    pool_steals = !steals;
  }

(* The traced run's request stream: points of loop-then-secretfree's
   widened space, one session per allow(J). *)
let ladder_stream ~seed =
  let rng = Random.State.make [| seed |] in
  let entry = Paper.find "loop-then-secretfree" in
  let specs =
    Array.of_list
      (List.mapi
         (fun i policy ->
           Secpol_server.Loadgen.session_spec ~session:(Printf.sprintf "allow%d" i) ~policy ())
         (policies 2))
  in
  let top = List.assoc "loop-then-secretfree" corpus in
  let point () =
    [| Value.int (Random.State.int rng (top + 1)); Value.int (Random.State.int rng (top + 1)) |]
  in
  Service.make ~name:"yardstick" ~entry ~specs
    ~distinct:(Array.init 4096 (fun i -> (i mod 4, point ())))
    ~reqs:(Array.init 65536 (fun k -> Service.Enforce (k mod 4096)))
    ~first:0 ~lo_rate:0. ~hi_rate:0.
