(* The experiment harness: one driver per experiment in DESIGN.md's index.
   `experiments.exe` runs them all; `experiments.exe e3 e7` runs a subset.
   EXPERIMENTS.md records each table next to the paper claim it checks. *)

module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Ast = Secpol_flowgraph.Ast
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Instrument = Secpol_taint.Instrument
module Certify = Secpol_staticflow.Certify
module Halt_guard = Secpol_staticflow.Halt_guard
module Transforms = Secpol_transform.Transforms
module Machine = Secpol_minsky.Machine
module Dmm = Secpol_minsky.Dmm
module Filesys = Secpol_filesys.Filesys
module Tape = Secpol_channels.Tape
module Logon = Secpol_channels.Logon
module Partition = Secpol_probe.Partition
module Leakage = Secpol_probe.Leakage
module Tabulate = Secpol_probe.Tabulate
module Paper = Secpol_corpus.Paper_programs
module Generator = Secpol_corpus.Generator
module Analyze = Secpol_engine.Analyze
open Expr.Build

let pct r = Printf.sprintf "%3.0f%%" (100.0 *. r)
let bits b = Printf.sprintf "%.3f" b

let sound_mark ?view policy m space =
  match fst (Analyze.soundness (Analyze.config ?view space) policy m) with
  | Soundness.Sound -> "sound"
  | Soundness.Unsound _ -> "UNSOUND"

(* The maximal mechanism's completeness: the yardstick every other ratio
   is bounded by. *)
let maximal_ratio policy q space =
  fst (Analyze.maximal_ratio (Analyze.config space) policy q)

let header title = Printf.printf "\n=== %s ===\n" title

(* ---------------------------------------------------------------- E1 --- *)

(* Completeness of every mechanism on every corpus program, against the
   brute-force maximal yardstick. *)
let e1 () =
  header "E1  Completeness table (fraction of inputs served, per mechanism)";
  let t =
    Tabulate.create
      ~header:
        [ "program"; "policy"; "high-water"; "surveillance"; "scoped"; "timed";
          "static"; "halt-guard"; "ite+surv"; "while+surv"; "maximal" ]
  in
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let q = Paper.program e in
      let space = e.Paper.space in
      let policy = e.Paper.policy in
      let dyn mode = Dynamic.mechanism (Dynamic.config ~mode policy) g in
      let ratio m = pct (Completeness.ratio m ~q space) in
      let ite_m =
        Dynamic.mechanism
            (Dynamic.config ~mode:Dynamic.Surveillance policy)
            (Compile.compile (Transforms.ite e.Paper.prog))
      in
      let while_m =
        let tprog = Transforms.predicate_loops ~residual:false ~bound:4 e.Paper.prog in
        match Transforms.equivalent_on e.Paper.prog tprog space with
        | Ok () ->
            Some
              (Dynamic.mechanism
                   (Dynamic.config ~mode:Dynamic.Surveillance policy)
                   (Compile.compile tprog))
        | Error _ -> None
      in
      Tabulate.add_row t
        [
          e.Paper.name;
          Policy.name policy;
          ratio (dyn Dynamic.High_water);
          ratio (dyn Dynamic.Surveillance);
          ratio (dyn Dynamic.Scoped);
          ratio (dyn Dynamic.Timed);
          ratio (Certify.mechanism ~policy e.Paper.prog);
          ratio
            (Halt_guard.mechanism ~policy
               (Transforms.split_halts
                  (Compile.compile (Transforms.sink_into_branches e.Paper.prog))));
          ratio ite_m;
          (match while_m with Some m -> ratio m | None -> "-");
          pct (maximal_ratio policy q space);
        ])
    Paper.all;
  Tabulate.print t;
  print_string
    "(scoped is the deliberately unsound baseline; every other column is a\n\
    \ sound mechanism, so its ratio is bounded by maximal's.)\n"

(* ---------------------------------------------------------------- E2 --- *)

let e2 () =
  header "E2  Soundness matrix (Theorems 3 and 3'): mechanism x observability";
  let t =
    Tabulate.create
      ~header:[ "program"; "mechanism"; "time hidden"; "time observable" ]
  in
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let policy = e.Paper.policy in
      List.iter
        (fun mode ->
          let m = Dynamic.mechanism (Dynamic.config ~mode policy) g in
          Tabulate.add_row t
            [
              e.Paper.name;
              Dynamic.mode_name mode;
              sound_mark policy m e.Paper.space;
              sound_mark ~view:`Timed policy m e.Paper.space;
            ])
        Dynamic.all_modes)
    [ Paper.forgetting; Paper.scoped_trap; Paper.loop_then_secretfree ];
  Tabulate.print t;
  print_string
    "(Theorem 3: surveillance sound while time is hidden; Theorem 3': only\n\
    \ the timed variant survives an observable clock; scoped leaks even\n\
    \ untimed on its trap program.)\n"

(* ---------------------------------------------------------------- E3 --- *)

(* Timing leakage as the secret's range grows: the secret sets a loop's
   iteration count; output value is constant. *)
let timing_program =
  Ast.prog ~name:"loop-on-secret" ~arity:1
    (Ast.seq
       [
         Ast.Assign (Var.Reg 0, x 0);
         Ast.While (r 0 >: i 0, Ast.Assign (Var.Reg 0, r 0 -: i 1));
         Ast.Assign (Var.Out, i 1);
       ])

let e3 () =
  header "E3  Timing channel: bits leaked through the step count (allow())";
  let t =
    Tabulate.create
      ~header:
        [ "secret range"; "raw Q (timed)"; "surveillance (timed)";
          "timed surv. (timed)"; "raw Q (untimed)" ]
  in
  let g = Compile.compile timing_program in
  let policy = Policy.allow_none in
  List.iter
    (fun hi ->
      let space = Space.ints ~lo:0 ~hi ~arity:1 in
      let leak ?(view = `Timed) m = (Leakage.of_mechanism ~view policy m space).Leakage.avg_bits in
      let raw = Mechanism.of_program (Interp.graph_program g) in
      let ms = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
      let mt = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed policy) g in
      Tabulate.add_row t
        [
          Printf.sprintf "0..%d" hi;
          bits (leak raw);
          bits (leak ms);
          bits (leak mt);
          bits (leak ~view:`Value raw);
        ])
    [ 1; 3; 7; 15 ];
  Tabulate.print t;
  print_string
    "(raw Q leaks log2(range) bits through its running time even though its\n\
    \ value is constant; plain surveillance still leaks via the TIME of its\n\
    \ violation notices; the timed variant aborts at the tainted decision at\n\
    \ a secret-independent moment and leaks nothing.)\n"

(* ---------------------------------------------------------------- E4 --- *)

let e4 () =
  header "E4  Password work factor: n^k brute force vs n*k page-boundary walk";
  let n = 8 in
  let t =
    Tabulate.create
      ~header:
        [ "k"; "n^k (worst)"; "measured brute (worst secret)";
          "n*k (bound)"; "measured walk (worst secret)"; "avg brute"; "avg walk" ]
  in
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun k ->
      let worst = Array.make k (n - 1) in
      let o = Logon.Attack.make ~n ~k ~secret:worst in
      let trials = 30 in
      let avg f =
        let total = ref 0 in
        for _ = 1 to trials do
          let s = Logon.Attack.random_secret rng ~n ~k in
          total := !total + f (Logon.Attack.make ~n ~k ~secret:s)
        done;
        float_of_int !total /. float_of_int trials
      in
      Tabulate.add_row t
        [
          string_of_int k;
          string_of_int (int_of_float (float_of_int n ** float_of_int k));
          string_of_int (Logon.Attack.brute_force o);
          string_of_int (n * k);
          string_of_int (Logon.Attack.prefix_walk o);
          Printf.sprintf "%.1f" (avg Logon.Attack.brute_force);
          Printf.sprintf "%.1f" (avg Logon.Attack.prefix_walk);
        ])
    [ 1; 2; 3; 4; 5 ];
  Tabulate.print t;
  print_string
    "(the forgotten observable - page movement - collapses the work factor\n\
    \ from exponential to linear, exactly as Section 2 recounts.)\n"

(* ---------------------------------------------------------------- E5 --- *)

let e5 () =
  header "E5  Theorem 1: the join of sound mechanisms, measured";
  let t =
    Tabulate.create
      ~header:[ "program"; "M1"; "M2"; "M1 ratio"; "M2 ratio"; "join ratio"; "join sound" ]
  in
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let q = Paper.program e in
      let policy = e.Paper.policy in
      let space = e.Paper.space in
      let m1 = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
      let m2 =
        Dynamic.mechanism
            (Dynamic.config ~mode:Dynamic.Surveillance policy)
            (Compile.compile (Transforms.ite e.Paper.prog))
      in
      let j = Mechanism.join m1 m2 in
      Tabulate.add_row t
        [
          e.Paper.name;
          "surveillance";
          "ite+surveillance";
          pct (Completeness.ratio m1 ~q space);
          pct (Completeness.ratio m2 ~q space);
          pct (Completeness.ratio j ~q space);
          sound_mark policy j space;
        ])
    [ Paper.ex7; Paper.ex8; Paper.forgetting; Paper.constant_branch ];
  Tabulate.print t;
  print_string
    "(the join serves the union of what its components serve - on ex8 the\n\
    \ transform loses ground and the join simply keeps the better part.)\n"

(* ---------------------------------------------------------------- E7 --- *)

let e7 () =
  header "E7  One-way tape: reading z1 under allow(z1), three head disciplines";
  let space = Tape.block_space ~k:2 ~lengths:[ 1; 2 ] ~alphabet:[ 0; 1 ] in
  let policy = Policy.allow [ 1 ] in
  let t =
    Tabulate.create
      ~header:
        [ "head motion"; "sound (time hidden)"; "sound (time observable)";
          "timed leak (bits)" ]
  in
  List.iter
    (fun motion ->
      let q = Tape.read_block motion ~k:2 ~j:1 in
      let m = Mechanism.of_program q in
      Tabulate.add_row t
        [
          Tape.motion_name motion;
          sound_mark policy m space;
          sound_mark ~view:`Timed policy m space;
          bits (Leakage.of_program ~view:`Timed policy q space).Leakage.avg_bits;
        ])
    [ Tape.Walk; Tape.Tab_linear; Tape.Tab_constant ];
  Tabulate.print t;
  print_string
    "(walking across z0 encodes its length in the read time; a tab(i) that\n\
    \ secretly walks is just as bad; only the constant-time tab restores the\n\
    \ observability postulate.)\n"

(* ---------------------------------------------------------------- E8 --- *)

let e8 () =
  header "E8  Fenton's halt statement on the negative-inference machine (allow())";
  let space = Space.ints ~lo:0 ~hi:3 ~arity:1 in
  let policy = Policy.allow [] in
  let t =
    Tabulate.create
      ~header:
        [ "pc mode"; "halt mode"; "M(0)"; "M(2)"; "sound (untimed)";
          "sound (timed)" ]
  in
  let show inputs m =
    match (Mechanism.respond m (Array.map Value.int inputs)).Mechanism.response with
    | Mechanism.Granted v -> Value.to_string v
    | Mechanism.Denied _ -> "violation"
    | Mechanism.Hung -> "hangs"
    | Mechanism.Failed _ -> "fault"
  in
  List.iter
    (fun (pc_mode, pc_name) ->
      List.iter
        (fun (halt_mode, halt_name) ->
          let cfg = Dmm.config ~pc_mode ~halt_mode policy in
          let m = Dmm.mechanism cfg Machine.Zoo.negative_inference in
          Tabulate.add_row t
            [
              pc_name;
              halt_name;
              show [| 0 |] m;
              show [| 2 |] m;
              sound_mark policy m space;
              sound_mark ~view:`Timed policy m space;
            ])
        [
          (Dmm.Halt_noop, "no-op"); (Dmm.Halt_error, "error notice");
          (Dmm.Halt_checked, "checked");
        ])
    [ (Dmm.Monotone, "monotone"); (Dmm.Scoped, "scoped (Fenton)") ];
  Tabulate.print t;
  print_string
    "(the paper's Example 1 continued: with Fenton's class-restoring pc, the\n\
    \ error-notice reading of halt announces 'x = 0' - negative inference;\n\
    \ the no-op reading is value-sound but still leaks through time.)\n"

(* ---------------------------------------------------------------- E9 --- *)

let e9 () =
  header "E9  Static certification vs dynamic surveillance on random programs";
  let params = { Generator.default with Generator.depth = 3 } in
  let space = Generator.space_for params in
  let n = 300 in
  let rand = Random.State.make [| 2024 |] in
  let t =
    Tabulate.create
      ~header:
        [ "policy"; "certified"; "avg static"; "avg surveillance"; "avg maximal";
          "surv>static"; "static>surv" ]
  in
  List.iter
    (fun policy ->
      let certified = ref 0 in
      let sum_static = ref 0.0 and sum_surv = ref 0.0 and sum_max = ref 0.0 in
      let surv_wins = ref 0 and static_wins = ref 0 in
      for _ = 1 to n do
        let prog = QCheck.Gen.generate1 ~rand (Generator.gen params) in
        let g = Compile.compile prog in
        let q = Interp.ast_program prog in
        if Certify.certified ~policy prog then incr certified;
        let rs =
          Completeness.ratio (Certify.mechanism ~policy prog) ~q space
        in
        let rd =
          Completeness.ratio
            (Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g)
            ~q space
        in
        let rm = maximal_ratio policy q space in
        sum_static := !sum_static +. rs;
        sum_surv := !sum_surv +. rd;
        sum_max := !sum_max +. rm;
        if rd > rs +. 1e-9 then incr surv_wins;
        if rs > rd +. 1e-9 then incr static_wins
      done;
      let avg r = pct (!r /. float_of_int n) in
      Tabulate.add_row t
        [
          Policy.name policy;
          Printf.sprintf "%d/%d" !certified n;
          avg sum_static;
          avg sum_surv;
          avg sum_max;
          string_of_int !surv_wins;
          string_of_int !static_wins;
        ])
    [ Policy.allow_none; Policy.allow [ 0 ]; Policy.allow [ 1 ]; Policy.allow [ 0; 1 ] ];
  Tabulate.print t;
  print_string
    "(static enforcement is all-or-nothing per program; dynamic surveillance\n\
    \ salvages partial service on programs the certifier must reject, while\n\
    \ certified programs are served completely by both.)\n"

(* --------------------------------------------------------------- E10 --- *)

let e10 () =
  header "E10  Theorem 4: the maximal mechanism exists but cannot be synthesized";
  let t =
    Tabulate.create ~header:[ "A(x) family"; "domain"; "surveillance"; "maximal" ]
  in
  List.iter
    (fun (e, label) ->
      let q = Paper.program e in
      let ms =
        Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance e.Paper.policy) (Paper.graph e)
      in
      Tabulate.add_row t
        [
          label;
          "0..7";
          pct (Completeness.ratio ms ~q e.Paper.space);
          pct (maximal_ratio e.Paper.policy q e.Paper.space);
        ])
    [
      (Paper.thm4_family (fun _ -> 0) ~name:"thm4-zero", "A = 0 everywhere");
      ( Paper.thm4_family (fun v -> if v = 5 then 1 else 0) ~name:"thm4-spike",
        "A(5) = 1, else 0" );
    ];
  Tabulate.print t;
  (* Ruzzo's construction: maximal(Q_M) decides halting questions about M,
     so the bound needed grows with the machine - sweep the domain. *)
  let t2 =
    Tabulate.create
      ~header:[ "machine"; "domain 0..h"; "Q constant on domain?"; "maximal ratio" ]
  in
  let ruzzo m input =
    Program.of_fun ~name:"ruzzo" ~arity:1 (fun a ->
        Value.int
          (if Machine.halts_within m ~fuel:(Value.to_int a.(0)) input then 1 else 0))
  in
  List.iter
    (fun (machine, input, label) ->
      List.iter
        (fun hi ->
          let space = Space.ints ~lo:0 ~hi ~arity:1 in
          let q = ruzzo machine input in
          let r = maximal_ratio Policy.allow_none q space in
          Tabulate.add_row t2
            [
              label;
              Printf.sprintf "0..%d" hi;
              (if r > 0.0 then "yes" else "no");
              pct r;
            ])
        [ 5; 20; 80 ])
    [
      (Machine.Zoo.looper, [| 1 |], "looper(1): never halts");
      (Machine.Zoo.looper, [| 0 |], "looper(0): halts in 1 step");
      (Machine.Zoo.adder, [| 9; 9 |], "adder(9,9): halts in ~38 steps");
    ];
  Tabulate.print t2;
  print_string
    "(whether the maximal mechanism is the constant 0 is exactly 'does M halt\n\
    \ within the domain' - pushing the domain out re-answers a halting\n\
    \ question; no single effective procedure covers all machines.)\n"

(* --------------------------------------------------------------- E11 --- *)

let e11 () =
  header "E11  File system (Example 2): the content-dependent policy";
  let k = 2 in
  let space = Filesys.space ~k ~file_values:[ 10; 20; 30 ] in
  let policy = Filesys.policy ~k in
  let part = Partition.compute policy space in
  Printf.printf "space: %d inputs, %d policy classes (largest %d)\n"
    part.Partition.points (Partition.class_count part)
    (Partition.largest_class part);
  let t =
    Tabulate.create
      ~header:[ "subject"; "kind"; "completeness"; "sound"; "avg leak (bits)" ]
  in
  let q_read = Filesys.read_file ~k ~slot:1 in
  let rows =
    [
      ("read file 1, no check", Mechanism.of_program q_read, q_read);
      ("reference monitor", Filesys.monitor ~k ~slot:1, q_read);
      ( "sum of permitted",
        Mechanism.of_program (Filesys.read_sum_permitted ~k),
        Filesys.read_sum_permitted ~k );
    ]
  in
  List.iter
    (fun (label, m, q) ->
      Tabulate.add_row t
        [
          label;
          (if m.Mechanism.name = q.Program.name then "program as mechanism"
           else "monitor");
          pct (Completeness.ratio m ~q space);
          sound_mark policy m space;
          bits (Leakage.of_mechanism policy m space).Leakage.avg_bits;
        ])
    rows;
  Tabulate.print t;
  print_string
    "(the unchecked read leaks the denied file outright; the paper's monitor\n\
    \ with its 'Illegal access attempted' notice is sound and serves exactly\n\
    \ the permitted half; a program that checks permissions itself can be its\n\
    \ own sound mechanism.)\n"

(* --------------------------------------------------------------- E12 --- *)

(* Theorem 3's side condition: expressions must run in time independent of
   disallowed values. A multiplication whose cost tracks its operands
   defeats even the timed mechanism - the secret never reaches the output,
   only the clock. *)
let e12 () =
  header "E12  Expression cost discipline: Theorem 3' needs constant-time operators";
  let prog =
    Ast.prog ~name:"dead-multiply" ~arity:1
      (Ast.seq
         [ Ast.Assign (Var.Reg 0, x 0 *: x 0); Ast.Assign (Var.Out, i 1) ])
  in
  let g = Compile.compile prog in
  let policy = Policy.allow_none in
  let space = Space.ints ~lo:0 ~hi:15 ~arity:1 in
  let t =
    Tabulate.create
      ~header:
        [ "cost model"; "mechanism"; "completeness"; "sound (timed)";
          "timed leak (bits)" ]
  in
  List.iter
    (fun (cost, cost_name) ->
      List.iter
        (fun mode ->
          let m = Dynamic.mechanism (Dynamic.config ~cost ~mode policy) g in
          Tabulate.add_row t
            [
              cost_name;
              Dynamic.mode_name mode;
              pct (Completeness.ratio m ~q:(Interp.graph_program g) space);
              sound_mark ~view:`Timed policy m space;
              bits (Leakage.of_mechanism ~view:`Timed policy m space).Leakage.avg_bits;
            ])
        [ Dynamic.Surveillance; Dynamic.Timed ])
    [ (Expr.Uniform, "uniform"); (Expr.Operand_sized, "operand-sized") ];
  Tabulate.print t;
  print_string
    "(program: r0 := x0 * x0; y := 1 under allow(). Both mechanisms grant -\n\
    \ the secret never flows to y or to a test - and with uniform-cost boxes\n\
    \ both are timed-sound. Give multiplication its operand-sized cost and\n\
    \ the grant's timestamp spells out |x0|: the restriction the paper\n\
    \ attaches to Theorem 3' is necessary, not pedantry.)\n"

(* --------------------------------------------------------------- E13 --- *)

let e13 () =
  header "E13  History-dependent policy: the differencing attack on a statistical DB";
  let module Querydb = Secpol_history.Querydb in
  let db = { Querydb.k = 3; queries = 2 } in
  let space =
    Querydb.space db ~record_values:[ 0; 1 ]
      ~query_masks:[ 0b111; 0b110; 0b011; 0b001 ]
  in
  let policy = Querydb.policy db in
  let q = Querydb.session_program db in
  let t =
    Tabulate.create
      ~header:[ "front end"; "sound"; "avg leak (bits)"; "sessions served" ]
  in
  let row label m q' =
    Tabulate.add_row t
      [
        label;
        sound_mark policy m space;
        bits (Leakage.of_mechanism policy m space).Leakage.avg_bits;
        pct (Completeness.ratio m ~q:q' space);
      ]
  in
  row "answer everything" (Mechanism.of_program q) q;
  row "session gatekeeper" (Querydb.monitor db) q;
  let q_slot = Querydb.slotwise_program db in
  row "redesigned (slotwise)" (Mechanism.of_program q_slot) q_slot;
  Tabulate.print t;
  print_string
    "(two sum queries whose sets differ in one record reveal that record;\n\
    \ the history rule refuses the second query. The policy is a filter\n\
    \ whose value depends on the query inputs - the paper's 'dependent upon\n\
    \ a history of the user's previous queries' remark, enforced and\n\
    \ checked. Completeness is measured against each front end's own\n\
    \ program, so the slotwise redesign's 100% counts sessions it serves\n\
    \ in its weakened, per-query sense.)\n"

(* --------------------------------------------------------------- E14 --- *)

let e14 () =
  header "E14  Capability systems in the model (the paper's closing claim)";
  let module Capsys = Secpol_capability.Capsys in
  let sys = Capsys.make ~objects:3 ~stored_caps:[| 0b010; 0b100; 0b000 |] in
  let space = Capsys.space sys ~value_range:2 ~cap_masks:[ 0b000; 0b001; 0b100 ] in
  let policy = Capsys.policy sys in
  let greedy =
    [ Capsys.Load 0; Capsys.Fetch 0; Capsys.Load 1; Capsys.Fetch 1; Capsys.Load 2 ]
  in
  let q = Capsys.program sys greedy in
  let t =
    Tabulate.create
      ~header:[ "machine"; "sound"; "completeness"; "avg leak (bits)" ]
  in
  let row label m =
    Tabulate.add_row t
      [
        label;
        sound_mark policy m space;
        pct (Completeness.ratio m ~q space);
        bits (Leakage.of_mechanism policy m space).Leakage.avg_bits;
      ]
  in
  row "unchecked" (Mechanism.of_program q);
  row "checked (acquiring)" (Capsys.checked sys greedy);
  row "strict (no acquisition)" (Capsys.strict sys greedy);
  row "maximal (brute force)" (fst (Analyze.maximal (Analyze.config space) policy q));
  Tabulate.print t;
  print_string
    "(objects 0 -> 1 -> 2 store a capability chain; the script harvests it.\n\
    \ The reachability policy is content-dependent on the capability input.\n\
    \ The acquiring checker is sound and serves every session whose closure\n\
    \ covers the script; refusing acquisition stays sound but strictly less\n\
    \ complete - the completeness order compares capability disciplines.)\n"

(* --------------------------------------------------------------- E15 --- *)

(* Ablation: how much precision does algebraic pre-simplification buy the
   Section 5 certifier? (Ex. 7's transform needed the same Cond(p,e,e)=e
   law; here it serves the static analysis directly.) *)
let e15 () =
  header "E15  Certifier ablation: plain vs pre-simplified analysis";
  let params = Generator.default in
  let n = 400 in
  let rand = Random.State.make [| 31337 |] in
  let progs = List.init n (fun _ -> QCheck.Gen.generate1 ~rand (Generator.gen params)) in
  let t =
    Tabulate.create
      ~header:[ "policy"; "certified (plain)"; "certified (presimplified)"; "gained" ]
  in
  List.iter
    (fun allowed ->
      let plain = ref 0 and simp = ref 0 in
      List.iter
        (fun prog ->
          if (Certify.analyze ~allowed prog).Certify.certified then incr plain;
          if (Certify.analyze ~presimplify:true ~allowed prog).Certify.certified
          then incr simp)
        progs;
      Tabulate.add_row t
        [
          Policy.name (Policy.allow_set allowed);
          Printf.sprintf "%d/%d" !plain n;
          Printf.sprintf "%d/%d" !simp n;
          string_of_int (!simp - !plain);
        ])
    [ Iset.empty; Iset.of_list [ 0 ]; Iset.of_list [ 1 ] ];
  Tabulate.print t;
  print_string
    "(simplification can only shrink taints, so the gain column is never\n\
    \ negative - verified as a property test; the canonical rescued shape is\n\
    \ a dead operand like y := x0 + x1 * 0.)\n"

(* --------------------------------------------------------------- E16 --- *)

(* The policy dial: completeness as the allowed set grows. Grant sets of
   every mechanism are monotone in J (a property test proves it); this
   series shows the shape on one mixed program. *)
let e16 () =
  header "E16  Completeness as the allowed set grows (one program, J sweeping)";
  let prog =
    Ast.prog ~name:"mixed" ~arity:3
      (Ast.seq
         [
           Ast.If
             ( x 0 =: i 0,
               Ast.Assign (Var.Out, x 1),
               Ast.Assign (Var.Out, x 1 +: x 2) );
         ])
  in
  let g = Compile.compile prog in
  let q = Interp.graph_program g in
  let space = Space.ints ~lo:0 ~hi:2 ~arity:3 in
  let t =
    Tabulate.create
      ~header:
        [ "allowed"; "high-water"; "surveillance"; "timed"; "static"; "maximal" ]
  in
  List.iter
    (fun j ->
      let policy = Policy.allow j in
      let ratio m = pct (Completeness.ratio m ~q space) in
      Tabulate.add_row t
        [
          Policy.name policy;
          ratio (Dynamic.mechanism (Dynamic.config ~mode:Dynamic.High_water policy) g);
          ratio (Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g);
          ratio (Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed policy) g);
          ratio (Certify.mechanism ~policy prog);
          pct (maximal_ratio policy q space);
        ])
    [ []; [ 1 ]; [ 0; 1 ]; [ 1; 2 ]; [ 0; 1; 2 ] ];
  Tabulate.print t;
  print_string
    "(program: if x0 = 0 then y := x1 else y := x1 + x2. Every column grows\n\
    \ monotonically down the table; static flips 0 -> 100 only once the whole\n\
    \ read set is allowed, while the dynamic mechanisms climb through the\n\
    \ partial-service regime in between.)\n"

(* --------------------------------------------------------------- E17 --- *)

(* Section 4's general recipe, run to its bounded end: enumerate transform
   sequences, keep equivalent+sound candidates, join them (Theorem 1), and
   report the gap to the maximal mechanism that Theorem 4 says no uniform
   procedure closes. *)
let e17 () =
  header "E17  Bounded mechanism synthesis: transform search vs the maximal gap";
  let module Search = Secpol_transform.Search in
  let t =
    Tabulate.create
      ~header:
        [ "program"; "plain surv."; "search best"; "maximal"; "winning sequence";
          "candidates (sound/discarded)" ]
  in
  List.iter
    (fun (e : Paper.entry) ->
      let q = Paper.program e in
      let plain =
        Completeness.ratio
          (Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance e.Paper.policy) (Paper.graph e))
          ~q e.Paper.space
      in
      let r = Search.search ~policy:e.Paper.policy ~space:e.Paper.space e.Paper.prog in
      let winner =
        match r.Search.candidates with
        | c :: _ when c.Search.ratio > 0.0 -> c.Search.label
        | _ -> "-"
      in
      Tabulate.add_row t
        [
          e.Paper.name;
          pct plain;
          pct r.Search.best_ratio;
          pct r.Search.maximal_ratio;
          winner;
          Printf.sprintf "%d/%d"
            (List.length r.Search.candidates)
            (List.length r.Search.discarded);
        ])
    Paper.all;
  Tabulate.print t;
  print_string
    "(the searched mechanism is the Theorem-1 join of every sound candidate,\n\
    \ so it never loses to plain surveillance; where 'search best' still\n\
    \ trails 'maximal' no sequence in the pool helps - Theorem 4 in practice.)\n"

(* --------------------------------------------------------------- E18 --- *)

(* The conclusions' other observable: page faults. The counter in the
   outcome is any resource; here it counts page transitions of an access
   trace whose ORDER depends on the secret while the values never do. *)
let e18 () =
  header "E18  Page-fault channel: value-constant, traffic-variable (allow all but the key)";
  let module Paged = Secpol_channels.Paged in
  let t =
    Tabulate.create
      ~header:
        [ "vars/page"; "sound (faults hidden)"; "sound (faults observable)";
          "leak (bits)" ]
  in
  List.iter
    (fun page_size ->
      let m = Paged.make ~nvars:5 ~page_size in
      let q = Paged.scan_sorted_by_secret m ~key:0 in
      let policy = Policy.allow [ 1; 2; 3; 4 ] in
      let space = Space.ints ~lo:0 ~hi:1 ~arity:5 in
      Tabulate.add_row t
        [
          string_of_int page_size;
          sound_mark policy (Mechanism.of_program q) space;
          sound_mark ~view:`Timed policy (Mechanism.of_program q) space;
          bits (Leakage.of_program ~view:`Timed policy q space).Leakage.avg_bits;
        ])
    [ 1; 2; 5 ];
  Tabulate.print t;
  print_string
    "(the program outputs 0 always; only its page-access ORDER tracks the\n\
    \ key. With one variable per page, or all on one page, the two orders\n\
    \ cost the same and the channel closes; in between, the fault counter\n\
    \ hands over the key bit - 'running time or page faults', as the\n\
    \ conclusions say, are the same postulate.)\n"

(* --------------------------------------------------------------- E19 --- *)

(* The operator-function question (Section 2): "does the value of Q(d1..dk)
   contain ALL the information that it should?" — the data-security dual,
   which the paper asserts the same methods handle. Measured on Example 2's
   file system: confidentiality (soundness) and integrity (preservation)
   pull in opposite directions. *)
let e19 () =
  header "E19  The dual question: confidentiality vs integrity on the file system";
  let module Integrity = Secpol_core.Integrity in
  let k = 2 in
  let space = Filesys.space ~k ~file_values:[ 10; 20 ] in
  let policy = Filesys.policy ~k in
  let q_read = Filesys.read_file ~k ~slot:1 in
  let q_id =
    Program.of_fun ~name:"dump-everything" ~arity:(Filesys.arity ~k) (fun a ->
        Value.tuple (Array.to_list a))
  in
  let t =
    Tabulate.create
      ~header:
        [ "mechanism"; "sound (reveals at most I)"; "preserves (delivers at least I)" ]
  in
  let verdict m =
    ( sound_mark policy m space,
      match Integrity.check policy m space with
      | Integrity.Preserves -> "preserves"
      | Integrity.Loses _ -> "LOSES" )
  in
  List.iter
    (fun (label, m) ->
      let s, p = verdict m in
      Tabulate.add_row t [ label; s; p ])
    [
      ("dump everything", Mechanism.of_program q_id);
      ("read file 1, unchecked", Mechanism.of_program q_read);
      ("reference monitor (file 1)", Filesys.monitor ~k ~slot:1);
      ("sum of permitted", Mechanism.of_program (Filesys.read_sum_permitted ~k));
      ("pull the plug", Mechanism.pull_the_plug (Filesys.arity ~k));
      ( "the filtered view I itself",
        Mechanism.of_program
          (Program.of_fun ~name:"policy-image" ~arity:(Filesys.arity ~k)
             (Policy.image policy)) );
    ];
  Tabulate.print t;
  print_string
    "(soundness bounds what a reply may reveal; preservation demands the\n\
    \ policy's image be recoverable from it. Dumping everything preserves\n\
    \ and leaks; the plug is sound and loses; no single-file view carries\n\
    \ the whole permitted image. Exactly one program threads both needles:\n\
    \ the one computing the policy's own filtered view. The two questions\n\
    \ are genuinely dual, and the same partition machinery decides both -\n\
    \ Section 2's unproved assertion, exercised.)\n"

(* ----------------------------------------------------------------------- *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17);
    ("e18", e18); ("e19", e19);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | [ _; "list" ] ->
        List.iter (fun (name, _) -> print_endline name) experiments;
        exit 0
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s; e6 is the bechamel bench)\n"
            name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
