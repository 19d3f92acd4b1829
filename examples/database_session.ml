(* Beyond allow(...): two policies the paper only gestures at, running.

   First, Section 2's closing remark — "policies (such as might be found
   in a data base system) where what a user is permitted to view is
   dependent upon a history of the user's previous queries" — as a
   statistical database under the differencing attack. Second, the
   conclusions' capability systems, as a take-grant chain.

       dune exec examples/database_session.exe *)

module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Querydb = Secpol_history.Querydb
module Capsys = Secpol_capability.Capsys
module Leakage = Secpol_probe.Leakage
module Analyze = Secpol_engine.Analyze

let mask_to_names mask =
  let names = [| "alice"; "bob"; "carol" |] in
  String.concat "+"
    (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list names))

let () =
  print_endline "== The differencing attack =====================================";
  let db = { Querydb.k = 3; queries = 2 } in
  (* Salaries: alice 3, bob 1, carol 2. The attacker may ask for sums. *)
  let salaries = [| 3; 1; 2 |] in
  let session masks =
    let inputs =
      Array.append (Array.map Value.int salaries)
        (Array.of_list (List.map Value.int masks))
    in
    match (Program.run (Querydb.session_program db) inputs).Program.result with
    | Program.Value (Value.Tuple answers) ->
        List.iter2
          (fun m a ->
            Printf.printf "  sum(%s) = %s\n" (mask_to_names m) (Value.to_string a))
          masks answers
    | _ -> assert false
  in
  print_endline "unguarded session: ask for everyone, then everyone-but-bob:";
  session [ 0b111; 0b101 ];
  print_endline "  ... subtract: bob earns 1. The aggregate interface leaked a";
  print_endline "  single record. The history rule refuses exactly such pairs:";
  Printf.printf "  permitted [everyone; everyone-but-bob] = [%s]\n"
    (String.concat "; "
       (List.map string_of_bool (Querydb.permitted db [ 0b111; 0b101 ])));

  let space =
    Querydb.space db ~record_values:[ 0; 1 ]
      ~query_masks:[ 0b111; 0b110; 0b011; 0b001 ]
  in
  let policy = Querydb.policy db in
  let leak m = (Leakage.of_mechanism policy m space).Leakage.avg_bits in
  Printf.printf "\nmeasured over a %s-point space:\n"
    (string_of_int
       (let p = Secpol_probe.Partition.compute policy space in
        p.Secpol_probe.Partition.points));
  Printf.printf "  answer everything:   %.3f bits leaked (unsound)\n"
    (leak (Mechanism.of_program (Querydb.session_program db)));
  Printf.printf "  session gatekeeper:  %.3f bits leaked (sound)\n"
    (leak (Querydb.monitor db));
  Printf.printf "  slotwise redesign:   %.3f bits leaked (sound)\n"
    (leak (Mechanism.of_program (Querydb.slotwise_program db)));

  print_endline "\n== Capabilities as a policy ====================================";
  let sys = Capsys.make ~objects:3 ~stored_caps:[| 0b010; 0b100; 0b000 |] in
  print_endline "object 0 stores a capability for object 1; 1 stores one for 2.";
  List.iter
    (fun mask ->
      Printf.printf "  closure({%s}) = {%s}\n" (mask_to_names mask)
        (mask_to_names (Capsys.closure sys mask)))
    [ 0b001; 0b010; 0b100 ];
  let greedy =
    [ Capsys.Load 0; Capsys.Fetch 0; Capsys.Load 1; Capsys.Fetch 1; Capsys.Load 2 ]
  in
  let space = Capsys.space sys ~value_range:2 ~cap_masks:[ 0b000; 0b001; 0b100 ] in
  let policy = Capsys.policy sys in
  let q = Capsys.program sys greedy in
  let show label m =
    let sound =
      match fst (Analyze.soundness (Analyze.config space) policy m) with
      | Soundness.Sound -> "sound"
      | Soundness.Unsound _ -> "UNSOUND"
    in
    Printf.printf "  %-24s %-8s serves %3.0f%%\n" label sound
      (100.0 *. Completeness.ratio m ~q space)
  in
  print_endline "a capability-harvesting script under three disciplines:";
  show "no checking" (Mechanism.of_program q);
  show "check, allow acquiring" (Capsys.checked sys greedy);
  show "check, no acquiring" (Capsys.strict sys greedy);
  print_endline
    "\nboth policies are information filters like any other: the same\n\
     soundness checker, leakage meter and completeness order apply."
