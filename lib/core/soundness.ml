type config = { view : Program.view; identify_violations : bool }

let default = { view = `Value; identify_violations = false }
let timed = { view = `Timed; identify_violations = false }

type witness = {
  input_a : Value.t array;
  input_b : Value.t array;
  obs_a : Program.Obs.t;
  obs_b : Program.Obs.t;
}

type verdict = Sound | Unsound of witness

let canonicalize config (obs : Program.Obs.t) : Program.Obs.t =
  if not config.identify_violations then obs
  else
    match obs with
    | Program.Obs.Output (Value.Tuple (Value.Str "violation" :: _)) ->
        Program.Obs.Output (Value.Tuple [ Value.Str "violation" ])
    | Program.Obs.Timed_output (Value.Tuple (Value.Str "violation" :: _), t) ->
        Program.Obs.Timed_output (Value.Tuple [ Value.Str "violation" ], t)
    | o -> o

let check ?(config = default) policy m space =
  (* Partition the space by policy image; the mechanism must present the same
     observable within each class. *)
  let seen : (Value.t, Value.t array * Program.Obs.t) Hashtbl.t =
    Hashtbl.create 1024
  in
  let witness =
    Seq.find_map
      (fun a ->
        let key = Policy.image policy a in
        let obs = canonicalize config (Mechanism.observe config.view (Mechanism.respond m a)) in
        match Hashtbl.find_opt seen key with
        | None ->
            Hashtbl.add seen key (a, obs);
            None
        | Some (b, obs_b) ->
            if Program.Obs.equal obs obs_b then None
            else Some { input_a = b; input_b = a; obs_a = obs_b; obs_b = obs })
      (Space.enumerate space)
  in
  match witness with None -> Sound | Some w -> Unsound w

let is_sound ?config policy m space =
  match check ?config policy m space with Sound -> true | Unsound _ -> false

let pp_input ppf a =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
    (Array.to_list a)

let pp_verdict ppf = function
  | Sound -> Format.pp_print_string ppf "sound"
  | Unsound w ->
      Format.fprintf ppf
        "@[<v>unsound:@ M%a = %a@ M%a = %a@ (inputs are policy-equivalent)@]"
        pp_input w.input_a Program.Obs.pp w.obs_a pp_input w.input_b
        Program.Obs.pp w.obs_b
