(* A class is servable iff Q's observable is constant on it. We memoize, per
   policy image, either the common outcome or the fact that the class is
   mixed. *)

type entry = Serve of Program.outcome * Program.Obs.t | Mixed

let table view policy q space =
  let tbl : (Value.t, entry) Hashtbl.t = Hashtbl.create 1024 in
  Seq.iter
    (fun a ->
      let key = Policy.image policy a in
      let o = Program.run q a in
      let obs = Program.observe view o in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key (Serve (o, obs))
      | Some (Serve (_, obs')) ->
          if not (Program.Obs.equal obs obs') then Hashtbl.replace tbl key Mixed
      | Some Mixed -> ())
    (Space.enumerate space);
  tbl

let of_table policy q tbl =
  let respond a =
    let key = Policy.image policy a in
    match Hashtbl.find_opt tbl key with
    | Some (Serve (o, _)) -> (
        match o.Program.result with
        | Program.Value v ->
            { Mechanism.response = Mechanism.Granted v; steps = 1 }
        | Program.Diverged -> { Mechanism.response = Mechanism.Hung; steps = o.Program.steps }
        | Program.Fault m ->
            { Mechanism.response = Mechanism.Failed m; steps = o.Program.steps })
    | Some Mixed | None ->
        { Mechanism.response = Mechanism.Denied "\xce\x9b"; steps = 1 }
  in
  Mechanism.make ~name:(Printf.sprintf "maximal(%s)" q.Program.name)
    ~arity:q.Program.arity respond

let classes_of_table tbl =
  Hashtbl.fold
    (fun _ e (served, total) ->
      match e with Serve _ -> (served + 1, total + 1) | Mixed -> (served, total + 1))
    tbl (0, 0)

let build ?(view = `Value) policy q space =
  of_table policy q (table view policy q space)
