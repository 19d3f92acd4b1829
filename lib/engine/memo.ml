open Secpol_core

let wrap ~cache ~digest ~tag ~project (m : Mechanism.t) =
  Mechanism.make
    ~name:(Printf.sprintf "memo(%s)" m.Mechanism.name)
    ~arity:m.Mechanism.arity
    (fun a ->
      let key = { Cache.digest; tag; projection = project a } in
      Cache.find_or_compute cache key (fun () -> Mechanism.respond m a))

let mechanism ~cache ~digest ~tag ~policy m =
  wrap ~cache ~digest ~tag ~project:(Policy.image policy) m

let exact ~cache ~digest ~tag m =
  wrap ~cache ~digest ~tag ~project:(fun a -> Value.tuple (Array.to_list a)) m

let checked ?(config = Soundness.default) ~cache ~digest ~tag ~policy ~space m
    =
  let cfg =
    Analyze.config ~view:config.Soundness.view
      ~identify_violations:config.Soundness.identify_violations space
  in
  match fst (Analyze.soundness cfg policy m) with
  | Soundness.Sound as v -> (mechanism ~cache ~digest ~tag ~policy m, v)
  | Soundness.Unsound _ as v -> (m, v)
