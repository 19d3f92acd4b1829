(* Partition refinement over the I-kernel.

   The brute-force yardstick (Maximal.table) runs Q on every point of the
   space. But the per-class verdict is decided long before the class is
   exhausted: a class is Mixed as soon as ONE member's observable differs
   from the first member's, and only a constant class ever needs every
   member evaluated. So: partition the space by policy image first — the
   image is a pure projection, orders of magnitude cheaper than an
   interpreter run — then refine each class member-by-member in
   enumeration order, stopping at the first split. Everything the brute
   builder keeps (the first-enumerated outcome of a constant class, the
   Mixed marker) is reproduced bit-for-bit; only the Q runs after a
   class's first mismatch are skipped. The drivers that run this kernel
   on the engine pool live in Secpol_engine.Analyze. *)

type partition = {
  points : Value.t array array;  (* the whole space, lexicographic order *)
  keys : Value.t array;  (* class keys, in first-member order *)
  members : int array array;  (* members.(c) = point indices, ascending *)
}

type stats = {
  space_size : int;
  class_count : int;
  runs : int;
  saved : int;  (* space_size - runs: evaluations the refinement skipped *)
}

(* Structural fast path for [allow(J)]: under lexicographic enumeration
   the I-kernel is pure index arithmetic. Strides decrease with position,
   and for any position [p], [sum_{q>p} (|D_q|-1) * stride_q = stride_p - 1]
   (telescoping) — so digits at a position dominate every lower digit even
   when the positions in between belong to the other set. Hence classes in
   ascending allowed-digit order ARE the first-appearance order the generic
   hash pass produces, and members in ascending disallowed-digit order ARE
   ascending point indices. Only valid when every domain's values are
   pairwise distinct: a duplicated domain value would make two digit
   combinations carry the same image, which the hash pass merges and index
   arithmetic must not. *)
let structural_members policy space n =
  match Policy.allowed_indices policy with
  | None -> None
  | Some j ->
      let k = Space.arity space in
      let doms = Array.init k (Space.domain space) in
      let distinct d =
        let ok = ref true in
        Array.iteri
          (fun i x ->
            Array.iteri
              (fun l y -> if l > i && Value.equal x y then ok := false)
              d)
          d;
        !ok
      in
      if not (Array.for_all distinct doms) then None
      else begin
        let sizes = Array.map Array.length doms in
        let strides = Array.make (max k 1) 1 in
        for i = k - 2 downto 0 do
          strides.(i) <- strides.(i + 1) * sizes.(i + 1)
        done;
        let apos = ref [] and dpos = ref [] in
        for i = k - 1 downto 0 do
          if Iset.mem i j then apos := i :: !apos else dpos := i :: !dpos
        done;
        let apos = Array.of_list !apos and dpos = Array.of_list !dpos in
        let product ps = Array.fold_left (fun acc p -> acc * sizes.(p)) 1 ps in
        let nclasses = product apos and csize = product dpos in
        if nclasses * csize <> n then None
        else
          Some
            (Array.init nclasses (fun c ->
                 let base = ref 0 and cc = ref c in
                 for t = Array.length apos - 1 downto 0 do
                   let p = apos.(t) in
                   base := !base + (!cc mod sizes.(p)) * strides.(p);
                   cc := !cc / sizes.(p)
                 done;
                 let base = !base in
                 Array.init csize (fun m ->
                     let idx = ref base and mm = ref m in
                     for t = Array.length dpos - 1 downto 0 do
                       let p = dpos.(t) in
                       idx := !idx + (!mm mod sizes.(p)) * strides.(p);
                       mm := !mm / sizes.(p)
                     done;
                     !idx)))
      end

let generic_partition policy points =
  let n = Array.length points in
  let ids : (Value.t, int) Hashtbl.t = Hashtbl.create 1024 in
  let keys_rev = ref [] in
  let nclasses = ref 0 in
  let class_of = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let key = Policy.image policy points.(i) in
    let c =
      match Hashtbl.find_opt ids key with
      | Some c -> c
      | None ->
          let c = !nclasses in
          Hashtbl.add ids key c;
          keys_rev := key :: !keys_rev;
          incr nclasses;
          c
    in
    class_of.(i) <- c
  done;
  let k = !nclasses in
  let keys = Array.make k Value.unit in
  List.iteri (fun j key -> keys.(k - 1 - j) <- key) !keys_rev;
  let sizes = Array.make k 0 in
  for i = 0 to n - 1 do
    sizes.(class_of.(i)) <- sizes.(class_of.(i)) + 1
  done;
  let members = Array.init k (fun c -> Array.make sizes.(c) 0) in
  let fill = Array.make k 0 in
  for i = 0 to n - 1 do
    let c = class_of.(i) in
    members.(c).(fill.(c)) <- i;
    fill.(c) <- fill.(c) + 1
  done;
  { points; keys; members }

let partition policy space =
  let points = Array.of_seq (Space.enumerate space) in
  match structural_members policy space (Array.length points) with
  | Some members ->
      let keys =
        Array.map (fun ms -> Policy.image policy points.(ms.(0))) members
      in
      { points; keys; members }
  | None -> generic_partition policy points

(* One class, refined: evaluate members in enumeration order against the
   first member's observable, stop at the first split. Returns the brute
   builder's entry for the class — Serve keeps the FIRST member's outcome,
   exactly as Maximal.table's "keep the first-enumerated outcome" does —
   plus the number of runs spent. Analyze's refined driver runs it as one
   pool task per class. *)
let refine_class ~view ~run pt c =
  let ms = pt.members.(c) in
  let n = Array.length ms in
  let o0 = run pt.points.(ms.(0)) in
  let obs0 = Program.observe view o0 in
  let rec go i =
    if i >= n then (Maximal.Serve (o0, obs0), n)
    else
      let o = run pt.points.(ms.(i)) in
      if Program.Obs.equal (Program.observe view o) obs0 then go (i + 1)
      else (Maximal.Mixed, i + 1)
  in
  go 1

(* The maximal mechanism's grant count, read off the class table: a class
   is granted exactly when its entry serves a proper value (the mechanism
   answers [Granted v] there and every member's run produced [v] — that is
   what a constant observable means), so the count is the summed size of
   the value-serving classes. No mechanism or program run is needed:
   equal, grant for grant, to [Completeness.grant_count] of the built
   mechanism. *)
let class_grants = function
  | Maximal.Serve ({ Program.result = Program.Value _; _ }, _) -> true
  | Maximal.Serve _ | Maximal.Mixed -> false

let grant_count_of_table pt tbl =
  let g = ref 0 in
  Array.iteri
    (fun c ms ->
      match Hashtbl.find_opt tbl pt.keys.(c) with
      | Some e when class_grants e -> g := !g + Array.length ms
      | _ -> ())
    pt.members;
  (!g, Array.length pt.points)

(* A canonical rendering of a class table, for differential gates: entries
   sorted by key, the Serve outcome pinned through the `Timed observable
   (which carries both the result and the step count) alongside the
   observable the table was built at. Two tables fingerprint equal iff
   they would answer identically as mechanisms and count identically as
   class tallies. *)
let table_fingerprint tbl =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Value.compare a b)
  |> List.map (fun (k, e) ->
         let entry =
           match e with
           | Maximal.Mixed -> "mixed"
           | Maximal.Serve (o, obs) ->
               Printf.sprintf "serve[%s|%s]"
                 (Program.Obs.to_string (Program.observe `Timed o))
                 (Program.Obs.to_string obs)
         in
         Printf.sprintf "%s=%s" (Value.to_string k) entry)
  |> String.concat ";"

let pp_stats ppf s =
  Format.fprintf ppf "%d point(s) in %d class(es): %d run(s), %d saved"
    s.space_size s.class_count s.runs s.saved
