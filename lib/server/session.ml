module Frame = Secpol_journal.Frame

type t = {
  spec : Wire.open_session;
  mutable consecutive_degraded : int;
  mutable open_until : float;
  cache : Secpol_engine.Cache.t;
}

(* The wire hands this cache attacker-chosen keys (exact input vectors of
   any arbitrary request), so it must be bounded: LRU keeps the hot
   verdicts, overflow recomputes. *)
let cache_capacity = 4096

let create spec =
  {
    spec;
    consecutive_degraded = 0;
    open_until = 0.;
    cache = Secpol_engine.Cache.create ~capacity:cache_capacity ();
  }

let name t = t.spec.Wire.session

let spec_equal (a : Wire.open_session) (b : Wire.open_session) = a = b

let valid_name s = s <> "" && not (String.contains s '/')

let manifest_prefix = "sessions/"

let manifest_key session = Store.subkey [ "sessions"; session; "meta" ]

let media_key ~session ~request_id =
  Store.subkey [ "sessions"; session; Printf.sprintf "req-%d" request_id ]

let media_prefix ~session = Store.subkey [ "sessions"; session ] ^ "/req-"

(* The manifest is the session's own Open_session message, framed by the
   wire codec — one byte layout for the wire and the store. *)
let save store t =
  Store.put store (manifest_key (name t))
    (Wire.encode_request (Wire.Open_session t.spec))

let load_all store =
  let keys = Store.keys store ~prefix:manifest_prefix in
  let sessions =
    List.filter_map
      (fun key ->
        if Filename.basename key <> "meta" then None
        else
          match Store.get store key with
          | None -> None
          | Some data -> (
              match Result.bind (Frame.one data) Wire.decode_request with
              | Ok (Wire.Open_session spec) -> Some (create spec)
              | Ok _ | Error _ -> None))
      keys
  in
  List.sort (fun a b -> compare (name a) (name b)) sessions

let breaker_open t ~now = t.open_until > now

let record_outcome t ~now ~threshold ~cooldown ~degraded =
  if degraded then begin
    t.consecutive_degraded <- t.consecutive_degraded + 1;
    if t.consecutive_degraded >= threshold then t.open_until <- now +. cooldown
  end
  else begin
    t.consecutive_degraded <- 0;
    t.open_until <- 0.
  end
