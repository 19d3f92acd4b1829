(* Order statistics for the reported numbers. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, on a sorted array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile_sorted (sorted a) 0.5

(* A growable float buffer: latency samples of one phase. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
