(* Latency samples: a fixed-size uniform reservoir (Vitter's algorithm R)
   of exact integer-nanosecond durations per client.  Keeping exact
   values rather than histogram buckets means a percentile moves with
   every sample instead of stepping between bucket bounds; the reservoir
   bounds memory however long the run is. *)

type t = { buf : int array; mutable seen : int; rng : Util.Sprng.t }

let create ~cap ~seed = { buf = Array.make cap 0; seen = 0; rng = Util.Sprng.create seed }

let add t ns =
  let cap = Array.length t.buf in
  if t.seen < cap then t.buf.(t.seen) <- ns
  else begin
    let j = Util.Sprng.int t.rng (t.seen + 1) in
    if j < cap then t.buf.(j) <- ns
  end;
  t.seen <- t.seen + 1

let seen t = t.seen
let kept t = min t.seen (Array.length t.buf)

(* All kept samples of several reservoirs, sorted.  Reservoirs that saw
   different numbers of operations are merged as they are: each client
   runs the same closed loop, so their counts differ only slightly. *)
let sorted ts =
  let a = Array.concat (List.map (fun t -> Array.sub t.buf 0 (kept t)) ts) in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [q] in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
