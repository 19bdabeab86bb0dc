(* AIMD admission control (DESIGN.md §11).

   A token gate on transaction entry: at most [width] transactions run
   concurrently.  A controller, piggybacked on whichever thread trips the
   interval check first (no dedicated domain), samples the telemetry
   counters, and

     - halves [width] (multiplicative decrease, floor [min_width]) when
       the window's abort rate or lock-wait p99 crosses the configured
       thresholds,
     - grows it by one (additive increase, ceiling [max_width]) when the
       window is healthy or too quiet to judge.

   The gate is off by default; the fast path for a disabled gate is one
   load + predicted branch ([!on]), same discipline as obs/chaos. *)

module Obs = Twoplsf_obs

let on = ref false

type ctrl = {
  max_width : int;
  min_width : int;
  interval_ns : int;
  abort_high : float;
  abort_low : float;
  p99_high_ns : int;
  sample : unit -> int * int; (* cumulative (commits, aborts) *)
  lock_wait : (unit -> int array) option; (* cumulative wait buckets *)
  width : int Atomic.t;
  inflight : int Atomic.t;
  last_update : int Atomic.t;
  (* Controller-private window state: only the thread that wins the
     [last_update] CAS touches these, so plain mutable fields suffice. *)
  mutable prev_commits : int;
  mutable prev_aborts : int;
  mutable prev_buckets : int array;
  shrinks : int Atomic.t;
  grows : int Atomic.t;
}

let ctrl : ctrl option ref = ref None

(* Default signal source: sum commit/abort cumulatives over every
   registered telemetry scope (the monitor's convention — hist_txn totals
   are monotonic across harness resets). *)
let default_sample () =
  List.fold_left
    (fun (c, a) sc ->
      let commits = Array.fold_left ( + ) 0 (Obs.Scope.hist_txn sc) in
      let aborts =
        List.fold_left
          (fun acc (_, n) -> acc + n)
          0
          (Obs.Scope.cumulative_abort_counts sc)
      in
      (c + commits, a + aborts))
    (0, 0) (Obs.Scope.all ())

let default_lock_wait () =
  let acc = Array.make Obs.Histogram.num_buckets 0 in
  List.iter
    (fun sc ->
      Array.iteri
        (fun i v -> acc.(i) <- acc.(i) + v)
        (Obs.Scope.hist_lock_wait sc))
    (Obs.Scope.all ());
  acc

let grow c =
  let w = Atomic.get c.width in
  if w < c.max_width then begin
    Atomic.set c.width (w + 1);
    Atomic.incr c.grows
  end

let shrink c =
  let w = Atomic.get c.width in
  let w' = Stdlib.max c.min_width (w / 2) in
  if w' < w then begin
    Atomic.set c.width w';
    Atomic.incr c.shrinks
  end

let update c =
  let commits, aborts = c.sample () in
  let dc = Stdlib.max 0 (commits - c.prev_commits) in
  let da = Stdlib.max 0 (aborts - c.prev_aborts) in
  c.prev_commits <- commits;
  c.prev_aborts <- aborts;
  let p99, wait_samples =
    match c.lock_wait with
    | None -> (0, 0)
    | Some f ->
        let cur = f () in
        let d =
          Array.mapi (fun i v -> Stdlib.max 0 (v - c.prev_buckets.(i))) cur
        in
        c.prev_buckets <- cur;
        let n = Array.fold_left ( + ) 0 d in
        ((if n = 0 then 0 else Obs.Histogram.percentile_upper_of_buckets d 99.), n)
  in
  let samples = dc + da in
  (* Too few samples to judge an abort rate: treat as healthy/idle. *)
  if samples < 16 then grow c
  else begin
    let rate = float_of_int da /. float_of_int samples in
    let p99_bad =
      c.p99_high_ns > 0 && wait_samples > 0 && p99 > c.p99_high_ns
      && p99 < max_int
    in
    if rate > c.abort_high || p99_bad then shrink c
    else if rate < c.abort_low then grow c
  end

let maybe_update c =
  let now = Obs.Telemetry.now_ns () in
  let last = Atomic.get c.last_update in
  if now - last >= c.interval_ns && Atomic.compare_and_set c.last_update last now
  then update c

let enter () =
  match !ctrl with
  | None -> ()
  | Some c ->
      maybe_update c;
      let b = Util.Backoff.create () in
      let rec loop () =
        let infl = Atomic.get c.inflight in
        if infl < Atomic.get c.width then begin
          if not (Atomic.compare_and_set c.inflight infl (infl + 1)) then
            loop ()
        end
        else begin
          Util.Backoff.once b;
          maybe_update c;
          loop ()
        end
      in
      loop ()

let leave () = match !ctrl with None -> () | Some c -> Atomic.decr c.inflight

let width () = match !ctrl with None -> 0 | Some c -> Atomic.get c.width
let inflight () = match !ctrl with None -> 0 | Some c -> Atomic.get c.inflight

let counters () =
  match !ctrl with
  | None -> []
  | Some c ->
      [
        ("admission_width", Atomic.get c.width);
        ("admission_inflight", Atomic.get c.inflight);
        ("admission_shrinks", Atomic.get c.shrinks);
        ("admission_grows", Atomic.get c.grows);
      ]

let tick () =
  match !ctrl with
  | None -> ()
  | Some c ->
      Atomic.set c.last_update (Obs.Telemetry.now_ns ());
      update c

let install ?(max_width = 4096) ?(min_width = 1) ?(interval_ms = 10)
    ?(abort_high = 0.5) ?(abort_low = 0.2) ?(p99_high_ns = 0) ?sample
    ?lock_wait () =
  let sample = Option.value sample ~default:default_sample in
  let lock_wait =
    match (lock_wait, p99_high_ns) with
    | (Some _ as lw), _ -> lw
    | None, 0 -> None
    | None, _ -> Some default_lock_wait
  in
  let prev_commits, prev_aborts = sample () in
  let c =
    {
      max_width;
      min_width;
      interval_ns = interval_ms * 1_000_000;
      abort_high;
      abort_low;
      p99_high_ns;
      sample;
      lock_wait;
      width = Atomic.make max_width;
      inflight = Atomic.make 0;
      last_update = Atomic.make (Obs.Telemetry.now_ns ());
      prev_commits;
      prev_aborts;
      prev_buckets =
        (match lock_wait with
        | Some f -> f ()
        | None -> Array.make Obs.Histogram.num_buckets 0);
      shrinks = Atomic.make 0;
      grows = Atomic.make 0;
    }
  in
  ctrl := Some c;
  on := true;
  (* Stream the gate through the live monitor when it is running. *)
  Obs.Monitor.add_gauges ~name:"admission" (fun () -> counters ())

let uninstall () =
  on := false;
  ctrl := None
