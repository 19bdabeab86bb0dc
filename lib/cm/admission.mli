(** AIMD admission control: a token gate on transaction entry
    (DESIGN.md §11).

    At most [width] transactions run concurrently; a controller —
    piggybacked on whichever entering thread trips the interval check, no
    dedicated domain — halves [width] when the window's abort rate or
    lock-wait p99 crosses the thresholds (multiplicative decrease) and
    grows it by one when the window is healthy or idle (additive
    increase).  Off by default; disabled cost is one load + predicted
    branch on {!on}, the obs/chaos discipline. *)

val on : bool ref
(** Fast gate consulted on transaction entry ({!Txn_loop} and OneFile).
    Set by {!install}, cleared by {!uninstall}; never set it directly. *)

val install :
  ?max_width:int ->
  ?min_width:int ->
  ?interval_ms:int ->
  ?abort_high:float ->
  ?abort_low:float ->
  ?p99_high_ns:int ->
  ?sample:(unit -> int * int) ->
  ?lock_wait:(unit -> int array) ->
  unit ->
  unit
(** Build the controller and open the gate at [max_width] (default 4096).
    Window length [interval_ms] (default 10 ms); shrink when window abort
    rate > [abort_high] (default 0.5) or, when [p99_high_ns] > 0, when the
    window's lock-wait p99 exceeds it; grow when abort rate <
    [abort_low] (default 0.2) or the window has fewer than 16 samples.
    [sample] returns cumulative (commits, aborts) — defaults to summing
    every telemetry scope (requires {!Twoplsf_obs.Telemetry.on} for
    non-zero signal); [lock_wait] returns cumulative wait buckets.  Also
    installs a {!Twoplsf_obs.Monitor.set_gauges} closure so the monitor
    stream shows gate width over time.  Call before worker domains
    start. *)

val uninstall : unit -> unit

val enter : unit -> unit
(** Block (backoff-spin) until a token is available, then take it.  Also
    runs the controller when the interval elapsed.  No-op when not
    installed. *)

val leave : unit -> unit
(** Return the token.  Callers must pair every {!enter} with exactly one
    [leave], including on exceptional exit. *)

val width : unit -> int
val inflight : unit -> int

val counters : unit -> (string * int) list
(** [admission_width], [admission_inflight], [admission_shrinks],
    [admission_grows]; empty when not installed. *)

val tick : unit -> unit
(** Force one controller update immediately (tests). *)
