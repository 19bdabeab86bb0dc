(** Waiting-loop pacing.

    The paper's [pause()] is an x86 PAUSE executed while spinning.  Here a
    waiting domain may share a hardware core with the lock holder it waits
    for (more domains than cores), and a spinner that never yields would
    hold that core for a full scheduler timeslice (milliseconds).  {!once}
    therefore escalates: six [Domain.cpu_relax] hints, then [Unix.sleepf]
    calls of 1-20 µs that return the core to the runnable lock holder.

    Those sleeps are not short in practice: Linux rounds a sleep up by the
    thread's timer slack ([/proc/self/timerslack_ns], 50 µs by default),
    so on a 2-vCPU Linux host with the default slack [Unix.sleepf 1e-6]
    measured ~58 µs on average.  Every escalated step, {!yield} and
    {!exponential} with [attempt >= 2] therefore costs at least about
    50 µs, which sets the tail latency of short conflicting transactions.
    On a host with idle cores the relax phase dominates and behaviour
    approximates the paper's spin-wait. *)

type t

val create : unit -> t
(** Fresh pacing state, one per waiting loop. *)

val once : t -> unit
(** One wait step; call inside the loop body exactly where the paper's
    pseudocode says [pause()]. *)

val reset : t -> unit
(** Forget escalation (call after the awaited condition made progress). *)

val yield : unit -> unit
(** Unconditionally give up the core with a 1 µs [Unix.sleepf], which
    lasts about one timer slack in practice (see above). *)

val exponential : attempt:int -> unit
(** Capped exponential backoff used by the no-wait concurrency controls
    between aborted attempts ([attempt] = 1, 2, ...).  This is the backoff
    strategy §2.1 contrasts with 2PLSF's wait-for-conflictor. *)
