(** The unified word-based STM signature.

    Every concurrency control in this repository — the paper's 2PLSF and
    all the baselines it is evaluated against (TL2, TinySTM/LSA, TLRW,
    OREC, OneFile, the 2PL no-wait variants of Figure 2, classic 2PL
    wait-or-die) — implements this one signature.  The transactional data
    structures of the evaluation (linked list, hash set, skip list, zip
    tree, relaxed AVL tree) are functors over it, so a single data
    structure definition runs under eleven concurrency controls. *)

module Stats = Stm_stats
(** Re-export so dependants reach the stats type through the library's main
    module ([Stm_intf.Stats]). *)

exception
  Starved of {
    stm : string;  (** which concurrency control gave up *)
    restarts : int;  (** attempts consumed before giving up *)
    abort_reasons : (string * int) list;
        (** the STM's telemetry abort-reason snapshot at exhaustion time
            ([[]] when telemetry is off or the STM has no scope) *)
  }
(** Raised by {!STM.atomic} instead of retrying forever when the
    {!policy}'s [max_restarts] bound is hit and the serial-irrevocable
    fallback is off.  Every implementation raises it only after the failed
    attempt has fully rolled back and released its locks (and cleared any
    priority announcement), so a [Starved] escape leaves the lock table
    clean. *)

exception
  Deadline_exceeded of {
    stm : string;  (** which concurrency control gave up *)
    restarts : int;  (** attempts consumed before the deadline fired *)
    elapsed_ns : int;  (** time since the transaction first began *)
  }
(** Raised by {!STM.atomic} when the {!policy}'s per-transaction
    [deadline_ns] budget is blown and the serial-irrevocable fallback is
    off.  Same cleanliness contract as {!Starved}: full rollback, all
    locks released, any priority announcement cleared. *)

exception
  Degraded_read_only of {
    engine : string;  (** which engine flipped read-only ("DBx-2PLSF", ...) *)
    reason : string;  (** the first log-device failure, verbatim *)
  }
(** Raised instead of committing when the engine's write-ahead log
    device has failed permanently (DESIGN.md §16): the write transaction
    has been fully rolled back (or was refused before acquiring locks),
    every lock is released, and the engine keeps serving reads.  Writes
    keep raising this until the operator replaces the device and
    restarts; reads never do. *)

type cm_choice =
  | Cm_paper  (** each STM's native inter-attempt behaviour (the default) *)
  | Cm_backoff  (** capped exponential backoff with per-thread jitter *)
  | Cm_hybrid
      (** backoff for the first [hybrid_restarts] restarts, then the
          native (priority-wait) behaviour *)

type policy = {
  max_restarts : int;
      (** per-transaction restart bound; 0 (default) = unbounded retry *)
  deadline_ns : int;
      (** per-transaction completion budget; 0 (default) = none.  A
          transaction that blows it restarts once with a fresh budget and
          then either escalates to the serial-irrevocable path (when
          [fallback]) or raises {!Deadline_exceeded}. *)
  cm : cm_choice;  (** inter-attempt contention-management policy *)
  hybrid_restarts : int;  (** [Cm_hybrid] switchover point *)
  backoff_seed : int;  (** base seed of the per-thread backoff jitter *)
  admission : bool;  (** AIMD admission gate on transaction entry *)
  fallback : bool;
      (** escalate exhausted/late transactions through the
          serial-irrevocable slow path instead of raising *)
}
(** The overload-protection policy, one immutable record for all knobs
    that every STM's restart path consults (DESIGN.md §11).  Replaces the
    bare mutable [max_restarts] ref of earlier revisions: a single ref to
    an immutable record is read with one load and can never be observed
    half-updated from another domain. *)

let default_policy =
  {
    max_restarts = 0;
    deadline_ns = 0;
    cm = Cm_paper;
    hybrid_restarts = 8;
    backoff_seed = 0xB0FF;
    admission = false;
    fallback = false;
  }

let policy = ref default_policy

(* Number of harness worker cohorts currently running — maintained by
   Harness.Exec so {!install_policy} can assert (in debug builds) that the
   policy is never swapped while transactions may be consulting it. *)
let active_workers = Atomic.make 0
let workers_started () = Atomic.incr active_workers
let workers_finished () = Atomic.decr active_workers

let install_policy p =
  assert (Atomic.get active_workers = 0);
  policy := p

let current_policy () = !policy

let hit_restart_bound restarts =
  let m = !policy.max_restarts in
  m > 0 && restarts >= m

let starved ~stm ~restarts reasons =
  raise (Starved { stm; restarts; abort_reasons = reasons () })

let deadline_exceeded ~stm ~restarts ~elapsed_ns =
  raise (Deadline_exceeded { stm; restarts; elapsed_ns })

module type STM = sig
  val name : string
  (** Short label used in benchmark output ("2PLSF", "TL2", ...). *)

  type tx
  (** An in-flight transaction attempt, one per thread. *)

  type 'a tvar
  (** A transactional variable: the OCaml analogue of a transactionally
      accessed memory word (see DESIGN.md §3.2 on the address → id
      substitution). *)

  val tvar : 'a -> 'a tvar
  (** Allocate a fresh tvar with the given initial value.  Safe to call
      inside or outside transactions; a tvar published by a transaction
      becomes visible atomically with the publishing write. *)

  val read : tx -> 'a tvar -> 'a
  (** Transactional read ([stmRead]).  May internally restart the enclosing
      {!atomic} by raising the shared [Txn_loop.Restart] exception: never
      catch arbitrary exceptions around it inside a transaction. *)

  val write : tx -> 'a tvar -> 'a -> unit
  (** Transactional write ([stmWrite]); same restart caveat as {!read}. *)

  val atomic : ?read_only:bool -> (tx -> 'a) -> 'a
  (** Run a transaction to commit, retrying on conflicts.  [read_only] is a
      hint that lets optimistic STMs skip write-set machinery; it is sound
      only if the body performs no {!write}.  Nested calls flatten into the
      outermost transaction.  Exceptions raised by the body abort the
      transaction (all writes rolled back, all locks released) and
      propagate.  When the installed {!policy} bounds restarts or time and
      the fallback is off, raises {!Starved} / {!Deadline_exceeded} (after
      full rollback) instead of retrying; with the fallback on the
      transaction escalates to the serial-irrevocable slow path and still
      commits. *)

  val commits : unit -> int
  (** Committed transactions since the last {!reset_stats}. *)

  val aborts : unit -> int
  (** Aborted attempts since the last {!reset_stats}. *)

  val clock_ops : unit -> int
  (** Increments of the STM's central clock since the last {!reset_stats}
      — the contention §3.3 of the paper identifies as the scalability
      limiter of TL2/TinySTM (one per write transaction) and of 2PL
      wait-or-die (one per transaction), versus 2PLSF's one per
      *conflict*.  0 for STMs with no central clock. *)

  val reset_stats : unit -> unit

  val last_restarts : unit -> int
  (** Number of times the calling thread's most recently completed
      top-level transaction was restarted before committing.  Used by the
      starvation-freedom tests (2PLSF bounds this by [N_threads - 1]). *)

  val leaked_locks : unit -> int
  (** Post-run lock sweep: how many of this STM's locks (or ownership
      records) are still held.  Zero in quiescence — after every
      transaction has committed, aborted, or escaped with an exception —
      on a correct implementation; the chaos harness asserts exactly
      that.  Racy while transactions are in flight.  0 when the STM's
      lock table has not been built yet. *)
end
