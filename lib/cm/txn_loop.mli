(** The transaction attempt loop shared by every STM (DESIGN.md §11.7).

    One copy of the paper's restart rule — roll back, release, wait, retry
    (Algorithm 1, line 26) — together with everything the overload layer
    hangs on it: flat nesting, the AIMD admission gate, the contention
    manager's escalation ladder ({!Cm.after_abort}: retry, escalate,
    {!Stm_intf.Starved}, {!Stm_intf.Deadline_exceeded}), the serial
    fallback, commit/abort statistics and phase/abort telemetry.  An STM
    supplies only its protocol hooks ({!PROTOCOL}) and gets [atomic],
    [commits], [aborts] and [last_restarts] back. *)

exception Restart
(** Raised by an STM's read, write or commit hook to abandon the current
    attempt; the loop rolls it back and decides whether to retry.  The
    OCaml stand-in for the paper's longjmp back to [beginTxn]. *)

type state
(** Per-thread loop state, embedded in the STM's transaction descriptor:
    nesting depth, restart counts, escalation flags and the {!Cm.state}. *)

val make_state : tid:int -> state

val restarts : state -> int
(** Restarts of the in-flight top-level transaction so far. *)

val active : state -> bool
(** [true] inside a transaction body. *)

module type PROTOCOL = sig
  type tx

  val name : string
  (** STM label, passed to {!Cm.after_abort} and its typed exceptions. *)

  val stats : Stm_intf.Stats.t

  val scope : Twoplsf_obs.Scope.t option
  (** Telemetry scope; [None] records no phase, abort or event telemetry
      for this STM. *)

  val get_tx : unit -> tx
  (** The calling thread's descriptor. *)

  val state : tx -> state

  val begin_attempt : tx -> read_only:bool -> unit
  (** Reset per-attempt state before the body runs. *)

  val commit : tx -> unit
  (** Make the attempt's effects visible and release its locks; may raise
      {!Restart} (commit-time locking or validation failed), in which case
      it must not leave locks behind that {!rollback} cannot release. *)

  val rollback : tx -> unit
  (** Undo an attempt that raised {!Restart} and release its locks. *)

  val cleanup : tx -> unit
  (** Undo an attempt that raised any other exception, leaving no lock and
      no priority announcement behind. *)

  val provenance : tx -> int * int * Twoplsf_obs.Events.abort_reason
  (** [(aborter tid, lock id, reason)] of the attempt that just raised
      {!Restart}; -1 for an unknown side.  Read only with telemetry on. *)

  val wait : tx -> restarts:int -> unit
  (** The STM's native inter-attempt wait (2PLSF: wait for the
      conflictor; no-wait baselines: capped exponential backoff). *)

  val pre_raise : tx -> unit
  (** Drop what must not outlive a transaction that gives up with
      {!Stm_intf.Starved} / {!Stm_intf.Deadline_exceeded} (locks are
      already released). *)

  val escalate : tx -> unit
  (** Enter the serial slow path: 2PLSF's zero mutex plus the reserved
      priority, or {!Cm.Fallback} ({!Fallback_hooks}). *)

  val deescalate : tx -> unit
  (** Leave it again; runs once on every exit of an escalated
      transaction. *)

  val set_deadline : tx -> int -> unit
  (** Mirror the absolute deadline (0 = none) into the lock layer. *)
end

module Make (P : PROTOCOL) : sig
  val atomic : ?read_only:bool -> (P.tx -> 'a) -> 'a
  (** {!Stm_intf.STM.atomic}. *)

  val atomic_irrevocable : (P.tx -> 'a) -> 'a
  (** Run a top-level transaction the caller has already made unable to
      lose a conflict (2PLSF §2.8).  It bypasses the admission gate, has
      no deadline and never consults the contention manager: an abort can
      only be a spurious one, so it waits natively and retries.  The
      caller checks it is not nested ({!active}). *)

  val commits : unit -> int
  val aborts : unit -> int
  val last_restarts : unit -> int
end

module Fallback_hooks : sig
  val pre_raise : _ -> unit
  val escalate : _ -> unit
  val deescalate : _ -> unit
  val set_deadline : _ -> int -> unit
end
(** The hooks of an STM without an irrevocable mode, a priority
    announcement or a lock-layer deadline: escalation serializes on
    {!Cm.Fallback}, and there is nothing to drop or mirror. *)

val backoff : scope:Twoplsf_obs.Scope.t -> tid:int -> restarts:int -> unit
(** Capped exponential backoff between attempts, attributed to the
    [Backoff] phase of [scope] when telemetry is on. *)
