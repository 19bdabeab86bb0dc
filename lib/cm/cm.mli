(** Pluggable contention management and the overload-protection decision
    procedure (DESIGN.md §11).

    The shared attempt loop ({!Txn_loop}) and OneFile's read-only loop
    call {!after_abort} after every failed attempt; it implements the
    escalation ladder — retry (paced by the installed wait policy) →
    bounded restarts → per-transaction deadline → serial-irrevocable
    fallback or a typed exception ({!Stm_intf.Starved} /
    {!Stm_intf.Deadline_exceeded}).  The [Paper_wait] policy reproduces
    each STM's pre-existing behaviour exactly and is the default, so
    figure reproduction is unchanged unless a different
    {!Stm_intf.policy} is installed. *)

type verdict =
  | Retry  (** re-attempt the transaction (the wait already happened) *)
  | Escalate
      (** switch to the serial-irrevocable slow path for the next attempt
          (2PLSF: zero-mutex + priority 1; baselines: {!Fallback}) *)

type state = { mutable deadline : int; mutable strikes : int }
(** Per-transaction overload state, embedded in the STM's transaction
    descriptor.  [deadline] is absolute ({!Twoplsf_obs.Telemetry.now_ns}
    clock), 0 = none. *)

val make_state : unit -> state

val begin_txn : state -> int
(** Arm [state] for a fresh top-level transaction from the installed
    {!Stm_intf.policy}: strikes reset, deadline = now + budget (0 when no
    deadline is configured).  Returns the absolute deadline so the caller
    can mirror it into its lock-layer ctx. *)

module type POLICY = sig
  val name : string

  val wait :
    tid:int ->
    restarts:int ->
    scope:Twoplsf_obs.Scope.t option ->
    native_wait:(unit -> unit) ->
    unit
  (** Pace the gap between a failed attempt and its retry.  [native_wait]
      is the STM's own inter-attempt behaviour (2PLSF's
      wait-for-conflictor; the no-wait baselines' capped exponential) and
      records its own telemetry phase.  [scope] is the STM's telemetry
      scope ([None] with telemetry off): waits the policy performs itself
      are attributed to {!Twoplsf_obs.Phase.Backoff} against it. *)
end

module Paper_wait : POLICY
(** Delegates to [native_wait] — today's behaviour, the default. *)

module Backoff : POLICY
(** Capped exponential backoff (1 µs · 2^restarts, capped at 1 ms) with
    full per-thread SplitMix jitter; ignores [native_wait]. *)

module Hybrid : POLICY
(** [Backoff] until the policy's [hybrid_restarts] bound, then the native
    wait — cheap de-synchronization first, priority waiting once the
    conflict is persistent. *)

val policy_of_choice : Stm_intf.cm_choice -> (module POLICY)
val choice_name : Stm_intf.cm_choice -> string

val choice_of_name : string -> Stm_intf.cm_choice
(** Inverse of {!choice_name} ("paper" | "backoff" | "hybrid");
    [Invalid_argument] otherwise.  Used by the bench CLI. *)

val backoff_delay_ns : tid:int -> restarts:int -> int
(** Draw the next backoff delay for [tid] — full jitter, uniform in
    [1, min(1 ms, 1 µs · 2^min(restarts,10))].  Advances the thread's
    stream; exposed so tests can check seed determinism. *)

val reseed : int -> unit
(** Re-seed every thread's backoff stream from a base seed (thread [i]
    gets [seed lxor ((i+1) * 0x9E3779B9)]).  Called by {!install}. *)

val after_abort :
  stm:string ->
  tid:int ->
  restarts:int ->
  st:state ->
  native_wait:(unit -> unit) ->
  cleanup:(unit -> unit) ->
  reasons:(unit -> (string * int) list) ->
  verdict
(** The overload decision after a failed attempt has fully rolled back
    (locks released; announcement still standing is fine — [cleanup] is
    invoked before any raise).  In order: a blown deadline raises
    {!Stm_intf.Deadline_exceeded} (fallback off), escalates on the second
    strike (fallback on), or refreshes the budget once; an exhausted
    restart bound raises {!Stm_intf.Starved} or escalates; otherwise the
    installed wait policy runs and the verdict is [Retry]. *)

val escalations : unit -> int
val deadline_strikes : unit -> int

val counters : unit -> (string * int) list
(** Process-lifetime overload counters (racy reads):
    [cm_escalations], [cm_deadline_strikes], [cm_deadline_raises]. *)

val reset_counters : unit -> unit

module Fallback : sig
  val acquire : unit -> unit
  val release : unit -> unit
end
(** Global mutex serializing escalated transactions of STMs without the
    §2.8 irrevocable path.  The holder still runs the STM's normal
    protocol; the mutex only bounds how many exhausted transactions grind
    forward concurrently (at most one). *)

val install : Stm_intf.policy -> unit
(** {!Stm_intf.install_policy} plus {!reseed} from the policy's
    [backoff_seed].  Must run before worker domains start. *)
