(* The pluggable contention manager and the overload-protection decision
   procedure (DESIGN.md §11).

   The shared attempt loop (Txn_loop) and OneFile's read-only loop funnel
   every failed attempt through [after_abort], which implements the
   escalation ladder: retry (with the installed inter-attempt wait policy)
   -> bounded restarts -> deadline -> serial-irrevocable fallback or a
   typed exception.  The wait policies themselves are tiny modules of
   the [POLICY] signature so new strategies can be added without touching
   any STM. *)

module Obs = Twoplsf_obs

type verdict = Retry | Escalate

(* Per-transaction overload state, embedded in the STM's transaction
   descriptor next to the Rwl_sf ctx.  [deadline] is absolute
   ({!Obs.Telemetry.now_ns} clock), 0 = none; [strikes] counts deadline
   blows within the current top-level transaction. *)
type state = { mutable deadline : int; mutable strikes : int }

let make_state () = { deadline = 0; strikes = 0 }

(* Fresh top-level transaction: reset the strike count and arm the
   deadline from the installed policy.  Returns the absolute deadline so
   the caller can mirror it into its lock-layer ctx. *)
let begin_txn st =
  let p = Stm_intf.current_policy () in
  st.strikes <- 0;
  st.deadline <-
    (if p.Stm_intf.deadline_ns = 0 then 0
     else Obs.Telemetry.now_ns () + p.Stm_intf.deadline_ns);
  st.deadline

(* ---- wait policies ---- *)

module type POLICY = sig
  val name : string

  val wait :
    tid:int ->
    restarts:int ->
    scope:Obs.Scope.t option ->
    native_wait:(unit -> unit) ->
    unit
  (** Pace the gap between a failed attempt and its retry.  [native_wait]
      is the STM's own inter-attempt behaviour (2PLSF's
      wait-for-conflictor, the no-wait baselines' capped exponential) and
      records its own telemetry phase; [scope] (the STM's telemetry
      scope, [None] with telemetry off) is for waits the policy performs
      itself, attributed to {!Twoplsf_obs.Phase.Backoff}. *)
end

module Paper_wait : POLICY = struct
  let name = "paper"
  let wait ~tid:_ ~restarts:_ ~scope:_ ~native_wait = native_wait ()
end

(* Capped exponential backoff with full per-thread jitter.  Each thread
   owns a SplitMix stream (golden-ratio-scrambled from the policy's base
   seed) so delays never synchronize between threads and a fixed seed
   reproduces the exact delay sequence. *)
let backoff_rngs =
  Array.init Util.Tid.max_threads (fun i ->
      Util.Sprng.create
        (Stm_intf.default_policy.Stm_intf.backoff_seed
        lxor ((i + 1) * 0x9E3779B9)))

let reseed seed =
  Array.iteri
    (fun i _ ->
      backoff_rngs.(i) <- Util.Sprng.create (seed lxor ((i + 1) * 0x9E3779B9)))
    backoff_rngs

let backoff_cap_ns = 1_000_000 (* 1 ms *)
let backoff_base_ns = 1_000 (* 1 us *)

(* Full jitter: uniform in [1, min(cap, base * 2^restarts)]. *)
let backoff_delay_ns ~tid ~restarts =
  let ceiling =
    Stdlib.min backoff_cap_ns (backoff_base_ns lsl Stdlib.min restarts 10)
  in
  1 + Util.Sprng.int backoff_rngs.(tid) ceiling

module Backoff : POLICY = struct
  let name = "backoff"

  let wait ~tid ~restarts ~scope ~native_wait:_ =
    let ns = backoff_delay_ns ~tid ~restarts in
    match scope with
    | None -> Unix.sleepf (float_of_int ns /. 1e9)
    | Some sc ->
        let t0 = Obs.Telemetry.now_ns () in
        Unix.sleepf (float_of_int ns /. 1e9);
        Obs.Scope.phase_add sc ~tid Obs.Phase.Backoff
          (Obs.Telemetry.now_ns () - t0)
end

module Hybrid : POLICY = struct
  let name = "hybrid"

  let wait ~tid ~restarts ~scope ~native_wait =
    if restarts <= (Stm_intf.current_policy ()).Stm_intf.hybrid_restarts then
      Backoff.wait ~tid ~restarts ~scope ~native_wait
    else native_wait ()
end

let policy_of_choice : Stm_intf.cm_choice -> (module POLICY) = function
  | Stm_intf.Cm_paper -> (module Paper_wait)
  | Stm_intf.Cm_backoff -> (module Backoff)
  | Stm_intf.Cm_hybrid -> (module Hybrid)

let choice_name c =
  let (module P : POLICY) = policy_of_choice c in
  P.name

let choice_of_name = function
  | "paper" -> Stm_intf.Cm_paper
  | "backoff" -> Stm_intf.Cm_backoff
  | "hybrid" -> Stm_intf.Cm_hybrid
  | s -> invalid_arg ("Cm.choice_of_name: unknown policy " ^ s)

(* ---- counters (process-lifetime, racy-read like the obs counters) ---- *)

let escalations_c = Atomic.make 0
let deadline_strikes_c = Atomic.make 0
let deadline_raises_c = Atomic.make 0
let escalations () = Atomic.get escalations_c
let deadline_strikes () = Atomic.get deadline_strikes_c

let counters () =
  [
    ("cm_escalations", Atomic.get escalations_c);
    ("cm_deadline_strikes", Atomic.get deadline_strikes_c);
    ("cm_deadline_raises", Atomic.get deadline_raises_c);
  ]

let reset_counters () =
  Atomic.set escalations_c 0;
  Atomic.set deadline_strikes_c 0;
  Atomic.set deadline_raises_c 0

(* ---- the decision procedure ---- *)

let after_abort ~stm ~tid ~restarts ~st ~native_wait ~cleanup ~reasons =
  let p = Stm_intf.current_policy () in
  let now = Obs.Telemetry.now_ns () in
  if st.deadline <> 0 && now > st.deadline then begin
    st.strikes <- st.strikes + 1;
    Atomic.incr deadline_strikes_c;
    if not p.Stm_intf.fallback then begin
      Atomic.incr deadline_raises_c;
      cleanup ();
      Stm_intf.deadline_exceeded ~stm ~restarts
        ~elapsed_ns:(p.Stm_intf.deadline_ns + (now - st.deadline))
    end
    else if st.strikes >= 2 then begin
      Atomic.incr escalations_c;
      Escalate
    end
    else begin
      (* First strike with the fallback armed: one fresh budget, and no
         inter-attempt wait — the transaction is already late. *)
      st.deadline <- now + p.Stm_intf.deadline_ns;
      Retry
    end
  end
  else if Stm_intf.hit_restart_bound restarts then
    if p.Stm_intf.fallback then begin
      Atomic.incr escalations_c;
      Escalate
    end
    else begin
      cleanup ();
      Stm_intf.starved ~stm ~restarts reasons
    end
  else begin
    let (module P : POLICY) = policy_of_choice p.Stm_intf.cm in
    (* The scope lookup (a short registry scan) only happens with
       telemetry on, on the abort path — never on the commit fast path. *)
    let scope = if !Obs.Telemetry.on then Obs.Scope.find stm else None in
    P.wait ~tid ~restarts ~scope ~native_wait;
    Retry
  end

(* ---- serial fallback for STMs without §2.8 irrevocability ---- *)

(* One global mutex serializing escalated baseline transactions.  The
   escalated holder still runs the STM's normal protocol (so it remains
   correct against concurrent non-escalated transactions); the mutex only
   guarantees that at most one exhausted transaction grinds forward at a
   time, which bounds the serial pass the p999 acceptance criterion
   allows. *)
module Fallback = struct
  let m = Mutex.create ()
  let acquire () = Mutex.lock m
  let release () = Mutex.unlock m
end

let install p =
  Stm_intf.install_policy p;
  reseed p.Stm_intf.backoff_seed
