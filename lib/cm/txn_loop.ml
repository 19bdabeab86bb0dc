(* The transaction attempt loop shared by every STM (DESIGN.md §11.7).

   The paper's restart rule (Algorithm 1: roll back, release, wait for the
   conflictor, retry) plus the overload layer built on it — admission,
   deadlines, the Cm escalation ladder, the serial fallback and the
   phase/abort telemetry — written once.  Each STM passes its protocol
   hooks; the loop decides when each one runs.

   The commit fast path allocates nothing: the per-transaction values
   (start time, commit-phase start) live in the thread's [state] and the
   attempt function is a closed top-level recursion, not a closure. *)

module Obs = Twoplsf_obs

exception Restart

type state = {
  tid : int;
  ov : Cm.state;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  mutable escalated : bool;
      (* Cm escalated this transaction mid-flight: [deescalate] is owed on
         every exit path *)
  mutable irrevocable : bool;
      (* entered through [atomic_irrevocable]: exempt from overload
         protection, it cannot lose a conflict and must commit *)
  mutable txn_t0 : int;
  mutable commit_t0 : int;
}

let make_state ~tid =
  {
    tid;
    ov = Cm.make_state ();
    depth = 0;
    restarts = 0;
    finished_restarts = 0;
    escalated = false;
    irrevocable = false;
    txn_t0 = 0;
    commit_t0 = 0;
  }

let restarts st = st.restarts
let active st = st.depth > 0

module type PROTOCOL = sig
  type tx

  val name : string
  val stats : Stm_intf.Stats.t
  val scope : Obs.Scope.t option
  val get_tx : unit -> tx
  val state : tx -> state
  val begin_attempt : tx -> read_only:bool -> unit
  val commit : tx -> unit
  val rollback : tx -> unit
  val cleanup : tx -> unit
  val provenance : tx -> int * int * Obs.Events.abort_reason
  val wait : tx -> restarts:int -> unit
  val pre_raise : tx -> unit
  val escalate : tx -> unit
  val deescalate : tx -> unit
  val set_deadline : tx -> int -> unit
end

module Make (P : PROTOCOL) = struct
  let scoped = Option.is_some P.scope
  let now telemetry = if telemetry then Obs.Telemetry.now_ns () else 0

  let event st ev =
    match P.scope with Some sc -> Obs.Scope.event sc ~tid:st.tid ev | None -> ()

  let deescalate st tx =
    if st.escalated then begin
      st.escalated <- false;
      P.deescalate tx
    end

  let rec attempt st tx ~telemetry ~read_only f att_t0 =
    P.begin_attempt tx ~read_only;
    st.depth <- 1;
    match
      let v = f tx in
      st.depth <- 0;
      if telemetry then st.commit_t0 <- Obs.Telemetry.now_ns ();
      P.commit tx;
      v
    with
    | v ->
        deescalate st tx;
        Stm_intf.Stats.commit P.stats ~tid:st.tid;
        st.finished_restarts <- st.restarts;
        (if telemetry then
           match P.scope with
           | Some sc ->
               Obs.Scope.txn_commit sc ~tid:st.tid ~txn_t0_ns:st.txn_t0
                 ~att_t0_ns:att_t0 ~commit_t0_ns:st.commit_t0 ()
           | None -> ());
        v
    | exception Restart ->
        st.depth <- 0;
        P.rollback tx;
        Stm_intf.Stats.abort P.stats ~tid:st.tid;
        (if telemetry then
           match P.scope with
           | Some sc ->
               let aborter, lock, reason = P.provenance tx in
               Obs.Scope.txn_abort sc ~aborter ~lock ~tid:st.tid
                 ~att_t0_ns:att_t0 reason
           | None -> ());
        st.restarts <- st.restarts + 1;
        if st.escalated || st.irrevocable then begin
          (* Already on the serial slow path: only a spurious failure can
             abort us, so retry unconditionally. *)
          P.wait tx ~restarts:st.restarts;
          attempt st tx ~telemetry ~read_only f (now telemetry)
        end
        else begin
          match
            Cm.after_abort ~stm:P.name ~tid:st.tid ~restarts:st.restarts
              ~st:st.ov
              ~native_wait:(fun () -> P.wait tx ~restarts:st.restarts)
              ~cleanup:(fun () -> P.pre_raise tx)
              ~reasons:(fun () ->
                match P.scope with
                | Some sc when telemetry -> Obs.Scope.abort_counts sc
                | _ -> [])
          with
          | Cm.Retry ->
              P.set_deadline tx st.ov.Cm.deadline;
              attempt st tx ~telemetry ~read_only f (now telemetry)
          | Cm.Escalate ->
              (* Serial-irrevocable fallback (DESIGN.md §11.5): the
                 remaining attempts run on the STM's serial slow path. *)
              P.escalate tx;
              st.escalated <- true;
              P.set_deadline tx 0;
              if telemetry then event st Obs.Events.Irrevocable_fallback;
              attempt st tx ~telemetry ~read_only f (now telemetry)
        end
    | exception e ->
        st.depth <- 0;
        P.cleanup tx;
        deescalate st tx;
        raise e

  let run st tx ~read_only f =
    st.restarts <- 0;
    P.set_deadline tx (if st.irrevocable then 0 else Cm.begin_txn st.ov);
    let telemetry = scoped && !Obs.Telemetry.on in
    st.txn_t0 <- now telemetry;
    attempt st tx ~telemetry ~read_only f st.txn_t0

  let atomic ?(read_only = false) f =
    let tx = P.get_tx () in
    let st = P.state tx in
    if st.depth > 0 then f tx
    else if !Admission.on then begin
      Admission.enter ();
      match run st tx ~read_only f with
      | v ->
          Admission.leave ();
          v
      | exception e ->
          Admission.leave ();
          raise e
    end
    else run st tx ~read_only f

  (* No admission gate: the caller may already hold a serializing lock (the
     2PLSF zero mutex), and waiting for a token while holding it would
     deadlock against a token holder that escalates. *)
  let atomic_irrevocable f =
    let tx = P.get_tx () in
    let st = P.state tx in
    st.irrevocable <- true;
    match run st tx ~read_only:false f with
    | v ->
        st.irrevocable <- false;
        v
    | exception e ->
        st.irrevocable <- false;
        raise e

  let commits () = Stm_intf.Stats.commits P.stats
  let aborts () = Stm_intf.Stats.aborts P.stats
  let last_restarts () = (P.state (P.get_tx ())).finished_restarts
end

module Fallback_hooks = struct
  let pre_raise _ = ()
  let escalate _ = Cm.Fallback.acquire ()
  let deescalate _ = Cm.Fallback.release ()
  let set_deadline _ _ = ()
end

let backoff ~scope ~tid ~restarts =
  if !Obs.Telemetry.on then begin
    let t0 = Obs.Telemetry.now_ns () in
    Util.Backoff.exponential ~attempt:restarts;
    Obs.Scope.phase_add scope ~tid Obs.Phase.Backoff
      (Obs.Telemetry.now_ns () - t0)
  end
  else Util.Backoff.exponential ~attempt:restarts
