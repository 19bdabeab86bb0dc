let name = "2PLSF"

module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos
module Txn_loop = Twoplsf_cm.Txn_loop

type 'a tvar = { id : int; mutable v : 'a; mutable stamp : int }
(* [stamp] identifies the transaction attempt that last undo-logged this
   tvar; written only under the tvar's write lock. *)

type wentry = W : { tv : 'a tvar; old : 'a } -> wentry

type tx = {
  ctx : Rwl_sf.ctx;
  rset : int Util.Vec.t; (* read-locked lock indices *)
  wset : int Util.Vec.t; (* write-locked lock indices *)
  undo : wentry Util.Vec.t;
  mutable stamp : int; (* unique per attempt: serial * max_threads + tid *)
  mutable serial : int;
  loop : Txn_loop.state;
  mutable abort_reason : Obs.Events.abort_reason;
      (* why the in-flight attempt raised Restart; telemetry only *)
}

(* ---- global state ---- *)

let requested_num_locks = ref 65536
let configured = ref false

let obs = Obs.Scope.create "2PLSF"

let table =
  Util.Once.create (fun () ->
      configured := true;
      let t = Rwl_sf.create ~num_locks:!requested_num_locks () in
      Rwl_sf.set_obs t obs;
      t)

let configure ?(num_locks = 65536) () =
  if !configured then failwith "Twoplsf.Stm.configure: lock table already built";
  requested_num_locks := num_locks

let lock_table () = Util.Once.get table

module Stm_stats = Stm_intf.Stats

let stats = Stm_stats.create ()

let restart_hist_buckets = 128

let restart_hist =
  Array.init restart_hist_buckets (fun _ -> Atomic.make 0)

let dummy_wentry = W { tv = { id = -1; v = (); stamp = -1 }; old = () }

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        ctx = Rwl_sf.make_ctx ~tid;
        rset = Util.Vec.create ~dummy:(-1) ();
        wset = Util.Vec.create ~dummy:(-1) ();
        undo = Util.Vec.create ~dummy:dummy_wentry ();
        stamp = tid;
        serial = 0;
        loop = Txn_loop.make_state ~tid;
        abort_reason = Obs.Events.User_restart;
      })

let get_tx () = Domain.DLS.get tx_key

(* ---- tvars ---- *)

let tvar v = { id = Util.Id_gen.next (); v; stamp = -1 }

let read tx tv =
  let t = Util.Once.get table in
  let w = Rwl_sf.lock_index t tv.id in
  if Rwl_sf.holds_read t tx.ctx w || Rwl_sf.holds_write t tx.ctx w then tv.v
  else if Rwl_sf.try_or_wait_read_lock t tx.ctx w then begin
    Util.Vec.push tx.rset w;
    tv.v
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.deadline_hit then Obs.Events.Deadline
       else Obs.Events.Read_lock_conflict);
    raise Txn_loop.Restart
  end

let write tx tv nv =
  let t = Util.Once.get table in
  let w = Rwl_sf.lock_index t tv.id in
  let held = Rwl_sf.holds_write t tx.ctx w in
  if held || Rwl_sf.try_or_wait_write_lock t tx.ctx w then begin
    if not held then Util.Vec.push tx.wset w;
    if tv.stamp <> tx.stamp then begin
      Util.Vec.push tx.undo (W { tv; old = tv.v });
      tv.stamp <- tx.stamp
    end;
    tv.v <- nv
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.deadline_hit then Obs.Events.Deadline
       else if tx.ctx.preempted then Obs.Events.Priority_preemption
       else Obs.Events.Write_lock_conflict);
    raise Txn_loop.Restart
  end

(* ---- transaction lifecycle ---- *)

let begin_attempt tx =
  Util.Vec.clear tx.rset;
  Util.Vec.clear tx.wset;
  Util.Vec.clear tx.undo;
  tx.serial <- tx.serial + 1;
  tx.stamp <- (tx.serial * Util.Tid.max_threads) + tx.ctx.tid;
  tx.ctx.deadline_hit <- false;
  tx.abort_reason <- Obs.Events.User_restart

let release_locks t tx =
  Util.Vec.iter (fun w -> Rwl_sf.write_unlock t tx.ctx w) tx.wset;
  Util.Vec.iter (fun w -> Rwl_sf.read_unlock t tx.ctx w) tx.rset

(* Bucket 0 is derived as commits - sum(others) at read time so the common
   no-restart commit path touches no shared counter. *)
let record_restart_count n =
  if n > 0 then begin
    let b = if n >= restart_hist_buckets then restart_hist_buckets - 1 else n in
    Atomic.incr restart_hist.(b)
  end

let commit tx =
  let t = Util.Once.get table in
  if !Chaos.on then Chaos.point Chaos.Pre_commit;
  release_locks t tx;
  Rwl_sf.clear_announcement t tx.ctx;
  record_restart_count (Txn_loop.restarts tx.loop)

let rollback tx =
  let t = Util.Once.get table in
  (* Undo newest-first *before* releasing any write lock. *)
  Util.Vec.iter_rev (fun (W { tv; old }) -> tv.v <- old) tx.undo;
  (* Chaos: delay-only site — an exception here would corrupt the
     rollback; [Chaos.point] never raises by contract. *)
  if !Chaos.on then Chaos.point Chaos.Mid_rollback;
  release_locks t tx

let irrevocable_priority = 1

module Loop = Txn_loop.Make (struct
  type nonrec tx = tx

  let name = name
  let stats = stats
  let scope = Some obs
  let get_tx = get_tx
  let state tx = tx.loop
  let begin_attempt tx ~read_only:_ = begin_attempt tx
  let commit = commit
  let rollback = rollback

  let cleanup tx =
    rollback tx;
    Rwl_sf.clear_announcement (Util.Once.get table) tx.ctx

  (* The conflictor and lock the failed acquisition recorded in the ctx;
     explicit user restarts have neither. *)
  let provenance tx =
    match tx.abort_reason with
    | Obs.Events.User_restart -> (-1, -1, Obs.Events.User_restart)
    | r -> (tx.ctx.o_tid, tx.ctx.o_lock, r)

  let wait tx ~restarts:_ =
    Rwl_sf.wait_for_conflictor (Util.Once.get table) tx.ctx

  (* Locks are already released; also drop the priority announcement so no
     other thread keeps deferring to a timestamp that will never commit. *)
  let pre_raise tx = Rwl_sf.clear_announcement (Util.Once.get table) tx.ctx

  (* Serial-irrevocable fallback: the zero mutex and the reserved priority,
     so the next attempt cannot lose a conflict and commits. *)
  let escalate tx =
    let t = Util.Once.get table in
    Rwl_sf.clear_announcement t tx.ctx;
    Rwl_sf.zero_mutex_lock t;
    Rwl_sf.announce_priority t tx.ctx irrevocable_priority

  let deescalate _ = Rwl_sf.zero_mutex_unlock (Util.Once.get table)
  let set_deadline tx d = tx.ctx.deadline_ns <- d
end)

(* 2PLSF reads are pessimistic; read-only transactions take the same path
   (no commit-time validation exists to skip). *)
let atomic = Loop.atomic

(* §2.8: announce the reserved priority (and, for writers, take the zero
   mutex serializing irrevocable writers) before the first attempt; the
   shared loop then runs the body exempt from overload protection. *)
let irrevocably ~fn ~writer f =
  let tx = get_tx () in
  if Txn_loop.active tx.loop then
    invalid_arg (fn ^ ": already in a transaction");
  let t = Util.Once.get table in
  if writer then Rwl_sf.zero_mutex_lock t;
  Rwl_sf.announce_priority t tx.ctx irrevocable_priority;
  if !Obs.Telemetry.on then
    Obs.Scope.event obs ~tid:tx.ctx.tid Obs.Events.Irrevocable_upgrade;
  match Loop.atomic_irrevocable f with
  | v ->
      if writer then Rwl_sf.zero_mutex_unlock t;
      v
  | exception e ->
      if writer then Rwl_sf.zero_mutex_unlock t;
      raise e

let atomic_irrevocable_ro f =
  irrevocably ~fn:"atomic_irrevocable_ro" ~writer:false f

let atomic_irrevocable f = irrevocably ~fn:"atomic_irrevocable" ~writer:true f

(* ---- statistics ---- *)

let commits = Loop.commits
let aborts = Loop.aborts
let clock_ops () = Rwl_sf.clock_increments (Util.Once.get table)

let reset_stats () =
  Stm_stats.reset stats;
  Rwl_sf.reset_clock_increments (Util.Once.get table);
  Obs.Scope.reset obs;
  Array.iter (fun c -> Atomic.set c 0) restart_hist

let last_restarts = Loop.last_restarts

let leaked_locks () = if !configured then Rwl_sf.leaked (Util.Once.get table) else 0

let restart_histogram () =
  let h = Array.map Atomic.get restart_hist in
  let restarted = Array.fold_left ( + ) 0 h in
  h.(0) <- Stdlib.max 0 (commits () - restarted);
  h
