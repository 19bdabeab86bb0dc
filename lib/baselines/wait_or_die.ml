module Rwl_sf = Twoplsf.Rwl_sf

let name = "2PL-WaitDie"

module Obs = Twoplsf_obs
module Txn_loop = Twoplsf_cm.Txn_loop

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = {
  ctx : Rwl_sf.ctx;
  rset : int Util.Vec.t;
  wlocks : int Util.Vec.t;
  undo : Wset.t;
  loop : Txn_loop.state;
  mutable abort_reason : Obs.Events.abort_reason;
}

let requested_num_locks = ref 65536
let built = ref false
let obs = Obs.Scope.create name

let table =
  Util.Once.create (fun () ->
      built := true;
      let t = Rwl_sf.create ~num_locks:!requested_num_locks () in
      Rwl_sf.set_obs t obs;
      t)

let configure ?(num_locks = 65536) () =
  if !built then failwith "Wait_or_die.configure: lock table already built";
  requested_num_locks := num_locks

let stats = Stm_intf.Stats.create ()

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        ctx = Rwl_sf.make_ctx ~tid;
        rset = Util.Vec.create ~dummy:(-1) ();
        wlocks = Util.Vec.create ~dummy:(-1) ();
        undo = Wset.create ();
        loop = Txn_loop.make_state ~tid;
        abort_reason = Obs.Events.User_restart;
      })

let get_tx () = Domain.DLS.get tx_key

let read tx (tv : 'a tvar) : 'a =
  let t = Util.Once.get table in
  let w = Rwl_sf.lock_index t tv.id in
  if Rwl_sf.holds_read t tx.ctx w || Rwl_sf.holds_write t tx.ctx w then tv.v
  else if Rwl_sf.try_or_wait_read_lock t tx.ctx w then begin
    Util.Vec.push tx.rset w;
    tv.v
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.Rwl_sf.deadline_hit then Obs.Events.Deadline
       else Obs.Events.Read_lock_conflict);
    raise Txn_loop.Restart
  end

let write tx tv nv =
  let t = Util.Once.get table in
  let w = Rwl_sf.lock_index t tv.id in
  let held = Rwl_sf.holds_write t tx.ctx w in
  if held || Rwl_sf.try_or_wait_write_lock t tx.ctx w then begin
    if not held then Util.Vec.push tx.wlocks w;
    Wset.log_old_once tx.undo tv tv.v;
    tv.v <- nv
  end
  else begin
    tx.abort_reason <-
      (if tx.ctx.Rwl_sf.deadline_hit then Obs.Events.Deadline
       else if tx.ctx.Rwl_sf.preempted then Obs.Events.Priority_preemption
       else Obs.Events.Write_lock_conflict);
    raise Txn_loop.Restart
  end

let release tx =
  let t = Util.Once.get table in
  Util.Vec.iter (fun w -> Rwl_sf.write_unlock t tx.ctx w) tx.wlocks;
  Util.Vec.iter (fun w -> Rwl_sf.read_unlock t tx.ctx w) tx.rset

let rollback tx =
  Wset.rollback tx.undo;
  release tx

(* After dying, wait until no in-flight transaction has a lower timestamp
   — even non-conflicting ones (the wait-or-die behaviour §2.1 contrasts
   with 2PLSF's wait-for-the-specific-conflictor). *)
let wait_for_all_lower t tx =
  let b = Util.Backoff.create () in
  let someone_lower () =
    let hwm = Util.Tid.high_water () in
    let rec go tid =
      if tid >= hwm then false
      else if tid <> tx.ctx.tid then begin
        let ts = Rwl_sf.announced t tid in
        if ts > 0 && ts < tx.ctx.my_ts then true else go (tid + 1)
      end
      else go (tid + 1)
    in
    go 0
  in
  while someone_lower () do
    Util.Backoff.once b
  done

let begin_attempt t tx =
  Util.Vec.clear tx.rset;
  Util.Vec.clear tx.wlocks;
  Wset.clear tx.undo;
  tx.ctx.Rwl_sf.deadline_hit <- false;
  tx.abort_reason <- Obs.Events.User_restart;
  (* The wait-or-die signature: a timestamp on *every* transaction (kept
     across restarts so progress is guaranteed). *)
  Rwl_sf.take_timestamp t tx.ctx

include Txn_loop.Make (struct
  type nonrec tx = tx

  let name = name
  let stats = stats
  let scope = Some obs
  let get_tx = get_tx
  let state tx = tx.loop
  let begin_attempt tx ~read_only:_ = begin_attempt (Util.Once.get table) tx

  let commit tx =
    release tx;
    Rwl_sf.clear_announcement (Util.Once.get table) tx.ctx

  let rollback = rollback

  let cleanup tx =
    rollback tx;
    Rwl_sf.clear_announcement (Util.Once.get table) tx.ctx

  (* The shared Rwl_sf slow path pins the conflicting lock and owner in the
     ctx, exactly as for 2PLSF proper. *)
  let provenance tx =
    match tx.abort_reason with
    | Obs.Events.User_restart -> (-1, -1, Obs.Events.User_restart)
    | r -> (tx.ctx.Rwl_sf.o_tid, tx.ctx.Rwl_sf.o_lock, r)

  (* The kept (now oldest-aging) timestamp guarantees eventual commit. *)
  let wait tx ~restarts:_ = wait_for_all_lower (Util.Once.get table) tx

  (* Drop the announced timestamp before bailing out so no surviving
     transaction keeps deferring to a dead one. *)
  let pre_raise tx = Rwl_sf.clear_announcement (Util.Once.get table) tx.ctx

  (* Retire the timestamp before blocking on the fallback mutex: its holder
     waits for every older announced transaction, so a waiter that kept
     its timestamp would deadlock against it.  The next attempt draws a
     fresh one. *)
  let escalate tx =
    pre_raise tx;
    Txn_loop.Fallback_hooks.escalate tx

  let deescalate = Txn_loop.Fallback_hooks.deescalate
  let set_deadline tx d = tx.ctx.Rwl_sf.deadline_ns <- d
end)

let clock_ops () = Rwl_sf.clock_increments (Util.Once.get table)

let reset_stats () =
  Stm_intf.Stats.reset stats;
  Rwl_sf.reset_clock_increments (Util.Once.get table);
  Obs.Scope.reset obs
let leaked_locks () =
  if !built then Rwl_sf.leaked (Util.Once.get table) else 0
