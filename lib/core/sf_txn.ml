(* The 2PLSF lock-set lifecycle (paper Algorithm 1, §3.5), written once.

   Every 2PLSF client — the undo-log STM, the redo-log family, the
   wait-or-die ablation and the DBx row engine — takes its locks through
   tryOrWait*Lock, logs them (write locks by index, read locks by
   indicator word), releases them at commit or abort, clears its
   announcement and waits for the conflictor before retrying.
   Only the storage log differs, so it rides in the ['log] field and the
   lock-set fields stay one load away from the client's descriptor. *)

module Obs = Twoplsf_obs
module Txn_loop = Twoplsf_cm.Txn_loop

(* ---- the lock table ---- *)

type table = {
  name : string;
  scope : Obs.Scope.t;
  num_locks : int ref;
  cell : Rwl_sf.t Util.Once.t;
}

let table ~name scope =
  let num_locks = ref 65536 in
  let cell =
    Util.Once.create (fun () ->
        let t = Rwl_sf.create ~num_locks:!num_locks () in
        Rwl_sf.set_obs t scope;
        t)
  in
  { name; scope; num_locks; cell }

let configure tbl ?(num_locks = 65536) () =
  if num_locks < 32 || num_locks land (num_locks - 1) <> 0 then
    invalid_arg (tbl.name ^ ".configure: num_locks must be a power of two >= 32");
  if Util.Once.is_forced tbl.cell then
    failwith (tbl.name ^ ".configure: lock table already built");
  tbl.num_locks := num_locks

let locks tbl = Util.Once.get tbl.cell
let clock_ops tbl = Rwl_sf.clock_increments (locks tbl)

let reset tbl =
  Rwl_sf.reset_clock_increments (locks tbl);
  Obs.Scope.reset tbl.scope

let leaked_locks tbl =
  if Util.Once.is_forced tbl.cell then Rwl_sf.leaked (locks tbl) else 0

(* ---- the per-thread lock set ---- *)

type 'log t = {
  locks : Rwl_sf.t;
  mask : int;
  ctx : Rwl_sf.ctx;
  rwords : int Util.Vec.t;
  wlocks : int Util.Vec.t;
  loop : Txn_loop.state;
  mutable abort_reason : Obs.Events.abort_reason;
  log : 'log;
}

let make locks ~tid log =
  {
    locks;
    mask = Rwl_sf.num_locks locks - 1;
    ctx = Rwl_sf.make_ctx ~tid;
    rwords = Util.Vec.create ~dummy:(-1) ();
    wlocks = Util.Vec.create ~dummy:(-1) ();
    loop = Txn_loop.make_state ~tid;
    abort_reason = Obs.Events.User_restart;
    log;
  }

(* The read set holds one lock index per indicator word a read made
   non-empty: [release] clears each such word in one store.  The lock index
   is [id land mask] ([Rwl_sf.lock_index]) computed here: under -opaque a
   call into Rwl_sf is never inlined. *)
let read_lock tx id =
  let w = id land tx.mask in
  match Rwl_sf.acquire_read tx.locks tx.ctx w with
  | Rwl_sf.Read_held -> ()
  | Rwl_sf.Read_first -> Util.Vec.push tx.rwords w
  | Rwl_sf.Read_failed ->
      tx.abort_reason <-
        (if tx.ctx.deadline_hit then Obs.Events.Deadline
         else Obs.Events.Read_lock_conflict);
      raise Txn_loop.Restart

let write_lock tx id =
  let t = tx.locks in
  let w = id land tx.mask in
  if not (Rwl_sf.holds_write t tx.ctx w) then
    if Rwl_sf.try_or_wait_write_lock t tx.ctx w then Util.Vec.push tx.wlocks w
    else begin
      tx.abort_reason <-
        (if tx.ctx.deadline_hit then Obs.Events.Deadline
         else if tx.ctx.preempted then Obs.Events.Priority_preemption
         else Obs.Events.Write_lock_conflict);
      raise Txn_loop.Restart
    end

let begin_attempt tx =
  Util.Vec.clear tx.rwords;
  Util.Vec.clear tx.wlocks;
  tx.ctx.deadline_hit <- false;
  tx.abort_reason <- Obs.Events.User_restart

let release tx =
  for i = 0 to Util.Vec.length tx.wlocks - 1 do
    Rwl_sf.write_unlock tx.locks tx.ctx (Util.Vec.get tx.wlocks i)
  done;
  for i = 0 to Util.Vec.length tx.rwords - 1 do
    Rwl_sf.release_read_word tx.locks tx.ctx (Util.Vec.get tx.rwords i)
  done

let clear_announcement tx = Rwl_sf.clear_announcement tx.locks tx.ctx

let finish tx =
  release tx;
  clear_announcement tx

let wait_for_conflictor tx = Rwl_sf.wait_for_conflictor tx.locks tx.ctx

(* §2.8: timestamp 1 is reserved; the Rwl_sf conflict clock starts at 2. *)
let irrevocable_priority = 1

let enter_irrevocable tx ~writer =
  if writer then Rwl_sf.zero_mutex_lock tx.locks;
  Rwl_sf.announce_priority tx.locks tx.ctx irrevocable_priority

let leave_irrevocable tx ~writer =
  if writer then Rwl_sf.zero_mutex_unlock tx.locks

module Hooks = struct
  let state tx = tx.loop

  (* The conflictor and lock the failed acquisition recorded in the ctx;
     explicit user restarts have neither. *)
  let provenance tx =
    match tx.abort_reason with
    | Obs.Events.User_restart -> (-1, -1, Obs.Events.User_restart)
    | r -> (tx.ctx.o_tid, tx.ctx.o_lock, r)

  let wait tx ~restarts:_ = wait_for_conflictor tx

  (* Locks are already released; also drop the priority announcement so no
     other thread keeps deferring to a timestamp that will never commit. *)
  let pre_raise = clear_announcement

  (* Serial-irrevocable fallback: the zero mutex and the reserved priority,
     so the next attempt cannot lose a conflict and commits. *)
  let escalate tx =
    clear_announcement tx;
    enter_irrevocable tx ~writer:true

  let deescalate tx = leave_irrevocable tx ~writer:true
  let set_deadline tx d = tx.ctx.deadline_ns <- d
end
