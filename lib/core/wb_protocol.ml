(* The write-back (redo-log) 2PLSF protocol family (paper §2: "a
   write-back protocol (redo-log) can also be used with either eager
   locking or deferred locking").

   Reads are pessimistic exactly as in Algorithm 1.  Writes are buffered
   and installed at commit; the functor parameter picks when their write
   locks are taken:
   - eager: at encounter time (like Algorithm 1, minus the in-place store);
   - deferred: at commit time, still through tryOrWaitWriteLock, so the
     starvation-freedom argument is unchanged — the expanding phase merely
     extends into the commit.

   Aborts discard the buffer instead of rolling memory back. *)

module Make (P : sig
  val name : string
  val eager : bool
end) =
struct
  let name = P.name

  module Obs = Twoplsf_obs
  module Chaos = Twoplsf_chaos.Chaos
  module Txn_loop = Twoplsf_cm.Txn_loop

  type 'a tvar = { id : int; mutable v : 'a }

  (* Redo-log entry; matched by unique tvar id, so the Obj.magic below only
     ever converts a value back to its own type (same trick, same safety
     argument as Baselines.Wset — duplicated here because the core library
     cannot depend on the baselines library). *)
  type rentry = R : { tv : 'a tvar; mutable nv : 'a } -> rentry

  type tx = {
    ctx : Rwl_sf.ctx;
    rset : int Util.Vec.t;
    wset : int Util.Vec.t;
    redo : rentry Util.Vec.t;
    mutable bloom : int;
    loop : Txn_loop.state;
    mutable abort_reason : Obs.Events.abort_reason;
  }

  let requested_num_locks = ref 65536
  let configured = ref false
  let obs = Obs.Scope.create P.name

  let table =
    Util.Once.create (fun () ->
        configured := true;
        let t = Rwl_sf.create ~num_locks:!requested_num_locks () in
        Rwl_sf.set_obs t obs;
        t)

  let configure ?(num_locks = 65536) () =
    if !configured then failwith (name ^ ".configure: lock table already built");
    requested_num_locks := num_locks

  let stats = Stm_intf.Stats.create ()

  let dummy_rentry = R { tv = { id = -1; v = () }; nv = () }

  let tx_key =
    Domain.DLS.new_key (fun () ->
        let tid = Util.Tid.get () in
        {
          ctx = Rwl_sf.make_ctx ~tid;
          rset = Util.Vec.create ~dummy:(-1) ();
          wset = Util.Vec.create ~dummy:(-1) ();
          redo = Util.Vec.create ~dummy:dummy_rentry ();
          bloom = 0;
          loop = Txn_loop.make_state ~tid;
          abort_reason = Obs.Events.User_restart;
        })

  let get_tx () = Domain.DLS.get tx_key

  let tvar v = { id = Util.Id_gen.next (); v }

  let bloom_bit id = 1 lsl (id land 62)

  let redo_find : type a. tx -> a tvar -> a option =
   fun tx tv ->
    if tx.bloom land bloom_bit tv.id = 0 then None
    else begin
      let n = Util.Vec.length tx.redo in
      let rec go i =
        if i >= n then None
        else
          match Util.Vec.get tx.redo i with
          | R e when e.tv.id = tv.id -> Some (Obj.magic e.nv)
          | R _ -> go (i + 1)
      in
      go 0
    end

  let redo_put tx tv nv =
    let n = Util.Vec.length tx.redo in
    let rec update i =
      if i >= n then Util.Vec.push tx.redo (R { tv; nv })
      else
        match Util.Vec.get tx.redo i with
        | R e when e.tv.id = tv.id -> e.nv <- Obj.magic nv
        | R _ -> update (i + 1)
    in
    if tx.bloom land bloom_bit tv.id = 0 then begin
      Util.Vec.push tx.redo (R { tv; nv });
      tx.bloom <- tx.bloom lor bloom_bit tv.id
    end
    else update 0

  let read tx tv =
    match redo_find tx tv with
    | Some v -> v
    | None ->
        let t = Util.Once.get table in
        let w = Rwl_sf.lock_index t tv.id in
        if Rwl_sf.holds_read t tx.ctx w || Rwl_sf.holds_write t tx.ctx w then
          tv.v
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

  let acquire_write_lock tx tv =
    let t = Util.Once.get table in
    let w = Rwl_sf.lock_index t tv.id in
    let held = Rwl_sf.holds_write t tx.ctx w in
    if held || Rwl_sf.try_or_wait_write_lock t tx.ctx w then begin
      if not held then Util.Vec.push tx.wset w;
      true
    end
    else begin
      tx.abort_reason <-
        (if tx.ctx.deadline_hit then Obs.Events.Deadline
         else if tx.ctx.preempted then Obs.Events.Priority_preemption
         else Obs.Events.Write_lock_conflict);
      false
    end

  let write tx tv nv =
    if P.eager && not (acquire_write_lock tx tv) then raise Txn_loop.Restart;
    redo_put tx tv nv

  let release_locks t tx =
    Util.Vec.iter (fun w -> Rwl_sf.write_unlock t tx.ctx w) tx.wset;
    Util.Vec.iter (fun w -> Rwl_sf.read_unlock t tx.ctx w) tx.rset

  let begin_attempt tx =
    Util.Vec.clear tx.rset;
    Util.Vec.clear tx.wset;
    Util.Vec.clear tx.redo;
    tx.bloom <- 0;
    tx.ctx.deadline_hit <- false;
    tx.abort_reason <- Obs.Events.User_restart

  (* Commit-time locking (deferred mode), write-back and release all count
     as the [Commit] phase. *)
  let commit tx =
    let t = Util.Once.get table in
    if !Chaos.on then Chaos.point Chaos.Pre_commit;
    (* Deferred locking: the expanding phase ends here. *)
    if not P.eager then
      Util.Vec.iter
        (fun (R e) ->
          if not (acquire_write_lock tx e.tv) then raise Txn_loop.Restart)
        tx.redo;
    (* Chaos: delay-only site — all write locks are held and the install
       below must run to completion (there is no undo log to recover a
       partial write-back); [Chaos.point] never raises by contract. *)
    if !Chaos.on then Chaos.point Chaos.Mid_writeback;
    (* Install buffered writes while every lock is held. *)
    Util.Vec.iter (fun (R e) -> e.tv.v <- e.nv) tx.redo;
    release_locks t tx;
    Rwl_sf.clear_announcement t tx.ctx

  (* No rollback needed: memory was never written.  Just drop locks. *)
  let abort_cleanup tx = release_locks (Util.Once.get table) tx

  let irrevocable_priority = 1

  include Txn_loop.Make (struct
    type nonrec tx = tx

    let name = name
    let stats = stats
    let scope = Some obs
    let get_tx = get_tx
    let state tx = tx.loop
    let begin_attempt tx ~read_only:_ = begin_attempt tx
    let commit = commit
    let rollback = abort_cleanup

    let cleanup tx =
      abort_cleanup tx;
      Rwl_sf.clear_announcement (Util.Once.get table) tx.ctx

    let provenance tx =
      match tx.abort_reason with
      | Obs.Events.User_restart -> (-1, -1, Obs.Events.User_restart)
      | r -> (tx.ctx.o_tid, tx.ctx.o_lock, r)

    let wait tx ~restarts:_ =
      Rwl_sf.wait_for_conflictor (Util.Once.get table) tx.ctx

    let pre_raise tx = Rwl_sf.clear_announcement (Util.Once.get table) tx.ctx

    let escalate tx =
      let t = Util.Once.get table in
      Rwl_sf.clear_announcement t tx.ctx;
      Rwl_sf.zero_mutex_lock t;
      Rwl_sf.announce_priority t tx.ctx irrevocable_priority

    let deescalate _ = Rwl_sf.zero_mutex_unlock (Util.Once.get table)
    let set_deadline tx d = tx.ctx.deadline_ns <- d
  end)

  let clock_ops () = Rwl_sf.clock_increments (Util.Once.get table)

  let reset_stats () =
    Stm_intf.Stats.reset stats;
    Rwl_sf.reset_clock_increments (Util.Once.get table);
    Obs.Scope.reset obs

  let leaked_locks () =
    if !configured then Rwl_sf.leaked (Util.Once.get table) else 0
end
