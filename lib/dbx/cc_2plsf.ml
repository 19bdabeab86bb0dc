module Rwl_sf = Twoplsf.Rwl_sf
module Sf_txn = Twoplsf.Sf_txn
module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos
module Wal = Twoplsf_wal.Wal

let name = "2PLSF"

(* Registered under a "DBx-" prefix so it does not collide with the STM's
   "2PLSF" scope; Runner looks it up as "DBx-" ^ name. *)
let obs = Obs.Scope.create "DBx-2PLSF"

type per_thread = (int * Bytes.t) Util.Vec.t Sf_txn.t
(* the log holds (rid, pre-image) pairs *)

type t = {
  table : Table.t;
  threads : per_thread array;
  mutable wal : Wal.t option;  (* durability hook; None = in-memory only *)
  degraded : string option Atomic.t;
      (* once set, the engine is read-only: writes raise
         [Stm_intf.Degraded_read_only], reads keep serving (§16) *)
  m_readonly_rejects : int Atomic.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 32

let create table =
  let locks = Rwl_sf.create ~num_locks:(next_pow2 (Table.num_rows table)) () in
  Rwl_sf.set_obs locks obs;
  {
    table;
    threads =
      Array.init Util.Tid.max_threads (fun tid ->
          Sf_txn.make locks ~tid (Util.Vec.create ~dummy:(-1, Bytes.empty) ()));
    wal = None;
    degraded = Atomic.make None;
    m_readonly_rejects = Atomic.make 0;
  }

let set_wal t w = t.wal <- w
let wal t = t.wal
let degraded_reason t = Atomic.get t.degraded
let readonly_rejects t = Atomic.get t.m_readonly_rejects

let enter_degraded t reason =
  ignore (Atomic.compare_and_set t.degraded None (Some reason))

let readonly_fail t reason =
  Atomic.incr t.m_readonly_rejects;
  raise (Stm_intf.Degraded_read_only { engine = "DBx-2PLSF"; reason })

(* Put every pre-image back, newest first. *)
let undo t (p : per_thread) =
  Util.Vec.iter_rev
    (fun (rid, image) -> Bytes.blit image 0 (Table.payload t.table rid) 0 Table.tuple_size)
    p.log;
  (* Close every row's checkpoint seqlock window only after the whole
     pre-image is back in place (a duplicate rid's mark is already even
     after the first pass — [mark_undo] is parity-guarded). *)
  match t.wal with
  | Some w -> Util.Vec.iter (fun (rid, _) -> Wal.mark_undo w ~rid) p.log
  | None -> ()

(* Commit finalization under the full write-lock set.  With a WAL
   attached and at least one write, the commit window is where the LSN
   is drawn ([Wal.log_commit] under the locks aligns LSN order with the
   serialization order) — the durability *wait* happens after release,
   so holding the locks never spans an fsync. *)
let commit_locked t (p : per_thread) =
  match t.wal with
  | Some w when not (Util.Vec.is_empty p.log) -> begin
      if !Chaos.on then Chaos.point Chaos.Commit_durable_pre;
      match
        Wal.log_commit w ~tid:p.ctx.tid ~n:(Util.Vec.length p.log)
          ~rid:(fun i -> fst (Util.Vec.get p.log i))
      with
      | exception Wal.Degraded reason ->
          (* The log refused before drawing an LSN: locks are still held
             and the undo images intact, so the transaction rolls back
             cleanly and the engine flips read-only. *)
          p.abort_reason <- Obs.Events.Wal_degraded;
          enter_degraded t reason;
          undo t p;
          Sf_txn.finish p;
          readonly_fail t reason
      | lsn -> (
          if !Chaos.on then Chaos.point Chaos.Commit_durable_mid;
          Sf_txn.finish p;
          if !Chaos.on then Chaos.point Chaos.Commit_durable_post;
          let wait () =
            match Wal.wait_durable w ~lsn with
            | () -> ()
            | exception Wal.Degraded reason ->
                (* Locks are gone and the in-memory effect stands, but
                   the record never reached disk: the commit must NOT be
                   acknowledged.  Flip read-only and report the failure
                   to the caller — this is the one divergence between
                   memory and log that recovery resolves by dropping the
                   unacked suffix. *)
                p.abort_reason <- Obs.Events.Wal_degraded;
                enter_degraded t reason;
                readonly_fail t reason
          in
          if !Obs.Telemetry.on then begin
            let t0 = Obs.Telemetry.now_ns () in
            Fun.protect
              ~finally:(fun () -> Obs.Scope.fsync_wait obs ~tid:p.ctx.tid ~t0_ns:t0)
              wait
          end
          else wait ())
    end
  | _ -> Sf_txn.finish p

(* Write-lock row [rid] and log its pre-image; returns the live payload. *)
let lock_for_write t p rid =
  Sf_txn.write_lock p rid;
  let payload = Table.payload t.table rid in
  Util.Vec.push p.Sf_txn.log (rid, Bytes.copy payload);
  (match t.wal with Some w -> Wal.mark_dirty w ~rid | None -> ());
  payload

(* One attempt of [body] and, after a restart, the next ones: roll back,
   wait for the conflictor, retry (Algorithm 1).  Any other exception from
   the body rolls back, releases and clears the announcement before it
   escapes, as in [Txn_loop]; the commit window handles its own failure. *)
let rec attempt t p ~telemetry ~txn_t0 body arg aborts att_t0 =
  Sf_txn.begin_attempt p;
  Util.Vec.clear p.log;
  match body t p arg with
  | () -> (
      match commit_locked t p with
      | () ->
          if telemetry then
            Obs.Scope.txn_commit obs ~tid:p.ctx.tid ~txn_t0_ns:txn_t0
              ~att_t0_ns:att_t0 ();
          aborts
      | exception (Stm_intf.Degraded_read_only _ as e) ->
          (* terminal abort: count it before the raise escapes *)
          if telemetry then
            Obs.Scope.txn_abort obs ~tid:p.ctx.tid ~att_t0_ns:att_t0
              p.abort_reason;
          raise e)
  | exception Twoplsf_cm.Txn_loop.Restart ->
      undo t p;
      Sf_txn.release p;
      if telemetry then
        Obs.Scope.txn_abort obs ~tid:p.ctx.tid ~att_t0_ns:att_t0 p.abort_reason;
      Sf_txn.wait_for_conflictor p;
      attempt t p ~telemetry ~txn_t0 body arg (aborts + 1)
        (if telemetry then Obs.Telemetry.now_ns () else 0)
  | exception e ->
      undo t p;
      Sf_txn.finish p;
      raise e

(* The one retry loop of both transaction kinds: run [body t p arg] to
   commit and return the aborted-attempt count. *)
let run t ~tid body arg =
  let telemetry = !Obs.Telemetry.on in
  let txn_t0 = if telemetry then Obs.Telemetry.now_ns () else 0 in
  attempt t t.threads.(tid) ~telemetry ~txn_t0 body arg 0 txn_t0

let ycsb t p (txn : Ycsb.txn) =
  for i = 0 to Array.length txn.keys - 1 do
    let rid = Table.lookup t.table txn.keys.(i) in
    match txn.ops.(i) with
    | Ycsb.Read ->
        Sf_txn.read_lock p rid;
        ignore (Cc_intf.read_work (Table.payload t.table rid))
    | Ycsb.Write -> Cc_intf.write_work (lock_for_write t p rid)
  done

let execute t ~tid txn =
  (* Read-only degradation gate: refuse write transactions before any
     lock is taken; pure reads keep serving on a degraded engine. *)
  (match Atomic.get t.degraded with
  | Some reason when Array.exists (fun o -> o = Ycsb.Write) txn.Ycsb.ops ->
      readonly_fail t reason
  | _ -> ());
  run t ~tid ycsb txn

(* Conserved-transfer transaction for the crash soak (DESIGN.md §15):
   move [amount] from one row's balance to another's under the same
   lock/undo/commit machinery as the YCSB path, so the WAL hooks cover
   it identically and the row-balance sum is a recovery invariant. *)
let transfer t p (src_rid, dst_rid, amount) =
  ignore (lock_for_write t p src_rid);
  if dst_rid <> src_rid then ignore (lock_for_write t p dst_rid);
  Table.set_balance t.table src_rid (Table.balance t.table src_rid - amount);
  Table.set_balance t.table dst_rid (Table.balance t.table dst_rid + amount)

let execute_transfer t ~tid ~src ~dst ~amount =
  (match Atomic.get t.degraded with
  | Some reason -> readonly_fail t reason
  | None -> ());
  let src_rid = Table.lookup t.table src and dst_rid = Table.lookup t.table dst in
  run t ~tid transfer (src_rid, dst_rid, amount)

(* The table as a WAL store: rows are the live payload bytes, so the
   commit record's after-images need no extra copy. *)
let wal_store table =
  {
    Wal.table_id = 0;
    num_rows = Table.num_rows table;
    row_len = Table.tuple_size;
    read_row = (fun rid -> Table.payload table rid);
    write_row =
      (fun rid b -> Bytes.blit b 0 (Table.payload table rid) 0 Table.tuple_size);
  }
