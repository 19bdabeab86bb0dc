module Sf_txn = Twoplsf.Sf_txn
module Rwl_sf = Twoplsf.Rwl_sf

let name = "2PL-WaitDie"

module Obs = Twoplsf_obs
module Txn_loop = Twoplsf_cm.Txn_loop

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = Wset.t Sf_txn.t (* the log is the undo log *)

let obs = Obs.Scope.create name
let table = Sf_txn.table ~name:"Wait_or_die" obs
let configure ?num_locks () = Sf_txn.configure table ?num_locks ()
let stats = Stm_intf.Stats.create ()

let tx_key =
  Domain.DLS.new_key (fun () ->
      Sf_txn.make (Sf_txn.locks table) ~tid:(Util.Tid.get ()) (Wset.create ()))

let get_tx () = Domain.DLS.get tx_key

let read tx (tv : 'a tvar) : 'a =
  Sf_txn.read_lock tx tv.id;
  tv.v

let write (tx : tx) tv nv =
  Sf_txn.write_lock tx tv.id;
  Wset.log_old_once tx.log tv tv.v;
  tv.v <- nv

(* After dying, wait until no in-flight transaction has a lower timestamp
   — even non-conflicting ones (the wait-or-die behaviour §2.1 contrasts
   with 2PLSF's wait-for-the-specific-conflictor). *)
let wait_for_all_lower (tx : tx) =
  let b = Util.Backoff.create () in
  let someone_lower () =
    let hwm = Util.Tid.high_water () in
    let rec go tid =
      if tid >= hwm then false
      else if tid <> tx.ctx.tid then begin
        let ts = Rwl_sf.announced tx.locks tid in
        if ts > 0 && ts < tx.ctx.my_ts then true else go (tid + 1)
      end
      else go (tid + 1)
    in
    go 0
  in
  while someone_lower () do
    Util.Backoff.once b
  done

let begin_attempt (tx : tx) =
  Sf_txn.begin_attempt tx;
  Wset.clear tx.log;
  (* The wait-or-die signature: a timestamp on *every* transaction (kept
     across restarts so progress is guaranteed). *)
  Rwl_sf.take_timestamp tx.locks tx.ctx

include Txn_loop.Make (struct
  include Sf_txn.Hooks

  type nonrec tx = tx

  let name = name
  let stats = stats
  let scope = Some obs
  let get_tx = get_tx
  let begin_attempt tx ~read_only:_ = begin_attempt tx
  let commit = Sf_txn.finish

  let rollback (tx : tx) =
    Wset.rollback tx.log;
    Sf_txn.release tx

  let cleanup (tx : tx) =
    Wset.rollback tx.log;
    Sf_txn.finish tx

  (* The kept (now oldest-aging) timestamp guarantees eventual commit. *)
  let wait tx ~restarts:_ = wait_for_all_lower tx

  (* Retire the timestamp before blocking on the fallback mutex: its holder
     waits for every older announced transaction, so a waiter that kept
     its timestamp would deadlock against it.  The next attempt draws a
     fresh one. *)
  let escalate tx =
    pre_raise tx;
    Txn_loop.Fallback_hooks.escalate tx

  let deescalate = Txn_loop.Fallback_hooks.deescalate
end)

let clock_ops () = Sf_txn.clock_ops table

let reset_stats () =
  Stm_intf.Stats.reset stats;
  Sf_txn.reset table

let leaked_locks () = Sf_txn.leaked_locks table
