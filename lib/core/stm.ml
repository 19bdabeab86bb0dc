let name = "2PLSF"

module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos
module Txn_loop = Twoplsf_cm.Txn_loop

type 'a tvar = { id : int; mutable v : 'a; mutable stamp : int }
(* [stamp] identifies the transaction attempt that last undo-logged this
   tvar; written only under the tvar's write lock. *)

type wentry = W : { tv : 'a tvar; old : 'a } -> wentry

type undo = {
  entries : wentry Util.Vec.t;
  mutable attempt : int; (* unique per attempt: serial * max_threads + tid *)
  mutable serial : int;
}

type tx = undo Sf_txn.t

(* ---- global state ---- *)

let obs = Obs.Scope.create "2PLSF"
let table = Sf_txn.table ~name:"Twoplsf.Stm" obs
let configure ?num_locks () = Sf_txn.configure table ?num_locks ()
let lock_table () = Sf_txn.locks table

module Stm_stats = Stm_intf.Stats

let stats = Stm_stats.create ()

let restart_hist_buckets = 128

let restart_hist =
  Array.init restart_hist_buckets (fun _ -> Atomic.make 0)

let dummy_wentry = W { tv = { id = -1; v = (); stamp = -1 }; old = () }

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      Sf_txn.make (Sf_txn.locks table) ~tid
        {
          entries = Util.Vec.create ~dummy:dummy_wentry ();
          attempt = tid;
          serial = 0;
        })

let get_tx () = Domain.DLS.get tx_key

(* ---- tvars ---- *)

let tvar v = { id = Util.Id_gen.next (); v; stamp = -1 }

let read (tx : tx) tv =
  Sf_txn.read_lock tx tv.id;
  tv.v

let write (tx : tx) tv nv =
  Sf_txn.write_lock tx tv.id;
  let u = tx.log in
  if tv.stamp <> u.attempt then begin
    Util.Vec.push u.entries (W { tv; old = tv.v });
    tv.stamp <- u.attempt
  end;
  tv.v <- nv

(* ---- transaction lifecycle ---- *)

let begin_attempt (tx : tx) =
  Sf_txn.begin_attempt tx;
  let u = tx.log in
  Util.Vec.clear u.entries;
  u.serial <- u.serial + 1;
  u.attempt <- (u.serial * Util.Tid.max_threads) + tx.ctx.tid

(* Bucket 0 is derived as commits - sum(others) at read time so the common
   no-restart commit path touches no shared counter. *)
let record_restart_count n =
  if n > 0 then begin
    let b = if n >= restart_hist_buckets then restart_hist_buckets - 1 else n in
    Atomic.incr restart_hist.(b)
  end

let commit (tx : tx) =
  if !Chaos.on then Chaos.point Chaos.Pre_commit;
  Sf_txn.finish tx;
  record_restart_count (Txn_loop.restarts tx.loop)

(* Undo newest-first *before* releasing any write lock. *)
let undo (tx : tx) =
  Util.Vec.iter_rev (fun (W { tv; old }) -> tv.v <- old) tx.log.entries;
  (* Chaos: delay-only site — an exception here would corrupt the
     rollback; [Chaos.point] never raises by contract. *)
  if !Chaos.on then Chaos.point Chaos.Mid_rollback

module Loop = Txn_loop.Make (struct
  include Sf_txn.Hooks

  type nonrec tx = tx

  let name = name
  let stats = stats
  let scope = Some obs
  let get_tx = get_tx
  let begin_attempt tx ~read_only:_ = begin_attempt tx
  let commit = commit

  let rollback tx =
    undo tx;
    Sf_txn.release tx

  let cleanup tx =
    undo tx;
    Sf_txn.finish tx
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
  Sf_txn.enter_irrevocable tx ~writer;
  if !Obs.Telemetry.on then
    Obs.Scope.event obs ~tid:tx.ctx.tid Obs.Events.Irrevocable_upgrade;
  Fun.protect
    ~finally:(fun () -> Sf_txn.leave_irrevocable tx ~writer)
    (fun () -> Loop.atomic_irrevocable f)

let atomic_irrevocable_ro f =
  irrevocably ~fn:"atomic_irrevocable_ro" ~writer:false f

let atomic_irrevocable f = irrevocably ~fn:"atomic_irrevocable" ~writer:true f

(* ---- statistics ---- *)

let commits = Loop.commits
let aborts = Loop.aborts
let clock_ops () = Sf_txn.clock_ops table

let reset_stats () =
  Stm_stats.reset stats;
  Sf_txn.reset table;
  Array.iter (fun c -> Atomic.set c 0) restart_hist

let last_restarts = Loop.last_restarts
let leaked_locks () = Sf_txn.leaked_locks table

let restart_histogram () =
  let h = Array.map Atomic.get restart_hist in
  let restarted = Array.fold_left ( + ) 0 h in
  h.(0) <- Stdlib.max 0 (commits () - restarted);
  h
