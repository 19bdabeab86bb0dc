let name = "OREC-Z"

module Txn_loop = Twoplsf_cm.Txn_loop

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type tx = {
  tid : int;
  mutable rv : int;
  rset : (int * int) Util.Vec.t; (* (orec index, observed version) *)
  wset : Wset.t;
  acquired : (int * int) Util.Vec.t;
  mutable ro : bool;
  loop : Txn_loop.state;
}

let requested_num_orecs = ref 65536
let built = ref false

let orecs =
  Util.Once.create (fun () ->
      built := true;
      Orec.create ~num_orecs:!requested_num_orecs)

let configure ?(num_orecs = 65536) () =
  if !built then failwith "Orec_lazy.configure: orec table already built";
  requested_num_orecs := num_orecs

let clock = Atomic.make 0
let stats = Stm_intf.Stats.create ()

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        tid;
        rv = 0;
        rset = Util.Vec.create ~dummy:(-1, -1) ();
        wset = Wset.create ();
        acquired = Util.Vec.create ~dummy:(-1, -1) ();
        ro = false;
        loop = Txn_loop.make_state ~tid;
      })

let get_tx () = Domain.DLS.get tx_key

let acquired_old_version tx oi =
  let n = Util.Vec.length tx.acquired in
  let rec go i =
    if i >= n then None
    else
      let oj, old_version = Util.Vec.get tx.acquired i in
      if oj = oi then Some old_version else go (i + 1)
  in
  go 0

let validate tx ~allow_mine =
  let o = Util.Once.get orecs in
  let ok = ref true in
  (try
     Util.Vec.iter
       (fun (oi, observed) ->
         let w = Orec.get o oi in
         if Orec.is_locked w then begin
           if not (allow_mine && Orec.owner w = tx.tid) then raise Exit;
           (* Self-locked at commit: valid only if we locked it at exactly
              the version this read observed. *)
           match acquired_old_version tx oi with
           | Some old_version when old_version = observed -> ()
           | Some _ | None -> raise Exit
         end
         else if Orec.version w <> observed then raise Exit)
       tx.rset
   with Exit -> ok := false);
  !ok

let extend tx =
  let now = Atomic.get clock in
  if validate tx ~allow_mine:false then begin
    tx.rv <- now;
    true
  end
  else false

(* On version overflow: extend the snapshot, then RE-EXECUTE the load.
   The tvar may have been committed to between our value fetch and the
   extension; the extension moves [rv] past that commit, so returning the
   already-fetched value would pair a stale value with an extended
   snapshot (a lost update once commit skips validation on
   [wv = rv + 1]). *)
let rec read_orec tx (tv : 'a tvar) : 'a =
  let o = Util.Once.get orecs in
  let oi = Orec.index o tv.id in
  let pre = Orec.get o oi in
  if Orec.is_locked pre then raise Txn_loop.Restart;
  let v = tv.v in
  if Orec.get o oi <> pre then raise Txn_loop.Restart;
  let ver = Orec.version pre in
  if ver > tx.rv then
    if extend tx then read_orec tx tv else raise Txn_loop.Restart
  else begin
    (* Logged even in read-only mode: extension must revalidate every
       prior read to keep the snapshot opaque. *)
    Util.Vec.push tx.rset (oi, ver);
    v
  end

let read tx (tv : 'a tvar) : 'a =
  if not tx.ro then
    match Wset.find tx.wset tv with
    | Some v -> v
    | None -> read_orec tx tv
  else read_orec tx tv

let write tx tv nv =
  if tx.ro then invalid_arg "Orec_lazy.write inside a read-only transaction";
  Wset.add tx.wset tv nv

let release_acquired_old tx =
  let o = Util.Once.get orecs in
  Util.Vec.iter_rev
    (fun (oi, old_version) -> Orec.unlock_to o oi ~version:old_version)
    tx.acquired

let lock_write_set tx =
  let o = Util.Once.get orecs in
  let ok = ref true in
  (try
     Wset.iter_ids tx.wset (fun id ->
         let oi = Orec.index o id in
         let w = Orec.get o oi in
         if Orec.is_locked w && Orec.owner w = tx.tid then ()
         else
           match Orec.try_lock o ~tid:tx.tid oi with
           | Some old_version -> Util.Vec.push tx.acquired (oi, old_version)
           | None -> raise Exit)
   with Exit -> ok := false);
  !ok

let commit tx =
  if Wset.is_empty tx.wset then ()
  else begin
    if not (lock_write_set tx) then begin
      release_acquired_old tx;
      raise Txn_loop.Restart
    end;
    if not (validate tx ~allow_mine:true) then begin
      release_acquired_old tx;
      raise Txn_loop.Restart
    end;
    let wv = 1 + Atomic.fetch_and_add clock 1 in
    Stm_intf.Stats.clock_op stats ~tid:tx.tid;
    Wset.apply tx.wset;
    let o = Util.Once.get orecs in
    Util.Vec.iter (fun (oi, _) -> Orec.unlock_to o oi ~version:wv) tx.acquired
  end

let begin_attempt tx ~read_only =
  Util.Vec.clear tx.rset;
  Wset.clear tx.wset;
  Util.Vec.clear tx.acquired;
  tx.ro <- read_only;
  tx.rv <- Atomic.get clock

include Txn_loop.Make (struct
  type nonrec tx = tx

  let name = name
  let stats = stats
  let scope = None
  let get_tx = get_tx
  let state tx = tx.loop
  let begin_attempt = begin_attempt
  let commit = commit

  (* A failed commit has already released its locks. *)
  let rollback _ = ()

  (* Lazy locking: the body holds no locks, but an exception escaping
     mid-commit may — release them to their pre-lock versions. *)
  let cleanup = release_acquired_old
  let provenance _ = (-1, -1, Twoplsf_obs.Events.User_restart)
  let wait _ ~restarts = Util.Backoff.exponential ~attempt:restarts
  include Txn_loop.Fallback_hooks
end)

let clock_ops () = Stm_intf.Stats.clock_ops stats
let reset_stats () = Stm_intf.Stats.reset stats
let leaked_locks () =
  if !built then Orec.locked_count (Util.Once.get orecs) else 0
