let name = "OFWF"

module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission
module Txn_loop = Twoplsf_cm.Txn_loop

open Tvar (* brings the { id; v } field labels into scope *)

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

type mode = Writer | Reader of int (* sequence snapshot *)

type tx = {
  tid : int;
  mutable mode : mode;
  mutable depth : int;
  mutable restarts : int;
  mutable finished_restarts : int;
  ov : Cm.state;
  undo : Wset.t;
      (* writer-mode undo log: only consulted when the transaction body
         raises, so the batch can roll back before releasing the seqlock *)
}

let seq = Rwlock.Seqlock.create ()
let stats = Stm_intf.Stats.create ()

(* Each batch bumps the global sequence word twice; count it as one
   central-clock operation (the shared-counter traffic OneFile pays). *)
let combiner =
  Rwlock.Flat_combiner.create
    ~on_batch_start:(fun () ->
      Rwlock.Seqlock.write_lock seq;
      Stm_intf.Stats.clock_op stats ~tid:(Util.Tid.get ()))
    ~on_batch_end:(fun () -> Rwlock.Seqlock.write_unlock seq)
    ()

let tx_key =
  Domain.DLS.new_key (fun () ->
      {
        tid = Util.Tid.get ();
        mode = Writer;
        depth = 0;
        restarts = 0;
        finished_restarts = 0;
        ov = Cm.make_state ();
        undo = Wset.create ();
      })

let get_tx () = Domain.DLS.get tx_key

let read tx (tv : 'a tvar) : 'a =
  match tx.mode with
  | Writer -> tv.v (* executed by the combiner, under the sequence lock *)
  | Reader snapshot ->
      let v = tv.v in
      (* Per-read validation keeps the snapshot opaque: a reader never
         acts on values from two different writer batches. *)
      if not (Rwlock.Seqlock.read_validate seq snapshot) then
        raise Txn_loop.Restart;
      v

let write tx tv nv =
  match tx.mode with
  | Writer ->
      Wset.log_old_once tx.undo tv tv.v;
      tv.v <- nv
  | Reader _ -> invalid_arg "Onefile.write inside a read-only transaction"

let run_writer tx f =
  tx.restarts <- 0;
  let v =
    Rwlock.Flat_combiner.execute combiner ~tid:tx.tid (fun () ->
        (* Runs in whichever thread combines; use that thread's
           descriptor so nested transactional calls flatten there. *)
        let inner = get_tx () in
        let saved_mode = inner.mode and saved_depth = inner.depth in
        inner.mode <- Writer;
        inner.depth <- inner.depth + 1;
        if saved_depth = 0 then Wset.clear inner.undo;
        let restore () =
          inner.mode <- saved_mode;
          inner.depth <- saved_depth
        in
        match f inner with
        | v ->
            restore ();
            v
        | exception e ->
            (* Still inside the seqlock write section: roll back this
               transaction's writes before the batch is published. *)
            if saved_depth = 0 then Wset.rollback inner.undo;
            restore ();
            raise e)
  in
  Stm_intf.Stats.commit stats ~tid:tx.tid;
  tx.finished_restarts <- 0;
  v

let run_ro tx f =
  tx.restarts <- 0;
  ignore (Cm.begin_txn tx.ov);
  let rec attempt () =
    let snapshot = Rwlock.Seqlock.read_begin seq in
    tx.mode <- Reader snapshot;
    tx.depth <- 1;
    (* Overload escalation: the writer path is flat-combined and cannot
       lose a validation race, so re-running the read-only body through
       the combiner is this STM's serial slow path (reads under the
       seqlock are trivially consistent; a read-only body performs no
       writes by contract). *)
    let on_abort k =
      Stm_intf.Stats.abort stats ~tid:tx.tid;
      tx.restarts <- tx.restarts + 1;
      match
        Cm.after_abort ~stm:name ~tid:tx.tid ~restarts:tx.restarts ~st:tx.ov
          ~native_wait:(fun () -> Util.Backoff.exponential ~attempt:tx.restarts)
          ~cleanup:(fun () -> ())
          ~reasons:(fun () -> [])
      with
      | Cm.Retry -> k ()
      | Cm.Escalate -> run_writer tx f
    in
    match f tx with
    | v ->
        tx.depth <- 0;
        if Rwlock.Seqlock.read_validate seq snapshot then begin
          Stm_intf.Stats.commit stats ~tid:tx.tid;
          tx.finished_restarts <- tx.restarts;
          v
        end
        else on_abort attempt
    | exception Txn_loop.Restart ->
        tx.depth <- 0;
        on_abort attempt
    | exception e ->
        tx.depth <- 0;
        raise e
  in
  attempt ()

(* OneFile keeps its own attempt loop rather than Txn_loop's: escalation
   re-runs a read-only body through the flat combiner instead of retrying
   it. *)
let run tx read_only f = if read_only then run_ro tx f else run_writer tx f

let atomic ?(read_only = false) f =
  let tx = get_tx () in
  if tx.depth > 0 then f tx
  else if !Admission.on then begin
    Admission.enter ();
    match run tx read_only f with
    | v ->
        Admission.leave ();
        v
    | exception e ->
        Admission.leave ();
        raise e
  end
  else run tx read_only f

let commits () = Stm_intf.Stats.commits stats
let aborts () = Stm_intf.Stats.aborts stats
let clock_ops () = Stm_intf.Stats.clock_ops stats
let reset_stats () = Stm_intf.Stats.reset stats
let last_restarts () = (get_tx ()).finished_restarts

(* The only lock is the combiner's seqlock: leaked iff the sequence is odd
   (a writer batch began and never ended). *)
let leaked_locks () = Rwlock.Seqlock.sequence seq land 1
