open Tvar (* brings the { id; v } field labels into scope *)

let name = "TicToc-STM"

module Obs = Twoplsf_obs
module Chaos = Twoplsf_chaos.Chaos
module Txn_loop = Twoplsf_cm.Txn_loop

type 'a tvar = 'a Tvar.t

let tvar = Tvar.make

(* Per-orec word: bit 0 = lock, bits 1..40 = wts, bits 41..62 = delta
   (rts = wts + delta, capped) — same packing as Dbx.Cc_tictoc. *)
let lock_bit = 1
let wts_mask = (1 lsl 40) - 1
let delta_shift = 41
let delta_max = (1 lsl 22) - 1
let is_locked w = w land lock_bit <> 0
let wts_of w = (w lsr 1) land wts_mask
let rts_of w = wts_of w + (w lsr delta_shift)

let pack ~locked ~wts ~rts =
  let delta = Stdlib.min (rts - wts) delta_max in
  (if locked then lock_bit else 0) lor (wts lsl 1) lor (delta lsl delta_shift)

let read_budget = 1 lsl 17

type tx = {
  tid : int;
  rset : (int * int) Util.Vec.t; (* (orec index, observed word) *)
  wset : Wset.t;
  locked : (int * int) Util.Vec.t; (* (orec index, pre-lock word) *)
  mutable reads : int;
  mutable ro : bool;
  loop : Txn_loop.state;
  mutable abort_reason : Obs.Events.abort_reason;
  mutable c_orec : int;
      (* orec the in-flight abort is pinned on, or -1 (conflict
         cartography; TicToc lock words carry no owner tid, so the
         aborter side of the edge is always unknown) *)
}

let requested_num_orecs = ref 65536
let built = ref false

type table = { mask : int; words : int Atomic.t array }

let table =
  Util.Once.create (fun () ->
      built := true;
      let n = !requested_num_orecs in
      if n land (n - 1) <> 0 || n <= 0 then
        invalid_arg "Tictoc_stm: num_orecs must be a power of two";
      {
        mask = n - 1;
        words = Array.init n (fun _ -> Atomic.make (pack ~locked:false ~wts:0 ~rts:0));
      })

let configure ?(num_orecs = 65536) () =
  if !built then failwith "Tictoc_stm.configure: orec table already built";
  requested_num_orecs := num_orecs

let stats = Stm_intf.Stats.create ()
let obs = Obs.Scope.create "TicToc-STM"

let tx_key =
  Domain.DLS.new_key (fun () ->
      let tid = Util.Tid.get () in
      {
        tid;
        rset = Util.Vec.create ~dummy:(-1, 0) ();
        wset = Wset.create ();
        locked = Util.Vec.create ~dummy:(-1, 0) ();
        reads = 0;
        ro = false;
        loop = Txn_loop.make_state ~tid;
        abort_reason = Obs.Events.User_restart;
        c_orec = -1;
      })

let get_tx () = Domain.DLS.get tx_key

let stable_word t tx oi =
  (* Bounded wait for an unlocked word.  The sync point inside the loop
     keeps this schedulable: under the cooperative scheduler the lock
     holder is parked, and without a scheduling decision per iteration
     this spin could never hand it the baton. *)
  let rec go n =
    if n > 1000 then begin
      tx.c_orec <- oi;
      raise Txn_loop.Restart
    end;
    if !Chaos.on then Chaos.point Chaos.Validate;
    let w = Atomic.get t.words.(oi) in
    if is_locked w then begin
      Domain.cpu_relax ();
      go (n + 1)
    end
    else w
  in
  go 0

let read tx (tv : 'a tvar) : 'a =
  tx.reads <- tx.reads + 1;
  if tx.reads > read_budget then begin
    (* Zombie-escape budget, not a data conflict: outside the taxonomy. *)
    tx.abort_reason <- Obs.Events.User_restart;
    raise Txn_loop.Restart
  end;
  (* Any Restart below is a read that saw a locked or changed word. *)
  tx.abort_reason <- Obs.Events.Read_validation;
  (* No snapshot validation: this is the non-opacity under test. *)
  if not tx.ro then
    match Wset.find tx.wset tv with
    | Some v -> v
    | None ->
        let t = Util.Once.get table in
        let oi = tv.id land t.mask in
        let w = stable_word t tx oi in
        let v = tv.v in
        if !Chaos.on then Chaos.point Chaos.Orec_check;
        if Atomic.get t.words.(oi) <> w then begin
          tx.c_orec <- oi;
          raise Txn_loop.Restart
        end;
        Util.Vec.push tx.rset (oi, w);
        v
  else begin
    let t = Util.Once.get table in
    let oi = tv.id land t.mask in
    let w = stable_word t tx oi in
    let v = tv.v in
    if !Chaos.on then Chaos.point Chaos.Orec_check;
    if Atomic.get t.words.(oi) <> w then begin
      tx.c_orec <- oi;
      raise Txn_loop.Restart
    end;
    Util.Vec.push tx.rset (oi, w);
    v
  end

let write tx tv nv =
  if tx.ro then invalid_arg "Tictoc_stm.write inside a read-only transaction";
  Wset.add tx.wset tv nv

let unlock_all t tx =
  Util.Vec.iter
    (fun (oi, pre) -> Atomic.set t.words.(oi) pre)
    tx.locked

let is_self_locked tx oi = Util.Vec.exists (fun (o, _) -> o = oi) tx.locked

let lock_write_set t tx =
  let ok = ref true in
  (try
     Wset.iter_ids tx.wset (fun id ->
         let oi = id land t.mask in
         if !Chaos.on then Chaos.point Chaos.Orec_lock;
         if is_self_locked tx oi then ()
         else begin
           let w = Atomic.get t.words.(oi) in
           if is_locked w then begin
             tx.c_orec <- oi;
             raise Exit
           end;
           if not (Atomic.compare_and_set t.words.(oi) w (w lor lock_bit))
           then begin
             tx.c_orec <- oi;
             raise Exit
           end;
           Util.Vec.push tx.locked (oi, w)
         end)
   with Exit -> ok := false);
  !ok

let commit tx =
  if Wset.is_empty tx.wset then ()
  else begin
    let t = Util.Once.get table in
    if not (lock_write_set t tx) then begin
      unlock_all t tx;
      tx.abort_reason <- Obs.Events.Commit_lock_conflict;
      raise Txn_loop.Restart
    end;
    (* Commit timestamp: above every read's wts and every write's rts. *)
    let ct = ref 0 in
    Util.Vec.iter (fun (_, pre) -> ct := Stdlib.max !ct (rts_of pre + 1)) tx.locked;
    Util.Vec.iter (fun (_, w) -> ct := Stdlib.max !ct (wts_of w)) tx.rset;
    let ct = !ct in
    let ok = ref true in
    (try
       Util.Vec.iter
         (fun (oi, observed) ->
           if !Chaos.on then Chaos.point Chaos.Validate;
           if rts_of observed < ct then begin
             let cur = Atomic.get t.words.(oi) in
             if wts_of cur <> wts_of observed then begin
               tx.c_orec <- oi;
               raise Exit
             end;
             if is_locked cur then begin
               if not (is_self_locked tx oi) then begin
                 tx.c_orec <- oi;
                 raise Exit
               end
               (* our own commit lock: the write phase stamps it to ct *)
             end
             else if
               rts_of cur < ct
               && not
                    (Atomic.compare_and_set t.words.(oi) cur
                       (pack ~locked:false ~wts:(wts_of cur) ~rts:ct))
             then begin
               tx.c_orec <- oi;
               raise Exit
             end
           end)
         tx.rset
     with Exit -> ok := false);
    if not !ok then begin
      unlock_all t tx;
      tx.abort_reason <- Obs.Events.Commit_validation;
      raise Txn_loop.Restart
    end;
    Wset.apply tx.wset;
    Util.Vec.iter
      (fun (oi, _) -> Atomic.set t.words.(oi) (pack ~locked:false ~wts:ct ~rts:ct))
      tx.locked
  end

let begin_attempt tx ~read_only =
  Util.Vec.clear tx.rset;
  Wset.clear tx.wset;
  Util.Vec.clear tx.locked;
  tx.reads <- 0;
  tx.abort_reason <- Obs.Events.User_restart;
  tx.c_orec <- -1;
  tx.ro <- read_only

include Txn_loop.Make (struct
  type nonrec tx = tx

  let name = name
  let stats = stats
  let scope = Some obs
  let get_tx = get_tx
  let state tx = tx.loop
  let begin_attempt = begin_attempt

  (* Commit-time locking, OCC validation and write-back count as the
     [Commit] phase; a failed commit has already unlocked its words. *)
  let commit = commit
  let rollback _ = ()

  (* The body holds no locks (lazy locking), but an exception escaping
     mid-commit does: restore any commit-locked words to their pre-lock
     values before propagating. *)
  let cleanup tx = if !built then unlock_all (Util.Once.get table) tx

  (* TicToc lock words carry no owner: the aborter is always unknown. *)
  let provenance tx = (-1, tx.c_orec, tx.abort_reason)
  let wait tx ~restarts = Txn_loop.backoff ~scope:obs ~tid:tx.tid ~restarts
  include Txn_loop.Fallback_hooks
end)

let clock_ops () = 0 (* TicToc's selling point: no central clock at all *)

let reset_stats () =
  Stm_intf.Stats.reset stats;
  Obs.Scope.reset obs

let leaked_locks () =
  if not !built then 0
  else begin
    let t = Util.Once.get table in
    let n = ref 0 in
    Array.iter (fun w -> if is_locked (Atomic.get w) then incr n) t.words;
    !n
  end
