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

  type redo = { entries : rentry Util.Vec.t; mutable bloom : int }
  type tx = redo Sf_txn.t

  let obs = Obs.Scope.create P.name
  let table = Sf_txn.table ~name obs
  let configure ?num_locks () = Sf_txn.configure table ?num_locks ()
  let stats = Stm_intf.Stats.create ()

  let dummy_rentry = R { tv = { id = -1; v = () }; nv = () }

  let tx_key =
    Domain.DLS.new_key (fun () ->
        Sf_txn.make (Sf_txn.locks table) ~tid:(Util.Tid.get ())
          { entries = Util.Vec.create ~dummy:dummy_rentry (); bloom = 0 })

  let get_tx () = Domain.DLS.get tx_key

  let tvar v = { id = Util.Id_gen.next (); v }

  let bloom_bit id = 1 lsl (id land 62)

  let redo_find : type a. redo -> a tvar -> a option =
   fun r tv ->
    if r.bloom land bloom_bit tv.id = 0 then None
    else begin
      let n = Util.Vec.length r.entries in
      let rec go i =
        if i >= n then None
        else
          match Util.Vec.get r.entries i with
          | R e when e.tv.id = tv.id -> Some (Obj.magic e.nv)
          | R _ -> go (i + 1)
      in
      go 0
    end

  let redo_put r tv nv =
    let n = Util.Vec.length r.entries in
    let rec update i =
      if i >= n then Util.Vec.push r.entries (R { tv; nv })
      else
        match Util.Vec.get r.entries i with
        | R e when e.tv.id = tv.id -> e.nv <- Obj.magic nv
        | R _ -> update (i + 1)
    in
    if r.bloom land bloom_bit tv.id = 0 then begin
      Util.Vec.push r.entries (R { tv; nv });
      r.bloom <- r.bloom lor bloom_bit tv.id
    end
    else update 0

  let read (tx : tx) tv =
    match redo_find tx.log tv with
    | Some v -> v
    | None ->
        Sf_txn.read_lock tx tv.id;
        tv.v

  let write (tx : tx) tv nv =
    if P.eager then Sf_txn.write_lock tx tv.id;
    redo_put tx.log tv nv

  let begin_attempt (tx : tx) =
    Sf_txn.begin_attempt tx;
    Util.Vec.clear tx.log.entries;
    tx.log.bloom <- 0

  (* Commit-time locking (deferred mode), write-back and release all count
     as the [Commit] phase. *)
  let commit (tx : tx) =
    if !Chaos.on then Chaos.point Chaos.Pre_commit;
    (* Deferred locking: the expanding phase ends here. *)
    if not P.eager then
      Util.Vec.iter (fun (R e) -> Sf_txn.write_lock tx e.tv.id) tx.log.entries;
    (* Chaos: delay-only site — all write locks are held and the install
       below must run to completion (there is no undo log to recover a
       partial write-back); [Chaos.point] never raises by contract. *)
    if !Chaos.on then Chaos.point Chaos.Mid_writeback;
    (* Install buffered writes while every lock is held. *)
    Util.Vec.iter (fun (R e) -> e.tv.v <- e.nv) tx.log.entries;
    Sf_txn.finish tx

  include Txn_loop.Make (struct
    include Sf_txn.Hooks

    type nonrec tx = tx

    let name = name
    let stats = stats
    let scope = Some obs
    let get_tx = get_tx
    let begin_attempt tx ~read_only:_ = begin_attempt tx
    let commit = commit

    (* No rollback needed: memory was never written.  Just drop locks. *)
    let rollback = Sf_txn.release
    let cleanup = Sf_txn.finish
  end)

  let clock_ops () = Sf_txn.clock_ops table

  let reset_stats () =
    Stm_intf.Stats.reset stats;
    Sf_txn.reset table

  let leaked_locks () = Sf_txn.leaked_locks table
end
