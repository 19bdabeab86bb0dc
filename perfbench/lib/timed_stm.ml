(* Timing functor over Stm_intf.STM: the traced run's measurement point
   for the STM layer, taken from outside by timing calls into the
   wrapped STM's public functions.

   Per top-level transaction it records the time inside [atomic], each
   attempt of the body (an attempt that raises is wasted work: the STM
   restarts it), and the commit step — from the final attempt's body
   returning to [atomic] returning, which for 2PLSF is lock release and
   announcement clearing.  Reads and writes are timed one by one.
   Counters are per domain and summed on demand; spans go to {!Spans}
   for sampled operations. *)

type totals = {
  txns : int;  (** committed top-level transactions *)
  attempts : int;  (** body executions, committed or not *)
  atomic_ns : int;  (** time inside top-level [atomic] calls *)
  wasted_ns : int;  (** time in attempts that raised *)
  commit_ns : int;  (** body return to [atomic] return, committed only *)
  reads : int;
  read_ns : int;
  writes : int;
  write_ns : int;
}

module type TIMED = sig
  include Stm_intf.STM

  val totals : unit -> totals
  (** Sum over every domain since the last {!reset_totals}. *)

  val reset_totals : unit -> unit
  (** Zero the counters; call only while no transaction runs. *)
end

type counters = {
  mutable c_txns : int;
  mutable c_attempts : int;
  mutable c_atomic_ns : int;
  mutable c_wasted_ns : int;
  mutable c_commit_ns : int;
  mutable c_reads : int;
  mutable c_read_ns : int;
  mutable c_writes : int;
  mutable c_write_ns : int;
  mutable depth : int;
}

let now = Util.Clock.now_ns

module Make (S : Stm_intf.STM) : TIMED with type tx = S.tx and type 'a tvar = 'a S.tvar =
struct
  include S

  let mu = Mutex.create ()
  let all : counters list ref = ref []

  let key =
    Domain.DLS.new_key (fun () ->
        let c =
          {
            c_txns = 0;
            c_attempts = 0;
            c_atomic_ns = 0;
            c_wasted_ns = 0;
            c_commit_ns = 0;
            c_reads = 0;
            c_read_ns = 0;
            c_writes = 0;
            c_write_ns = 0;
            depth = 0;
          }
        in
        Mutex.protect mu (fun () -> all := c :: !all);
        c)

  let read tx tv =
    let c = Domain.DLS.get key in
    let t0 = now () in
    match S.read tx tv with
    | v ->
        c.c_read_ns <- c.c_read_ns + (now () - t0);
        c.c_reads <- c.c_reads + 1;
        v
    | exception e ->
        c.c_read_ns <- c.c_read_ns + (now () - t0);
        c.c_reads <- c.c_reads + 1;
        raise e

  let write tx tv v =
    let c = Domain.DLS.get key in
    let t0 = now () in
    match S.write tx tv v with
    | () ->
        c.c_write_ns <- c.c_write_ns + (now () - t0);
        c.c_writes <- c.c_writes + 1
    | exception e ->
        c.c_write_ns <- c.c_write_ns + (now () - t0);
        c.c_writes <- c.c_writes + 1;
        raise e

  let atomic ?read_only f =
    let c = Domain.DLS.get key in
    if c.depth > 0 then S.atomic ?read_only f
    else begin
      c.depth <- 1;
      let t0 = now () in
      let sp = Spans.enter Spans.Stm_atomic ~t0 in
      let body_end = ref t0 in
      let body tx =
        c.c_attempts <- c.c_attempts + 1;
        let a0 = now () in
        let att = Spans.enter Spans.Stm_attempt ~t0:a0 in
        match f tx with
        | v ->
            let a1 = now () in
            Spans.leave att ~t1:a1;
            body_end := a1;
            v
        | exception e ->
            let a1 = now () in
            Spans.leave att ~t1:a1;
            c.c_wasted_ns <- c.c_wasted_ns + (a1 - a0);
            raise e
      in
      match S.atomic ?read_only body with
      | v ->
          let t1 = now () in
          c.depth <- 0;
          c.c_txns <- c.c_txns + 1;
          c.c_atomic_ns <- c.c_atomic_ns + (t1 - t0);
          c.c_commit_ns <- c.c_commit_ns + (t1 - !body_end);
          Spans.add Spans.Stm_commit ~t0:!body_end ~t1;
          Spans.leave sp ~t1;
          v
      | exception e ->
          let t1 = now () in
          c.depth <- 0;
          c.c_atomic_ns <- c.c_atomic_ns + (t1 - t0);
          Spans.leave sp ~t1;
          raise e
    end

  let totals () =
    Mutex.protect mu (fun () ->
        List.fold_left
          (fun a c ->
            {
              txns = a.txns + c.c_txns;
              attempts = a.attempts + c.c_attempts;
              atomic_ns = a.atomic_ns + c.c_atomic_ns;
              wasted_ns = a.wasted_ns + c.c_wasted_ns;
              commit_ns = a.commit_ns + c.c_commit_ns;
              reads = a.reads + c.c_reads;
              read_ns = a.read_ns + c.c_read_ns;
              writes = a.writes + c.c_writes;
              write_ns = a.write_ns + c.c_write_ns;
            })
          {
            txns = 0;
            attempts = 0;
            atomic_ns = 0;
            wasted_ns = 0;
            commit_ns = 0;
            reads = 0;
            read_ns = 0;
            writes = 0;
            write_ns = 0;
          }
          !all)

  let reset_totals () =
    Mutex.protect mu (fun () ->
        List.iter
          (fun c ->
            c.c_txns <- 0;
            c.c_attempts <- 0;
            c.c_atomic_ns <- 0;
            c.c_wasted_ns <- 0;
            c.c_commit_ns <- 0;
            c.c_reads <- 0;
            c.c_read_ns <- 0;
            c.c_writes <- 0;
            c.c_write_ns <- 0)
          !all)
end
