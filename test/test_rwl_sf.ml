(* Tests for the paper's starvation-free reader-writer lock (Algorithm 2/3).

   Deterministic single-thread tests cover the fast paths and every
   restart (return-false) path by pre-announcing timestamps; two-domain
   tests cover the waiting paths. *)

module L = Twoplsf.Rwl_sf

let check = Alcotest.check

(* Reserve a few dense tids so read-indicator scans cover the ctx tids the
   tests fabricate. *)
let () =
  ignore (Util.Tid.register ());
  ignore (Harness.Exec.run_each ~threads:4 (fun _ -> ()))

let fresh () = L.create ~num_locks:64 ()

let test_read_fast_path () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  check Alcotest.bool "acquired" true (L.try_or_wait_read_lock t c 5);
  check Alcotest.bool "holds" true (L.holds_read t c 5);
  check Alcotest.int "no timestamp taken" 0 c.my_ts;
  L.read_unlock t c 5;
  check Alcotest.bool "released" false (L.holds_read t c 5)

let test_write_fast_path () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  check Alcotest.bool "acquired" true (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "holds" true (L.holds_write t c 5);
  check Alcotest.int "no timestamp taken" 0 c.my_ts;
  L.write_unlock t c 5;
  check Alcotest.bool "released" false (L.holds_write t c 5)

let test_read_reentrant () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_read_lock t c 5);
  check Alcotest.bool "again" true (L.try_or_wait_read_lock t c 5);
  L.read_unlock t c 5

let test_write_reentrant () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "again" true (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "still held" true (L.holds_write t c 5);
  L.write_unlock t c 5

let test_read_then_write_upgrade () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_read_lock t c 5);
  check Alcotest.bool "upgrade" true (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "write held" true (L.holds_write t c 5);
  L.read_unlock t c 5;
  L.write_unlock t c 5

let test_write_lock_while_holding_write () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t c 5);
  check Alcotest.bool "read under own write" true
    (L.try_or_wait_read_lock t c 5);
  L.read_unlock t c 5;
  L.write_unlock t c 5

let test_reader_restarts_on_lower_ts_writer () =
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  let reader = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_write_lock t holder 5);
  L.announce_priority t holder 3;
  L.announce_priority t reader 7;
  check Alcotest.bool "reader restarts" false
    (L.try_or_wait_read_lock t reader 5);
  check Alcotest.bool "indicator cleared" false (L.holds_read t reader 5);
  check Alcotest.int "conflictor recorded" 0 reader.o_tid;
  check Alcotest.int "conflictor ts" 3 reader.o_ts;
  L.write_unlock t holder 5

let test_writer_restarts_on_lower_ts_writer () =
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  let writer = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_write_lock t holder 5);
  L.announce_priority t holder 3;
  L.announce_priority t writer 7;
  check Alcotest.bool "writer restarts" false
    (L.try_or_wait_write_lock t writer 5);
  check Alcotest.bool "holder keeps lock" true (L.holds_write t holder 5);
  check Alcotest.bool "loser's indicator cleared" false
    (L.holds_read t writer 5);
  L.write_unlock t holder 5

let test_writer_restarts_on_lower_ts_reader () =
  let t = fresh () in
  let reader = L.make_ctx ~tid:0 in
  let writer = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_read_lock t reader 5);
  L.announce_priority t reader 3;
  L.announce_priority t writer 7;
  check Alcotest.bool "writer restarts" false
    (L.try_or_wait_write_lock t writer 5);
  check Alcotest.bool "reader undisturbed" true (L.holds_read t reader 5);
  check Alcotest.bool "write lock free again" false (L.holds_write t writer 5);
  check Alcotest.int "conflictor recorded" 0 writer.o_tid;
  L.read_unlock t reader 5

let test_conflict_takes_timestamp_once () =
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  let loser = L.make_ctx ~tid:1 in
  ignore (L.try_or_wait_write_lock t holder 5);
  ignore (L.try_or_wait_write_lock t holder 6);
  (* priority 1 is below anything the conflict clock can hand out, so the
     loser restarts instead of waiting *)
  L.announce_priority t holder 1;
  check Alcotest.bool "restart 1" false (L.try_or_wait_write_lock t loser 5);
  let ts1 = loser.my_ts in
  check Alcotest.bool "got a timestamp" true (ts1 > 0);
  check Alcotest.bool "restart 2" false (L.try_or_wait_write_lock t loser 6);
  check Alcotest.int "timestamp kept" ts1 loser.my_ts;
  check Alcotest.int "announced" ts1 (L.announced t 1);
  L.write_unlock t holder 5;
  L.write_unlock t holder 6

let test_unconflicted_holder_is_waited_for () =
  (* A holder that never conflicted announces nothing (= +inf priority):
     a timestamped contender must wait, not restart (DESIGN.md note on the
     NO_TIMESTAMP convention). *)
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t holder 5);
  let waited = ref false in
  let d =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let contender = L.make_ctx ~tid:1 in
        L.announce_priority t contender 9;
        let ok = L.try_or_wait_write_lock t contender 5 in
        L.write_unlock t contender 5;
        Util.Tid.release ();
        ok)
  in
  Unix.sleepf 0.05;
  waited := true;
  L.write_unlock t holder 5;
  check Alcotest.bool "acquired after wait" true (Domain.join d);
  check Alcotest.bool "really waited" true !waited

let test_clear_announcement () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  L.announce_priority t c 5;
  c.o_tid <- 3;
  c.o_ts <- 9;
  L.clear_announcement t c;
  check Alcotest.int "my_ts" 0 c.my_ts;
  check Alcotest.int "o_tid" (-1) c.o_tid;
  check Alcotest.int "announce slot" 0 (L.announced t 0)

let test_wait_for_conflictor_returns_when_cleared () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  (* Conflictor already moved on: returns immediately. *)
  c.o_tid <- 1;
  c.o_ts <- 42 (* announce slot of tid 1 is 0 <> 42 *);
  L.wait_for_conflictor t c;
  check Alcotest.int "cleared o_tid" (-1) c.o_tid

let test_wait_for_conflictor_blocks_until_commit () =
  let t = fresh () in
  let other = L.make_ctx ~tid:1 in
  L.announce_priority t other 17;
  let d =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let c = L.make_ctx ~tid:2 in
        c.o_tid <- 1;
        c.o_ts <- 17;
        let t0 = Util.Clock.now () in
        L.wait_for_conflictor t c;
        Util.Tid.release ();
        Util.Clock.now () -. t0)
  in
  Unix.sleepf 0.05;
  L.clear_announcement t other;
  let waited = Domain.join d in
  check Alcotest.bool "blocked for the announcement" true (waited >= 0.03)

let test_writer_waits_for_reader_release () =
  let t = fresh () in
  let reader_done = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let c = L.make_ctx ~tid:(Util.Tid.get ()) in
        ignore (L.try_or_wait_read_lock t c 5);
        Unix.sleepf 0.05;
        L.read_unlock t c 5;
        Atomic.set reader_done true;
        Util.Tid.release ())
  in
  Unix.sleepf 0.01;
  let writer =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        let c = L.make_ctx ~tid:(Util.Tid.get ()) in
        let ok = L.try_or_wait_write_lock t c 5 in
        let after = Atomic.get reader_done in
        L.write_unlock t c 5;
        Util.Tid.release ();
        (ok, after))
  in
  Domain.join reader;
  let ok, after = Domain.join writer in
  check Alcotest.bool "writer acquired" true ok;
  check Alcotest.bool "only after reader left" true after

let test_zero_mutex () =
  let t = fresh () in
  L.zero_mutex_lock t;
  let d =
    Domain.spawn (fun () ->
        let t0 = Util.Clock.now () in
        L.zero_mutex_lock t;
        L.zero_mutex_unlock t;
        Util.Clock.now () -. t0)
  in
  Unix.sleepf 0.05;
  L.zero_mutex_unlock t;
  let waited = Domain.join d in
  check Alcotest.bool "serialized" true (waited >= 0.03)

let test_mutual_exclusion_stress () =
  (* 4 domains hammer 4 locks with random read/write acquisitions following
     the full protocol (restart + wait-for-conflictor on a refusal).  A
     per-lock occupancy word (readers + 1000 * writers) catches any
     mutual-exclusion violation. *)
  let t = fresh () in
  let occupancy = Array.init 4 (fun _ -> Atomic.make 0) in
  let violations = Atomic.make 0 in
  ignore
    (Harness.Exec.run_each ~threads:4 (fun i ->
         let c = L.make_ctx ~tid:(Util.Tid.get ()) in
         let rng = Util.Sprng.create (500 + i) in
         for _ = 1 to 400 do
           let w = Util.Sprng.int rng 4 in
           let is_write = Util.Sprng.int rng 100 < 30 in
           let rec txn () =
             if is_write then begin
               if L.try_or_wait_write_lock t c w then begin
                 let prev = Atomic.fetch_and_add occupancy.(w) 1000 in
                 if prev <> 0 then Atomic.incr violations;
                 Domain.cpu_relax ();
                 ignore (Atomic.fetch_and_add occupancy.(w) (-1000));
                 L.write_unlock t c w
               end
               else begin
                 L.wait_for_conflictor t c;
                 txn ()
               end
             end
             else if L.try_or_wait_read_lock t c w then begin
               let prev = Atomic.fetch_and_add occupancy.(w) 1 in
               if prev >= 1000 then Atomic.incr violations;
               Domain.cpu_relax ();
               ignore (Atomic.fetch_and_add occupancy.(w) (-1));
               L.read_unlock t c w
             end
             else begin
               L.wait_for_conflictor t c;
               txn ()
             end
           in
           txn ();
           L.clear_announcement t c
         done));
  check Alcotest.int "no mutual-exclusion violations" 0
    (Atomic.get violations);
  (* all locks quiescent *)
  Array.iter
    (fun o -> check Alcotest.int "occupancy drained" 0 (Atomic.get o))
    occupancy

let test_lock_index_masks () =
  let t = fresh () in
  check Alcotest.int "num locks" 64 (L.num_locks t);
  check Alcotest.int "id 0" 0 (L.lock_index t 0);
  check Alcotest.int "id 64 wraps" 0 (L.lock_index t 64);
  check Alcotest.int "id 65" 1 (L.lock_index t 65)

let test_take_timestamp_monotone () =
  let t = fresh () in
  let a = L.make_ctx ~tid:0 and b = L.make_ctx ~tid:1 in
  L.take_timestamp t a;
  L.take_timestamp t b;
  check Alcotest.bool "distinct, increasing" true (b.my_ts > a.my_ts);
  let before = a.my_ts in
  L.take_timestamp t a;
  check Alcotest.int "idempotent" before a.my_ts

(* ---- the transactional read path: Sf_txn over acquire_read ---- *)

module S = Twoplsf.Sf_txn

(* The calling thread's indicator word [k], rebuilt bit by bit. *)
let own_word t c k =
  let v = ref 0 in
  for b = 0 to 31 do
    if L.holds_read t c ((k * 32) + b) then v := !v lor (1 lsl b)
  done;
  !v

let test_acquire_read_outcomes () =
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  let outcome =
    Alcotest.testable
      (fun f o ->
        Format.pp_print_string f
          (match o with
          | L.Read_held -> "Read_held"
          | L.Read_first -> "Read_first"
          | L.Read_failed -> "Read_failed"))
      ( = )
  in
  check outcome "first in word" L.Read_first (L.acquire_read t c 5);
  check outcome "word already non-empty" L.Read_held (L.acquire_read t c 6);
  check outcome "already read-held" L.Read_held (L.acquire_read t c 5);
  ignore (L.try_or_wait_write_lock t c 40);
  check outcome "already write-held" L.Read_held (L.acquire_read t c 40);
  L.release_read_word t c 5;
  check Alcotest.int "one store releases the word" 0 (own_word t c 0);
  L.write_unlock t c 40;
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

(* 100 consecutive locks span 4 indicator words: the read set holds one
   entry per word, an upgrade midway adds none, and [finish] releases
   every lock. *)
let test_read_set_one_entry_per_word () =
  let t = L.create ~num_locks:128 () in
  let tx = S.make t ~tid:0 () in
  S.begin_attempt tx;
  for id = 10 to 109 do
    S.read_lock tx id;
    if id = 60 then S.write_lock tx id
  done;
  check (Alcotest.list Alcotest.int) "one entry per word" [ 0; 1; 2; 3 ]
    (List.map (fun w -> w / 32) (Array.to_list (Util.Vec.to_array tx.rwords)));
  check Alcotest.int "one write lock" 1 (Util.Vec.length tx.wlocks);
  S.finish tx;
  check (Alcotest.list Alcotest.int) "every word cleared" [ 0; 0; 0; 0 ]
    (List.map (own_word t tx.ctx) [ 0; 1; 2; 3 ]);
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

let test_read_under_own_write_logs_nothing () =
  let t = fresh () in
  let tx = S.make t ~tid:0 () in
  S.begin_attempt tx;
  S.write_lock tx 5;
  S.read_lock tx 5;
  check Alcotest.bool "no read bit" false (L.holds_read t tx.ctx 5);
  check Alcotest.int "word untouched" 0 (own_word t tx.ctx 0);
  check Alcotest.int "nothing logged" 0 (Util.Vec.length tx.rwords);
  S.finish tx;
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

(* A higher-priority writer holds 5 and 40.  The reader's failed
   acquisition restarts it with Read_lock_conflict and puts its word back:
   word 0 keeps the bit of lock 4 it already held, word 1 goes back to 0,
   and neither failure adds a read-set entry. *)
let test_reader_restart_restores_word () =
  let t = fresh () in
  let holder = L.make_ctx ~tid:0 in
  let tx = S.make t ~tid:1 () in
  ignore (L.try_or_wait_write_lock t holder 5);
  ignore (L.try_or_wait_write_lock t holder 40);
  L.announce_priority t holder 3;
  L.announce_priority t tx.ctx 7;
  let restarts_on id =
    match S.read_lock tx id with
    | () -> Alcotest.failf "read of %d under a higher-priority writer" id
    | exception Twoplsf_cm.Txn_loop.Restart ->
        check Alcotest.bool "read-lock conflict" true
          (tx.abort_reason = Twoplsf_obs.Events.Read_lock_conflict);
        check Alcotest.int "conflictor recorded" 0 tx.ctx.o_tid
  in
  S.begin_attempt tx;
  S.read_lock tx 4;
  let prior = own_word t tx.ctx 0 in
  restarts_on 5;
  check Alcotest.int "non-empty word restored" prior (own_word t tx.ctx 0);
  check Alcotest.int "one entry, for lock 4" 1 (Util.Vec.length tx.rwords);
  S.release tx;
  S.begin_attempt tx;
  restarts_on 40;
  check Alcotest.int "empty word restored" 0 (own_word t tx.ctx 1);
  check Alcotest.int "nothing logged" 0 (Util.Vec.length tx.rwords);
  S.finish tx;
  L.write_unlock t holder 5;
  L.write_unlock t holder 40;
  L.clear_announcement t holder;
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

(* Model test: random reads, writes and aborts over locks 0..95 (three
   indicator words) by one thread.  After every step the held locks match
   the model and every non-empty own word has exactly one read-set entry;
   after [finish] every own word is 0 and no write word is held. *)
type op = Read of int | Write of int | Abort

let op_gen =
  QCheck.Gen.(
    map2
      (fun k id -> match k with 0 | 1 -> Read id | 2 | 3 -> Write id | _ -> Abort)
      (int_range 0 4) (int_range 0 95))

let show_op = function
  | Read id -> Printf.sprintf "R%d" id
  | Write id -> Printf.sprintf "W%d" id
  | Abort -> "A"

let prop_read_set_words =
  QCheck.Test.make ~name:"read set of words vs held-lock model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let t = L.create ~num_locks:128 () in
      let tx = S.make t ~tid:0 () in
      let held = Array.make 96 false in
      let holds id = L.holds_read t tx.ctx id || L.holds_write t tx.ctx id in
      let consistent () =
        let logged k =
          Array.fold_left
            (fun n w -> if w / 32 = k then n + 1 else n)
            0 (Util.Vec.to_array tx.rwords)
        in
        Array.for_all Fun.id (Array.mapi (fun id h -> h = holds id) held)
        && List.for_all
             (fun k -> logged k = if own_word t tx.ctx k <> 0 then 1 else 0)
             [ 0; 1; 2 ]
      in
      S.begin_attempt tx;
      let ok =
        List.for_all
          (fun op ->
            (match op with
            | Read id ->
                S.read_lock tx id;
                held.(id) <- true
            | Write id ->
                S.write_lock tx id;
                held.(id) <- true
            | Abort ->
                S.release tx;
                S.begin_attempt tx;
                Array.fill held 0 96 false);
            consistent ())
          ops
      in
      S.finish tx;
      ok
      && List.for_all (fun k -> own_word t tx.ctx k = 0) [ 0; 1; 2; 3 ]
      && List.for_all (fun w -> not (L.holds_write t tx.ctx w)) (List.init 128 Fun.id)
      && L.leaked t = 0)

(* Sf_txn keeps the lock-index mask beside Rwl_sf: over tables of 32, 1024
   and 65536 locks, random ids (many >= num_locks, aliasing low locks)
   must log exactly the words of [L.lock_index t id], hold every lock
   read, and leave nothing behind after [finish]. *)
let prop_mask_parity =
  let gen =
    QCheck.Gen.(
      oneofl [ 32; 1024; 65536 ] >>= fun n ->
      let id =
        frequency
          [
            (1, int_range 0 ((4 * n) - 1));
            (1, map2 (fun k r -> (k * n) + r) (int_range 0 3) (int_range 0 63));
          ]
      in
      map (fun ids -> (n, ids)) (list_size (int_range 1 80) id))
  in
  QCheck.Test.make ~name:"Sf_txn mask = Rwl_sf.lock_index" ~count:150
    (QCheck.make
       ~print:(fun (n, ids) ->
         Printf.sprintf "n=%d ids=[%s]" n
           (String.concat ";" (List.map string_of_int ids)))
       gen)
    (fun (n, ids) ->
      let t = L.create ~num_locks:n () in
      let tx = S.make t ~tid:0 () in
      S.begin_attempt tx;
      List.iter (S.read_lock tx) ids;
      let logged =
        List.sort compare
          (List.map (fun w -> w / 32) (Array.to_list (Util.Vec.to_array tx.rwords)))
      in
      let expected =
        List.sort_uniq compare (List.map (fun id -> L.lock_index t id / 32) ids)
      in
      let all_held =
        List.for_all (fun id -> L.holds_read t tx.ctx (L.lock_index t id)) ids
      in
      S.finish tx;
      logged = expected && all_held && L.leaked t = 0)

(* Chaos forcing every Read_lock_arrive to fail spuriously: a new lock
   fails with its word untouched and no conflictor to wait for, while a
   lock already held is still reported held (the held test comes before
   the injection). *)
let test_acquire_read_spurious () =
  let module Chaos = Twoplsf_chaos.Chaos in
  let t = fresh () in
  let c = L.make_ctx ~tid:0 in
  ignore (L.acquire_read t c 4);
  let prior = own_word t c 0 in
  c.o_tid <- 3;
  Chaos.enable ~config:{ Chaos.quiet with Chaos.spurious_ppm = 1_000_000 } ();
  let fresh_lock, held_lock =
    Fun.protect ~finally:Chaos.disable (fun () ->
        (L.acquire_read t c 5, L.acquire_read t c 4))
  in
  check Alcotest.bool "new lock fails" true (fresh_lock = L.Read_failed);
  check Alcotest.bool "held lock still held" true (held_lock = L.Read_held);
  check Alcotest.int "own word unchanged" prior (own_word t c 0);
  check Alcotest.int "no conflictor" (-1) c.o_tid;
  L.release_read_word t c 4;
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

(* Telemetry counts one read-lock-fast event per new lock, none for a
   re-read of a held lock. *)
let test_read_lock_fast_count () =
  let module Obs = Twoplsf_obs in
  let sc = Obs.Scope.create "test-rwl-sf-read-fast" in
  let t = fresh () in
  L.set_obs t sc;
  let tx = S.make t ~tid:0 () in
  let fast () = List.assoc "read-lock-fast" (Obs.Scope.event_counts sc) in
  let k = 40 in
  let before = fast () in
  Obs.Telemetry.on := true;
  Fun.protect
    ~finally:(fun () -> Obs.Telemetry.on := false)
    (fun () ->
      S.begin_attempt tx;
      for id = 3 to 3 + k - 1 do
        S.read_lock tx id
      done;
      for id = 3 to 3 + k - 1 do
        S.read_lock tx id
      done;
      S.finish tx);
  check Alcotest.int "one event per new lock" k (fast () - before);
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

(* The announcement slot reads 0 after every commit: an uncontended one
   (which skips the store) and one that drew a timestamp on a conflict
   with an irrevocable (priority 1) writer. *)
let test_announcement_cleared_at_commit () =
  let t = fresh () in
  let tx = S.make t ~tid:1 () in
  S.begin_attempt tx;
  S.read_lock tx 5;
  S.finish tx;
  check Alcotest.int "conflict-free commit" 0 (L.announced t 1);
  let holder = L.make_ctx ~tid:0 in
  ignore (L.try_or_wait_write_lock t holder 5);
  L.announce_priority t holder 1;
  S.begin_attempt tx;
  (match S.read_lock tx 5 with
  | () -> Alcotest.fail "read under an irrevocable writer"
  | exception Twoplsf_cm.Txn_loop.Restart -> S.release tx);
  check Alcotest.bool "timestamp drawn and announced" true
    (tx.ctx.my_ts > 1 && L.announced t 1 = tx.ctx.my_ts);
  L.write_unlock t holder 5;
  L.clear_announcement t holder;
  S.begin_attempt tx;
  S.read_lock tx 5;
  S.finish tx;
  check Alcotest.int "conflicted commit" 0 (L.announced t 1);
  check Alcotest.int "my_ts" 0 tx.ctx.my_ts;
  check Alcotest.int "nothing leaked" 0 (L.leaked t)

(* ---- the read bias (DESIGN.md §7) ---- *)

module Chaos = Twoplsf_chaos.Chaos
module Obs = Twoplsf_obs

let () =
  Printf.printf "membarrier: %s\n%!"
    (if Util.Fence.membarrier_ok then "registered (biased reads are fence-free)"
     else "unavailable (fallback: every read arrives with an SC store)")

let bias_state =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with L.Bias.Off -> "off" | On -> "on" | Revoking -> "revoking"))
    ( = )

(* Barriers are skipped while one domain runs alone, so the policy tests
   keep a second, sleeping domain alive. *)
let with_second_domain f =
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Unix.sleepf 0.001
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    f

(* Read [n] fresh locks one at a time, releasing each word. *)
let read_fresh t c n =
  for k = 0 to n - 1 do
    let w = k land 63 in
    ignore (L.acquire_read t c w);
    L.release_read_word t c w
  done

(* Without membarrier the bias starts off, cannot be forced on, and no
   amount of reading re-enables it: every read takes the SC path. *)
let test_bias_fallback () =
  let t = L.Bias.create_without_membarrier ~num_locks:64 () in
  let c = L.make_ctx ~tid:0 in
  check bias_state "starts off" L.Bias.Off (L.Bias.state t);
  check Alcotest.bool "cannot force on" false (L.Bias.set t L.Bias.On);
  with_second_domain (fun () ->
      read_fresh t c 600;
      Unix.sleepf 0.01;
      read_fresh t c 600;
      check Alcotest.bool "write lock" true (L.try_or_wait_write_lock t c 9);
      L.write_unlock t c 9);
  check bias_state "still off" L.Bias.Off (L.Bias.state t);
  check Alcotest.int "no barrier issued" 0 (L.Bias.barriers t);
  check Alcotest.int "nothing leaked" 0 (L.leaked t);
  if not Util.Fence.membarrier_ok then
    check bias_state "every table falls back" L.Bias.Off
      (L.Bias.state (fresh ()))

(* on --(the first write that issues a barrier)--> revoking --> off
   --(256 fenced reads after the inhibit window)--> on, one epoch per
   transition, one telemetry event per revocation and re-enable; then a
   writer that finds the bias revoking issues its own barrier and
   changes nothing. *)
let test_bias_state_machine () =
  if not Util.Fence.membarrier_ok then
    check bias_state "fallback: off" L.Bias.Off (L.Bias.state (fresh ()))
  else begin
    let t = fresh () in
    let c = L.make_ctx ~tid:0 in
    check Alcotest.int "on at epoch 0" 1 (L.Bias.word t);
    ignore (L.try_or_wait_write_lock t c 5);
    L.write_unlock t c 5;
    check Alcotest.int "one domain alone: no barrier" 0 (L.Bias.barriers t);
    let sc = Obs.Scope.create "test-rwl-sf-bias" in
    L.set_obs t sc;
    let count label = List.assoc label (Obs.Scope.event_counts sc) in
    Obs.Telemetry.on := true;
    Fun.protect
      ~finally:(fun () -> Obs.Telemetry.on := false)
      (fun () ->
        with_second_domain (fun () ->
            ignore (L.try_or_wait_write_lock t c 5);
            L.write_unlock t c 5;
            check bias_state "first barrier revokes" L.Bias.Off (L.Bias.state t);
            check Alcotest.int "on -> revoking -> off: epoch 2" 8 (L.Bias.word t);
            check Alcotest.int "one revocation event" 1 (count "bias-revoked");
            check Alcotest.int "the writer's barrier and the revoker's" 2
              (L.Bias.barriers t);
            ignore (L.try_or_wait_write_lock t c 5);
            L.write_unlock t c 5;
            check Alcotest.int "off: no barrier" 2 (L.Bias.barriers t);
            let deadline = Unix.gettimeofday () +. 5. in
            while L.Bias.state t = L.Bias.Off && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.005;
              read_fresh t c 256
            done;
            check bias_state "fenced reads re-enable" L.Bias.On (L.Bias.state t);
            check Alcotest.int "off -> on: epoch 3" 13 (L.Bias.word t);
            check Alcotest.int "one re-enable event" 1 (count "bias-enabled");
            check Alcotest.bool "force revoking" true (L.Bias.set t L.Bias.Revoking);
            let word = L.Bias.word t and barriers = L.Bias.barriers t in
            check Alcotest.bool "write under revoking" true
              (L.try_or_wait_write_lock t c 7);
            L.write_unlock t c 7;
            check Alcotest.int "its own barrier" (barriers + 1) (L.Bias.barriers t);
            check Alcotest.int "no transition by the writer" word (L.Bias.word t);
            let f = c.fenced_reads in
            check Alcotest.bool "read under revoking" true
              (L.acquire_read t c 8 = L.Read_first);
            L.release_read_word t c 8;
            check Alcotest.int "takes the SC path" (f + 1) c.fenced_reads;
            check
              Alcotest.(pair int int)
              "no further transition" (1, 1)
              (count "bias-revoked", count "bias-enabled")));
    check Alcotest.int "nothing leaked" 0 (L.leaked t)
  end

(* Epoch ABA: a reader that loaded "on" before a revoke and a re-enable
   sees "on" again after its store, but a writer in between may have
   loaded "off" and skipped its barrier.  The epoch makes the words
   differ, so the reader must take the fenced path.  The scheduler hook
   at Read_lock_check runs between the reader's store and its re-loads. *)
let test_bias_epoch_aba () =
  if not Util.Fence.membarrier_ok then
    check bias_state "fallback: off" L.Bias.Off (L.Bias.state (fresh ()))
  else begin
    let t = fresh () in
    let c = L.make_ctx ~tid:0 in
    L.Bias.pin t true;
    let flip = ref false in
    let read w =
      let f = c.fenced_reads in
      Chaos.hook :=
        Some
          (fun site ->
            if !flip && site = Chaos.Read_lock_check then
              List.iter
                (fun st -> ignore (L.Bias.set t st))
                [ L.Bias.Revoking; L.Bias.Off; L.Bias.On ]);
      Chaos.enable ~config:Chaos.quiet ();
      let r =
        Fun.protect
          ~finally:(fun () ->
            Chaos.disable ();
            Chaos.hook := None)
          (fun () -> L.acquire_read t c w)
      in
      (r, c.fenced_reads - f)
    in
    let r, fenced = read 3 in
    check Alcotest.bool "control: acquired" true (r = L.Read_first);
    check Alcotest.int "control: fence-free" 0 fenced;
    flip := true;
    let word = L.Bias.word t in
    let r, fenced = read 40 in
    check bias_state "on again" L.Bias.On (L.Bias.state t);
    check Alcotest.int "three epochs later" (word + 12) (L.Bias.word t);
    check Alcotest.bool "acquired" true (r = L.Read_first);
    check Alcotest.int "took the fenced path" 1 fenced;
    L.release_read_word t c 3;
    L.release_read_word t c 40;
    check Alcotest.int "nothing leaked" 0 (L.leaked t)
  end

(* Store-buffer litmus: a reader and a writer domain meet at a two-party
   barrier, then race for one lock, once per round.  Each side, once it
   holds the lock, raises its flag with an SC store and loads the other's
   flag, so any overlap of a read and a write hold is seen by at least
   one side.  After the barrier each side spins a few iterations drawn
   from a fixed seed, so the rounds sweep the reader's store-then-load
   window across the writer's CAS-then-scan.  The writer holds priority
   1, so a reader that meets it restarts at once instead of sleeping in
   the wait loop. *)
let litmus_rounds = 1_000_000

(* Wait until the other side has reached round [r].  A partner that is
   descheduled gets the core back through the sleep. *)
let await cell r =
  let spins = ref 0 in
  while Atomic.get cell < r do
    incr spins;
    if !spins land 4095 = 0 then Unix.sleepf 1e-5 else Domain.cpu_relax ()
  done

let skew n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity n)
  done

(* Runs the rounds on lock 17 of [t]; with [churn], a third domain writes
   lock 18 of the same table in bursts of 16 until both racers are done,
   so revocations by another writer land during the race.  Returns the
   number of rounds in which both sides held the lock, and how many
   rounds each side held it. *)
let litmus_race ?(churn = false) t =
  let w = 17 in
  let r_in = Atomic.make false and w_in = Atomic.make false in
  let at = [| Atomic.make 0; Atomic.make 0 |] in
  let finished = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let counts =
    Harness.Exec.run_each
      ~threads:(if churn then 3 else 2)
      (fun i ->
        let c = L.make_ctx ~tid:(Util.Tid.get ()) in
        let held = ref 0 in
        if i = 2 then
          while Atomic.get finished < 2 do
            for _ = 1 to 16 do
              if L.try_or_wait_write_lock t c (w + 1) then
                L.write_unlock t c (w + 1);
              L.clear_announcement t c
            done;
            incr held;
            Unix.sleepf 1e-4
          done
        else begin
          let rng = Util.Sprng.create (0x5B11 + i) in
          let mine = at.(i) and theirs = at.(1 - i) in
          for r = 1 to litmus_rounds do
            Atomic.set mine r;
            await theirs r;
            skew (Util.Sprng.int rng 64);
            if i = 0 then begin
              L.announce_priority t c 1;
              if L.try_or_wait_write_lock t c w then begin
                Atomic.set w_in true;
                if Atomic.get r_in then Atomic.incr violations;
                Atomic.set w_in false;
                L.write_unlock t c w;
                incr held
              end
            end
            else if L.acquire_read t c w <> L.Read_failed then begin
              Atomic.set r_in true;
              if Atomic.get w_in then Atomic.incr violations;
              Atomic.set r_in false;
              L.release_read_word t c w;
              incr held
            end;
            L.clear_announcement t c
          done;
          Atomic.incr finished
        end;
        !held)
  in
  (Atomic.get violations, counts)

(* The bias pinned on (plain reader stores, writer membarrier) or pinned
   off (SC stores) for the whole race. *)
let litmus_pinned bias () =
  let t = fresh () in
  if not (L.Bias.set t bias) then
    check bias_state "fallback: on unavailable" L.Bias.Off (L.Bias.state t)
  else begin
    L.Bias.pin t true;
    let violations, counts = litmus_race t in
    check Alcotest.int "never both holding" 0 violations;
    check Alcotest.bool "both sides held the lock" true
      (List.for_all (fun n -> n > 0) counts);
    check bias_state "bias unchanged" bias (L.Bias.state t);
    check Alcotest.int "nothing leaked" 0 (L.leaked t)
  end

(* The bias left to the policy, with no inhibit window: the litmus
   writer revokes at its first write, the reader re-enables after 256
   fenced reads, and the churn domain's revocations make the litmus
   writer meet "revoking" and "off" after a revocation it did not make.
   The transitions run in a fixed cycle (on -> revoking -> off -> on),
   so the epoch count gives the number of revocations and re-enables. *)
let litmus_adaptive () =
  let t = fresh () in
  if L.Bias.state t <> L.Bias.On then
    check bias_state "fallback: off" L.Bias.Off (L.Bias.state t)
  else begin
    L.Bias.set_inhibit_factor t 0;
    let e0 = L.Bias.word t lsr 2 in
    let violations, counts = litmus_race ~churn:true t in
    let e = (L.Bias.word t lsr 2) - e0 in
    Printf.printf "%d revocations, %d re-enables\n%!" ((e + 1) / 3) (e / 3);
    check Alcotest.int "never both holding" 0 violations;
    check Alcotest.bool "both sides held the lock" true
      (List.for_all (fun n -> n > 0) counts);
    check Alcotest.bool "revoked and re-enabled" true (e >= 3);
    check Alcotest.int "nothing leaked" 0 (L.leaked t)
  end

let () =
  Alcotest.run "rwl_sf"
    [
      ( "fast paths",
        [
          Alcotest.test_case "read" `Quick test_read_fast_path;
          Alcotest.test_case "write" `Quick test_write_fast_path;
          Alcotest.test_case "read reentrant" `Quick test_read_reentrant;
          Alcotest.test_case "write reentrant" `Quick test_write_reentrant;
          Alcotest.test_case "read->write upgrade" `Quick
            test_read_then_write_upgrade;
          Alcotest.test_case "read under own write" `Quick
            test_write_lock_while_holding_write;
          Alcotest.test_case "lock_index" `Quick test_lock_index_masks;
        ] );
      ( "conflict resolution",
        [
          Alcotest.test_case "reader loses to lower-ts writer" `Quick
            test_reader_restarts_on_lower_ts_writer;
          Alcotest.test_case "writer loses to lower-ts writer" `Quick
            test_writer_restarts_on_lower_ts_writer;
          Alcotest.test_case "writer loses to lower-ts reader" `Quick
            test_writer_restarts_on_lower_ts_reader;
          Alcotest.test_case "timestamp taken once, kept" `Quick
            test_conflict_takes_timestamp_once;
          Alcotest.test_case "timestamps monotone" `Quick
            test_take_timestamp_monotone;
        ] );
      ( "waiting",
        [
          Alcotest.test_case "unconflicted holder is waited for" `Quick
            test_unconflicted_holder_is_waited_for;
          Alcotest.test_case "writer waits for reader" `Quick
            test_writer_waits_for_reader_release;
          Alcotest.test_case "wait_for_conflictor immediate" `Quick
            test_wait_for_conflictor_returns_when_cleared;
          Alcotest.test_case "wait_for_conflictor blocks" `Quick
            test_wait_for_conflictor_blocks_until_commit;
        ] );
      ( "announcements",
        [
          Alcotest.test_case "clear" `Quick test_clear_announcement;
          Alcotest.test_case "zero mutex" `Quick test_zero_mutex;
        ] );
      ( "transactional read path",
        [
          Alcotest.test_case "acquire_read outcomes" `Quick
            test_acquire_read_outcomes;
          Alcotest.test_case "read set: one entry per word" `Quick
            test_read_set_one_entry_per_word;
          Alcotest.test_case "read under own write logs nothing" `Quick
            test_read_under_own_write_logs_nothing;
          Alcotest.test_case "reader restart restores its word" `Quick
            test_reader_restart_restores_word;
          QCheck_alcotest.to_alcotest prop_read_set_words;
          QCheck_alcotest.to_alcotest prop_mask_parity;
          Alcotest.test_case "spurious arrive fails cleanly" `Quick
            test_acquire_read_spurious;
          Alcotest.test_case "read-lock-fast counts new locks" `Quick
            test_read_lock_fast_count;
          Alcotest.test_case "announcement cleared at commit" `Quick
            test_announcement_cleared_at_commit;
        ] );
      ( "stress",
        [
          Alcotest.test_case "mutual exclusion under churn" `Quick
            test_mutual_exclusion_stress;
        ] );
      ( "bias",
        [
          Alcotest.test_case "fallback without membarrier" `Quick
            test_bias_fallback;
          Alcotest.test_case "revoke, re-enable, revoking writer" `Quick
            test_bias_state_machine;
          Alcotest.test_case "epoch ABA takes the fenced path" `Quick
            test_bias_epoch_aba;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "store buffer, bias on" `Slow
            (litmus_pinned L.Bias.On);
          Alcotest.test_case "store buffer, bias off" `Slow
            (litmus_pinned L.Bias.Off);
          Alcotest.test_case "store buffer, bias revoked and re-enabled" `Slow
            litmus_adaptive;
        ] );
    ]
