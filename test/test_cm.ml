(* Tests for the overload-protection layer (DESIGN.md §11): transaction
   deadlines, pluggable contention management, AIMD admission control and
   the serial-irrevocable fallback.

   - a transaction stuck behind a chaos-stalled lock holder raises the
     typed [Deadline_exceeded] with the same cleanliness contract as
     [Starved] (zero leaked locks, value conserved, table functional);
   - the backoff contention manager is deterministic under a fixed seed;
   - the AIMD admission gate halves its width under an abort storm and
     recovers additively once the window is healthy;
   - with the fallback enabled, transactions that exhaust their restart
     budget escalate through the serial-irrevocable path and commit
     exactly once (conservation) instead of raising [Starved];
   - every STM survives an instantly-blown deadline under contention with
     zero leaked locks and a conserved invariant, and with the fallback on
     escalates instead of raising;
   - an irrevocable transaction is not held up by a full admission gate;
   - the shared attempt loop, driven by a scripted protocol, runs each hook
     when and as often as its contract says. *)

module Chaos = Twoplsf_chaos.Chaos
module Stm = Twoplsf.Stm
module Cm = Twoplsf_cm.Cm
module Admission = Twoplsf_cm.Admission
module Txn_loop = Twoplsf_cm.Txn_loop

let check = Alcotest.check

(* Every test must leave the globals as it found them: injection off,
   admission gate down, default policy installed. *)
let with_clean_globals f =
  Fun.protect
    ~finally:(fun () ->
      Chaos.disable ();
      Admission.uninstall ();
      Stm_intf.install_policy Stm_intf.default_policy)
    f

let quiet_config =
  {
    Chaos.default with
    Chaos.delay_ppm = 0;
    yield_ppm = 0;
    spurious_ppm = 0;
    exn_ppm = 0;
    stall_ppm = 0;
  }

(* ---- deadline fires behind a chaos-stalled lock holder ---- *)

let test_deadline_stalled_victim () =
  with_clean_globals (fun () ->
      let tv = Stm.tvar 0 in
      Cm.install
        { Stm_intf.default_policy with Stm_intf.deadline_ns = 5_000_000 };
      let outcomes =
        Harness.Exec.run_each ~threads:2 (fun i ->
            if i = 0 then begin
              (* The victim: chaos stalls only this tid, and the
                 [Pre_commit] point it places after the write means it
                 sleeps ~100 ms while holding [tv]'s write lock — far
                 past the other worker's 5 ms budget.  It retries its own
                 occasional deadline (it can be queued behind worker 1's
                 brief lock holds with an already-blown budget). *)
              Chaos.enable
                ~config:
                  {
                    quiet_config with
                    Chaos.stall_ppm = 1_000_000;
                    stall_ms = 100.;
                    victim = Util.Tid.get ();
                  }
                ();
              let commits = ref 0 in
              while !commits = 0 do
                match
                  Stm.atomic (fun tx ->
                      let v = Stm.read tx tv in
                      Stm.write tx tv (v + 1);
                      Chaos.point Chaos.Pre_commit)
                with
                | () -> incr commits
                | exception Stm_intf.Deadline_exceeded _ -> ()
              done;
              (!commits, 0, 0)
            end
            else begin
              (* Hammer the same tvar until a deadline fires; each commit
                 adds 10 so the final audit can count both workers'
                 effects exactly. *)
              let commits = ref 0 and deadlines = ref 0 in
              let t0 = Util.Clock.now () in
              while !deadlines = 0 && Util.Clock.now () -. t0 < 5.0 do
                match
                  Stm.atomic (fun tx ->
                      let v = Stm.read tx tv in
                      Stm.write tx tv (v + 10))
                with
                | () ->
                    incr commits;
                    Unix.sleepf 0.001
                | exception
                    Stm_intf.Deadline_exceeded { stm; elapsed_ns; _ } ->
                    check Alcotest.string "stm name" "2PLSF" stm;
                    check Alcotest.bool "elapsed >= budget" true
                      (elapsed_ns >= 5_000_000);
                    incr deadlines
              done;
              (0, !commits, !deadlines)
            end)
      in
      Chaos.disable ();
      Stm_intf.install_policy Stm_intf.default_policy;
      let victim_commits, other_commits, other_deadlines =
        match outcomes with
        | [ (v, _, _); (_, c, d) ] -> (v, c, d)
        | _ -> Alcotest.fail "expected two workers"
      in
      check Alcotest.int "victim committed once" 1 victim_commits;
      check Alcotest.bool "a deadline fired behind the stalled victim" true
        (other_deadlines > 0);
      check Alcotest.int "zero leaked locks" 0 (Stm.leaked_locks ());
      (* Every aborted attempt rolled back: the value reflects exactly the
         committed increments of both workers, and the table is usable. *)
      check Alcotest.int "value conserved"
        (victim_commits + (10 * other_commits))
        (Stm.atomic (fun tx -> Stm.read tx tv)))

(* ---- backoff determinism under a fixed seed ---- *)

let test_backoff_determinism () =
  with_clean_globals (fun () ->
      let draw () =
        List.init 32 (fun r -> Cm.backoff_delay_ns ~tid:0 ~restarts:r)
      in
      Cm.reseed 0xD5EED;
      let a = draw () in
      Cm.reseed 0xD5EED;
      let b = draw () in
      check Alcotest.(list int) "same seed, same delays" a b;
      Cm.reseed 0x0DD5;
      let c = draw () in
      check Alcotest.bool "different seed, different delays" true (a <> c);
      (* Delays respect the cap and stay positive. *)
      List.iter
        (fun d -> check Alcotest.bool "1 <= d <= 1ms" true (d >= 1 && d <= 1_000_000))
        a;
      (* Distinct threads draw from distinct streams. *)
      Cm.reseed 0xD5EED;
      let t1 = List.init 32 (fun r -> Cm.backoff_delay_ns ~tid:1 ~restarts:r) in
      check Alcotest.bool "per-thread streams differ" true (a <> t1))

(* ---- AIMD gate shrinks under an abort storm, recovers additively ---- *)

let test_admission_aimd () =
  with_clean_globals (fun () ->
      let commits = ref 0 and aborts = ref 0 in
      Admission.install ~max_width:64
        ~sample:(fun () -> (!commits, !aborts))
        ();
      check Alcotest.int "gate opens at max width" 64 (Admission.width ());
      (* Abort storm: two windows at 90% abort rate halve twice. *)
      commits := !commits + 10;
      aborts := !aborts + 90;
      Admission.tick ();
      check Alcotest.int "first shrink" 32 (Admission.width ());
      commits := !commits + 10;
      aborts := !aborts + 90;
      Admission.tick ();
      check Alcotest.int "second shrink" 16 (Admission.width ());
      (* Healthy window: additive recovery, one step per window. *)
      commits := !commits + 100;
      Admission.tick ();
      check Alcotest.int "additive recovery" 17 (Admission.width ());
      (* A near-idle window (< 16 samples) also counts as healthy. *)
      commits := !commits + 3;
      Admission.tick ();
      check Alcotest.int "idle window grows" 18 (Admission.width ());
      (* The gate itself admits and releases. *)
      Admission.enter ();
      check Alcotest.int "inflight" 1 (Admission.inflight ());
      Admission.leave ();
      check Alcotest.int "inflight drained" 0 (Admission.inflight ()))

(* ---- exhausted restart budget escalates instead of starving ---- *)

let test_escalation_conserves () =
  with_clean_globals (fun () ->
      let n_accounts = 8 in
      let initial = 100 in
      let accounts = Array.init n_accounts (fun _ -> Stm.tvar initial) in
      Cm.install
        {
          Stm_intf.default_policy with
          Stm_intf.max_restarts = 2;
          fallback = true;
        };
      (* Every third acquisition spuriously fails: the restart bound is
         hit constantly, and with the fallback on the only legal outcome
         is escalation, never [Starved]. *)
      Chaos.enable
        ~config:{ quiet_config with Chaos.spurious_ppm = 300_000 }
        ();
      let esc0 = Cm.escalations () in
      let starved = Atomic.make 0 in
      let res =
        Harness.Exec.run_timed ~threads:4 ~seconds:0.2 (fun i should_stop ->
            let rng = Util.Sprng.create (0xE5CA + (i * 7919)) in
            let ops = ref 0 in
            while not (should_stop ()) do
              let a = Util.Sprng.int rng n_accounts in
              let b = Util.Sprng.int rng n_accounts in
              match
                Stm.atomic (fun tx ->
                    let va = Stm.read tx accounts.(a) in
                    let vb = Stm.read tx accounts.(b) in
                    if a <> b then begin
                      Stm.write tx accounts.(a) (va - 1);
                      Stm.write tx accounts.(b) (vb + 1)
                    end)
              with
              | () -> incr ops
              | exception Stm_intf.Starved _ -> Atomic.incr starved
            done;
            !ops)
      in
      Chaos.disable ();
      Stm_intf.install_policy Stm_intf.default_policy;
      check Alcotest.bool "made progress" true (res.Harness.Exec.ops > 0);
      check Alcotest.bool "escalations fired" true
        (Cm.escalations () > esc0);
      check Alcotest.int "never starved" 0 (Atomic.get starved);
      check Alcotest.int "zero leaked locks" 0 (Stm.leaked_locks ());
      let total =
        Stm.atomic ~read_only:true (fun tx ->
            Array.fold_left (fun acc a -> acc + Stm.read tx a) 0 accounts)
      in
      check Alcotest.int "conserved (each escalated txn committed once)"
        (n_accounts * initial) total)

(* ---- Deadline cleanliness and fallback escalation for every loop ---- *)

(* Every registry STM plus TicToc-STM, whose attempt loop is the same
   shared one although it stays out of the opacity-assuming registry. *)
let all_loops : (module Stm_intf.STM) list =
  Baselines.Registry.all @ [ (module Baselines.Tictoc_stm) ]

(* 4 threads transfer between 4 accounts for 0.1 s under a 1 ns deadline,
   so the deadline path runs constantly.  Returns the number of
   [Deadline_exceeded] escapes; asserts the [Starved] cleanliness contract
   (zero leaked locks, conserved sum) afterwards. *)
let deadline_pass ~fallback (module S : Stm_intf.STM) =
  let n_accounts = 4 in
  let initial = 100 in
  let accounts = Array.init n_accounts (fun _ -> S.tvar initial) in
  Cm.install
    { Stm_intf.default_policy with Stm_intf.deadline_ns = 1; fallback };
  let deadlines = Atomic.make 0 in
  ignore
    (Harness.Exec.run_timed ~threads:4 ~seconds:0.1 (fun i should_stop ->
         let rng = Util.Sprng.create (0xDEAD + (i * 104729)) in
         let ops = ref 0 in
         while not (should_stop ()) do
           let a = Util.Sprng.int rng n_accounts in
           let b = Util.Sprng.int rng n_accounts in
           match
             if Util.Sprng.int rng 8 = 0 then
               S.atomic ~read_only:true (fun tx ->
                   ignore (S.read tx accounts.(a));
                   ignore (S.read tx accounts.(b)))
             else
               S.atomic (fun tx ->
                   let va = S.read tx accounts.(a) in
                   let vb = S.read tx accounts.(b) in
                   if a <> b then begin
                     S.write tx accounts.(a) (va - 1);
                     S.write tx accounts.(b) (vb + 1)
                   end)
           with
           | () -> incr ops
           | exception Stm_intf.Deadline_exceeded _ -> Atomic.incr deadlines
         done;
         !ops));
  (* Disarm before the audit so the sum transaction itself cannot blow
     the 1 ns budget. *)
  Stm_intf.install_policy Stm_intf.default_policy;
  check Alcotest.int (S.name ^ ": zero leaked locks") 0 (S.leaked_locks ());
  let total =
    S.atomic ~read_only:true (fun tx ->
        Array.fold_left (fun acc a -> acc + S.read tx a) 0 accounts)
  in
  check Alcotest.int (S.name ^ ": conserved") (n_accounts * initial) total;
  Atomic.get deadlines

let test_deadline_cleanliness_all_stms () =
  with_clean_globals (fun () ->
      let total_deadlines =
        List.fold_left
          (fun acc s -> acc + deadline_pass ~fallback:false s)
          0 all_loops
      in
      check Alcotest.bool "deadline path exercised" true (total_deadlines > 0);
      (* Same inputs with the fallback on: the second strike escalates
         (2PLSF family: zero mutex; the rest: Cm.Fallback) and the
         escalated attempt commits, so nothing may escape. *)
      let esc0 = Cm.escalations () in
      List.iter
        (fun ((module S : Stm_intf.STM) as s) ->
          check Alcotest.int
            (S.name ^ ": no Deadline_exceeded with fallback")
            0
            (deadline_pass ~fallback:true s))
        all_loops;
      check Alcotest.bool "escalate arm exercised" true
        (Cm.escalations () > esc0))

(* ---- irrevocable transactions bypass the admission gate ---- *)

(* Poll [cond] for up to [seconds]; its final value. *)
let eventually ~seconds cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < seconds do
    Unix.sleepf 0.001
  done;
  cond ()

(* An irrevocable writer takes the zero mutex before its first attempt; if
   it then queued for an admission token, a token holder that escalates
   would spin on the zero mutex forever.  With a one-token gate held by a
   parked transaction, an irrevocable transaction on a disjoint tvar must
   still run to completion. *)
let test_irrevocable_bypasses_admission () =
  with_clean_globals (fun () ->
      let held = Stm.tvar 0 and other = Stm.tvar 0 in
      Admission.install ~max_width:1 ~min_width:1 ();
      let parked = Atomic.make false and release = Atomic.make false in
      let holder =
        Domain.spawn (fun () ->
            Stm.atomic (fun tx ->
                Stm.write tx held (Stm.read tx held + 1);
                Atomic.set parked true;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done))
      in
      let finished = Atomic.make false in
      let irrevocable =
        Fun.protect
          ~finally:(fun () -> Atomic.set release true)
          (fun () ->
            check Alcotest.bool "body parked" true
              (eventually ~seconds:5.0 (fun () -> Atomic.get parked));
            check Alcotest.int "the parked body holds the only token" 1
              (Admission.inflight ());
            let d =
              Domain.spawn (fun () ->
                  Stm.atomic_irrevocable (fun tx ->
                      Stm.write tx other (Stm.read tx other + 1));
                  Atomic.set finished true)
            in
            check Alcotest.bool "irrevocable returned while the token is held"
              true
              (eventually ~seconds:2.0 (fun () -> Atomic.get finished));
            d)
      in
      Domain.join irrevocable;
      Domain.join holder;
      check Alcotest.int "holder committed" 1
        (Stm.atomic (fun tx -> Stm.read tx held));
      check Alcotest.int "irrevocable committed" 1
        (Stm.atomic (fun tx -> Stm.read tx other));
      check Alcotest.int "zero leaked locks" 0 (Stm.leaked_locks ()))

(* ---- Txn_loop against a scripted protocol ---- *)

(* A single-threaded protocol with no data of its own: [commit] raises
   [Restart] while [fail_commits] is positive, and every hook counts its
   calls, so each test can check which hooks the loop ran and how often. *)
module Mock = struct
  type tx = { st : Txn_loop.state }

  let name = "Mock"
  let stats = Stm_intf.Stats.create ()
  let scope = None
  let the_tx = lazy { st = Txn_loop.make_state ~tid:(Util.Tid.get ()) }
  let get_tx () = Lazy.force the_tx
  let state tx = tx.st
  let fail_commits = ref 0
  let begins = ref 0
  let commit_calls = ref 0
  let rollbacks = ref 0
  let cleanups = ref 0
  let waits = ref 0
  let pre_raises = ref 0
  let escalates = ref 0
  let deescalates = ref 0
  let deadlines = ref []

  let reset () =
    List.iter
      (fun r -> r := 0)
      [
        fail_commits;
        begins;
        commit_calls;
        rollbacks;
        cleanups;
        waits;
        pre_raises;
        escalates;
        deescalates;
      ];
    deadlines := []

  let begin_attempt _ ~read_only:_ = incr begins

  let commit _ =
    incr commit_calls;
    if !fail_commits > 0 then begin
      decr fail_commits;
      raise Txn_loop.Restart
    end

  let rollback _ = incr rollbacks
  let cleanup _ = incr cleanups
  let provenance _ = (-1, -1, Twoplsf_obs.Events.Commit_validation)
  let wait _ ~restarts:_ = incr waits
  let pre_raise _ = incr pre_raises
  let escalate _ = incr escalates
  let deescalate _ = incr deescalates
  let set_deadline _ d = deadlines := d :: !deadlines
end

module L = Txn_loop.Make (Mock)

let with_mock f =
  with_clean_globals (fun () ->
      Mock.reset ();
      f ())

let test_loop_restart_retried () =
  with_mock (fun () ->
      let c0 = L.commits () and a0 = L.aborts () in
      Mock.fail_commits := 3;
      check Alcotest.int "body value returned" 42 (L.atomic (fun _ -> 42));
      check Alcotest.int "one begin per attempt" 4 !Mock.begins;
      check Alcotest.int "one rollback per restart" 3 !Mock.rollbacks;
      check Alcotest.int "native wait between attempts" 3 !Mock.waits;
      check Alcotest.int "no cleanup" 0 !Mock.cleanups;
      check Alcotest.int "commits counted" 1 (L.commits () - c0);
      check Alcotest.int "aborts counted" 3 (L.aborts () - a0);
      check Alcotest.int "last_restarts" 3 (L.last_restarts ()))

let test_loop_foreign_exception () =
  with_mock (fun () ->
      Admission.install ();
      let st = Mock.state (Mock.get_tx ()) in
      (match L.atomic (fun _ -> raise Exit) with
      | () -> Alcotest.fail "exception swallowed"
      | exception Exit -> ());
      check Alcotest.int "cleanup ran once" 1 !Mock.cleanups;
      check Alcotest.int "no rollback" 0 !Mock.rollbacks;
      check Alcotest.int "no commit attempted" 0 !Mock.commit_calls;
      check Alcotest.bool "left the transaction" false (Txn_loop.active st);
      check Alcotest.int "admission token returned" 0 (Admission.inflight ()))

let test_loop_flat_nesting () =
  with_mock (fun () ->
      let st = Mock.state (Mock.get_tx ()) in
      let v =
        L.atomic (fun _ ->
            check Alcotest.bool "active in the body" true (Txn_loop.active st);
            L.atomic (fun _ -> 7) + 1)
      in
      check Alcotest.int "inner value flows out" 8 v;
      check Alcotest.int "one attempt" 1 !Mock.begins;
      check Alcotest.int "one commit" 1 !Mock.commit_calls;
      check Alcotest.bool "inactive after" false (Txn_loop.active st))

let test_loop_starved () =
  with_mock (fun () ->
      Cm.install { Stm_intf.default_policy with Stm_intf.max_restarts = 2 };
      Mock.fail_commits := max_int;
      (match L.atomic (fun _ -> ()) with
      | () -> Alcotest.fail "committed past the restart bound"
      | exception Stm_intf.Starved { stm; restarts; _ } ->
          check Alcotest.string "stm" "Mock" stm;
          check Alcotest.int "restarts" 2 restarts);
      check Alcotest.int "pre_raise before the raise" 1 !Mock.pre_raises;
      check Alcotest.int "every restart rolled back" 2 !Mock.rollbacks;
      check Alcotest.int "never escalated" 0 !Mock.escalates)

let test_loop_escalates () =
  with_mock (fun () ->
      Cm.install
        {
          Stm_intf.default_policy with
          Stm_intf.max_restarts = 2;
          fallback = true;
        };
      let e0 = Cm.escalations () in
      Mock.fail_commits := 4;
      L.atomic (fun _ -> ());
      check Alcotest.int "escalated once" 1 !Mock.escalates;
      check Alcotest.int "de-escalated once" 1 !Mock.deescalates;
      check Alcotest.int "Cm counted it" 1 (Cm.escalations () - e0);
      check Alcotest.int "no pre_raise" 0 !Mock.pre_raises;
      check Alcotest.int "last_restarts" 4 (L.last_restarts ()))

let test_loop_irrevocable_exempt () =
  with_mock (fun () ->
      Admission.install ();
      Cm.install
        { Stm_intf.default_policy with Stm_intf.deadline_ns = 1_000_000_000 };
      L.atomic (fun _ ->
          check Alcotest.int "atomic holds a token" 1 (Admission.inflight ()));
      check Alcotest.bool "atomic armed a deadline" true
        (List.exists (fun d -> d <> 0) !Mock.deadlines);
      Mock.deadlines := [];
      L.atomic_irrevocable (fun _ ->
          check Alcotest.int "irrevocable takes no token" 0
            (Admission.inflight ()));
      check
        Alcotest.(list int)
        "irrevocable has no deadline" [ 0 ] !Mock.deadlines)

let () =
  ignore (Util.Tid.register ());
  Alcotest.run "cm"
    [
      ( "cm",
        [
          Alcotest.test_case "deadline fires behind stalled victim" `Quick
            test_deadline_stalled_victim;
          Alcotest.test_case "backoff determinism" `Quick
            test_backoff_determinism;
          Alcotest.test_case "AIMD admission gate" `Quick
            test_admission_aimd;
          Alcotest.test_case "escalation conserves, never starves" `Quick
            test_escalation_conserves;
          Alcotest.test_case "deadline cleanliness, every STM" `Quick
            test_deadline_cleanliness_all_stms;
          Alcotest.test_case "irrevocable bypasses admission" `Quick
            test_irrevocable_bypasses_admission;
        ] );
      ( "txn_loop",
        [
          Alcotest.test_case "restart is retried and counted" `Quick
            test_loop_restart_retried;
          Alcotest.test_case "foreign exception cleans up" `Quick
            test_loop_foreign_exception;
          Alcotest.test_case "nesting is flat" `Quick test_loop_flat_nesting;
          Alcotest.test_case "restart bound raises Starved" `Quick
            test_loop_starved;
          Alcotest.test_case "restart bound escalates with fallback" `Quick
            test_loop_escalates;
          Alcotest.test_case "irrevocable skips gate and deadline" `Quick
            test_loop_irrevocable_exempt;
        ] );
    ]
