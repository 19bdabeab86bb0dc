(* Concurrent correctness: atomicity, opacity, lost updates, deadlock
   resolution — run against every STM — plus the 2PLSF starvation-freedom
   bound of §2.2. *)

let check = Alcotest.check

module Battery (S : Stm_intf.STM) = struct
  let test_no_lost_updates () =
    let c = S.tvar 0 in
    ignore
      (Harness.Exec.run_each ~threads:4 (fun _ ->
           for _ = 1 to 400 do
             S.atomic (fun tx -> S.write tx c (S.read tx c + 1))
           done));
    check Alcotest.int "exact" 1_600 (S.atomic (fun tx -> S.read tx c))

  let test_transfer_invariant () =
    let accounts = Array.init 8 (fun _ -> S.tvar 100) in
    let violations = Atomic.make 0 in
    ignore
      (Harness.Exec.run_each ~threads:4 (fun i ->
           let rng = Util.Sprng.create (100 + i) in
           for _ = 1 to 250 do
             let a = Util.Sprng.int rng 8 in
             let b = (a + 1 + Util.Sprng.int rng 7) mod 8 in
             let amount = Util.Sprng.int rng 10 in
             S.atomic (fun tx ->
                 S.write tx accounts.(a) (S.read tx accounts.(a) - amount);
                 S.write tx accounts.(b) (S.read tx accounts.(b) + amount));
             (* Read-only audit: the total must hold in every snapshot. *)
             let total =
               S.atomic ~read_only:true (fun tx ->
                   Array.fold_left (fun acc a -> acc + S.read tx a) 0 accounts)
             in
             if total <> 800 then Atomic.incr violations
           done));
    check Alcotest.int "no torn snapshots" 0 (Atomic.get violations);
    let final =
      S.atomic (fun tx ->
          Array.fold_left (fun acc a -> acc + S.read tx a) 0 accounts)
    in
    check Alcotest.int "money conserved" 800 final

  let test_opposite_order_no_deadlock () =
    (* The §2.3 scenario: one thread locks A then B, the other B then A. *)
    let a = S.tvar 0 and b = S.tvar 0 in
    let iters = 250 in
    ignore
      (Harness.Exec.run_each ~threads:2 (fun i ->
           for _ = 1 to iters do
             S.atomic (fun tx ->
                 if i = 0 then begin
                   S.write tx a (S.read tx a + 1);
                   S.write tx b (S.read tx b + 1)
                 end
                 else begin
                   S.write tx b (S.read tx b + 1);
                   S.write tx a (S.read tx a + 1)
                 end)
           done));
    let va, vb = S.atomic (fun tx -> (S.read tx a, S.read tx b)) in
    check Alcotest.int "a" (2 * iters) va;
    check Alcotest.int "b" (2 * iters) vb

  let test_concurrent_structure () =
    (* Each worker owns a key slice: inserts all, removes half; the final
       contents are exact. *)
    let module H =
      Structures.Hash_map.Make
        (S)
        (struct
          type t = int
        end)
    in
    let h = H.create ~buckets:32 () in
    let per = 100 in
    ignore
      (Harness.Exec.run_each ~threads:4 (fun i ->
           let base = i * per in
           for k = base to base + per - 1 do
             ignore (H.put h k k)
           done;
           for k = base to base + per - 1 do
             if k land 1 = 0 then ignore (H.remove h k)
           done));
    check Alcotest.int "size" (4 * per / 2) (H.size h);
    for k = 0 to (4 * per) - 1 do
      let expect = if k land 1 = 1 then Some k else None in
      if H.get h k <> expect then Alcotest.failf "key %d wrong" k
    done

  let test_disjoint_slices_vs_model () =
    (* Four workers run random op sequences on *disjoint* key slices of one
       shared RAVL tree, each tracking its own sequential model; under any
       correct STM the disjoint histories must both linearize exactly. *)
    let module R =
      Structures.Ravl.Make
        (S)
        (struct
          type t = int
        end)
    in
    let tree = R.create () in
    let slice = 64 in
    let mismatches =
      Harness.Exec.run_each ~threads:4 (fun i ->
          let base = i * slice in
          let rng = Util.Sprng.create (31 + i) in
          let model = Hashtbl.create 64 in
          let bad = ref 0 in
          for _ = 1 to 600 do
            let k = base + Util.Sprng.int rng slice in
            match Util.Sprng.int rng 3 with
            | 0 ->
                let v = Util.Sprng.int rng 1000 in
                let expect_new = not (Hashtbl.mem model k) in
                Hashtbl.replace model k v;
                if R.put tree k v <> expect_new then incr bad
            | 1 ->
                let expect = Hashtbl.mem model k in
                Hashtbl.remove model k;
                if R.remove tree k <> expect then incr bad
            | _ ->
                if R.get tree k <> Hashtbl.find_opt model k then incr bad
          done;
          (* final slice contents *)
          for k = base to base + slice - 1 do
            if R.get tree k <> Hashtbl.find_opt model k then incr bad
          done;
          !bad)
    in
    check Alcotest.int "no divergence from models" 0
      (List.fold_left ( + ) 0 mismatches)

  let test_chaos_exceptions_and_audits () =
    (* Random transfers, random mid-transaction exceptions, concurrent
       read-only audits: the invariant must survive everything. *)
    let cells = Array.init 6 (fun _ -> S.tvar 100) in
    let bad_audits = Atomic.make 0 in
    ignore
      (Harness.Exec.run_each ~threads:4 (fun i ->
           let rng = Util.Sprng.create (77 + i) in
           for _ = 1 to 400 do
             match Util.Sprng.int rng 3 with
             | 0 -> (
                 (* transfer that may blow up after its first write *)
                 let a = Util.Sprng.int rng 6 in
                 let b = (a + 1 + Util.Sprng.int rng 5) mod 6 in
                 let blow = Util.Sprng.int rng 4 = 0 in
                 try
                   S.atomic (fun tx ->
                       S.write tx cells.(a) (S.read tx cells.(a) - 5);
                       if blow then raise Exit;
                       S.write tx cells.(b) (S.read tx cells.(b) + 5))
                 with Exit -> ())
             | 1 ->
                 S.atomic (fun tx ->
                     let a = Util.Sprng.int rng 6 in
                     let b = (a + 1 + Util.Sprng.int rng 5) mod 6 in
                     S.write tx cells.(a) (S.read tx cells.(a) - 1);
                     S.write tx cells.(b) (S.read tx cells.(b) + 1))
             | _ ->
                 let total =
                   S.atomic ~read_only:true (fun tx ->
                       Array.fold_left (fun acc c -> acc + S.read tx c) 0 cells)
                 in
                 if total <> 600 then Atomic.incr bad_audits
           done));
    check Alcotest.int "no inconsistent audit" 0 (Atomic.get bad_audits);
    let final =
      S.atomic (fun tx ->
          Array.fold_left (fun acc c -> acc + S.read tx c) 0 cells)
    in
    check Alcotest.int "invariant after chaos" 600 final

  let cases =
    [
      Alcotest.test_case (S.name ^ " no lost updates") `Quick
        test_no_lost_updates;
      Alcotest.test_case (S.name ^ " disjoint slices vs model") `Quick
        test_disjoint_slices_vs_model;
      Alcotest.test_case (S.name ^ " chaos: exceptions + audits") `Quick
        test_chaos_exceptions_and_audits;
      Alcotest.test_case (S.name ^ " transfer invariant (opacity)") `Quick
        test_transfer_invariant;
      Alcotest.test_case (S.name ^ " opposite-order locking") `Quick
        test_opposite_order_no_deadlock;
      Alcotest.test_case (S.name ^ " concurrent hash map") `Quick
        test_concurrent_structure;
    ]
end

(* ---- 2PLSF starvation-freedom ---- *)

module P = Twoplsf.Stm

(* Adversarial pairwise conflicts (Figure 9's scheme): every transaction
   writes the same 8 counters, threads alternating opposite orders.  §2.2:
   a transaction restarts at most N_threads - 1 times.  [txn i] runs one
   transaction for thread [i] and returns how many times it restarted. *)
let restart_threads = 4
let restart_iters = 2000

let check_restart_bound txn =
  let max_restarts = Atomic.make 0 in
  ignore
    (Harness.Exec.run_each ~threads:restart_threads (fun i ->
         for _ = 1 to restart_iters do
           let r = txn i in
           let rec bump () =
             let cur = Atomic.get max_restarts in
             if r > cur && not (Atomic.compare_and_set max_restarts cur r) then
               bump ()
           in
           bump ()
         done));
  let bound = restart_threads - 1 in
  let worst = Atomic.get max_restarts in
  if worst > bound then
    Alcotest.failf "starvation bound violated: %d restarts > %d" worst bound

let total_txns = restart_threads * restart_iters

let stm_restart_bound (module S : Stm_intf.STM) () =
  let counters = Array.init 8 (fun _ -> S.tvar 0) in
  S.reset_stats ();
  check_restart_bound (fun i ->
      S.atomic (fun tx ->
          if i land 1 = 0 then
            for j = 0 to 7 do
              S.write tx counters.(j) (S.read tx counters.(j) + 1)
            done
          else
            for j = 7 downto 0 do
              S.write tx counters.(j) (S.read tx counters.(j) + 1)
            done);
      S.last_restarts ());
  (* All counters saw every increment exactly once. *)
  let v0 = S.atomic (fun tx -> S.read tx counters.(0)) in
  check Alcotest.int "counter total" total_txns v0;
  Array.iter
    (fun c -> check Alcotest.int "uniform" v0 (S.atomic (fun tx -> S.read tx c)))
    counters

(* The same scheme over DBx rows, counting the aborts [execute] returns. *)
let dbx_restart_bound () =
  let table = Dbx.Table.create ~num_rows:8 in
  let cc = Dbx.Cc_2plsf.create table in
  let byte0 rid = Char.code (Bytes.get (Dbx.Table.payload table rid) 0) in
  let before = Array.init 8 byte0 in
  let ops = Array.make 8 Dbx.Ycsb.Write in
  let up = { Dbx.Ycsb.keys = Array.init 8 Fun.id; ops }
  and down = { Dbx.Ycsb.keys = Array.init 8 (fun j -> 7 - j); ops } in
  check_restart_bound (fun i ->
      Dbx.Cc_2plsf.execute cc ~tid:(Util.Tid.get ())
        (if i land 1 = 0 then up else down));
  Array.iteri
    (fun rid b ->
      check Alcotest.int "every write applied once"
        ((b + total_txns) land 0xFF)
        (byte0 rid))
    before

let test_restart_histogram_support () =
  (* After the bounded-restart run above the histogram's support must be
     within [0, N-1]; rerun a small conflict storm and check. *)
  let threads = 4 in
  P.reset_stats ();
  let x = P.tvar 0 and y = P.tvar 0 in
  ignore
    (Harness.Exec.run_each ~threads (fun i ->
         for _ = 1 to 200 do
           P.atomic (fun tx ->
               if i land 1 = 0 then begin
                 P.write tx x (P.read tx x + 1);
                 P.write tx y (P.read tx y + 1)
               end
               else begin
                 P.write tx y (P.read tx y + 1);
                 P.write tx x (P.read tx x + 1)
               end)
         done));
  let h = P.restart_histogram () in
  Array.iteri
    (fun i c ->
      if i >= threads && c > 0 then
        Alcotest.failf "histogram bucket %d nonempty (%d)" i c)
    h;
  check Alcotest.int "sum" (P.commits ()) (Array.fold_left ( + ) 0 h)

let test_irrevocable_ro_never_restarts_under_writers () =
  let x = P.tvar 0 and y = P.tvar 0 in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        ignore (Util.Tid.register ());
        while not (Atomic.get stop) do
          P.atomic (fun tx ->
              P.write tx x (P.read tx x + 1);
              P.write tx y (P.read tx y + 1))
        done;
        Util.Tid.release ())
  in
  for _ = 1 to 100 do
    let a, b =
      P.atomic_irrevocable_ro (fun tx -> (P.read tx x, P.read tx y))
    in
    check Alcotest.int "consistent snapshot" a b;
    check Alcotest.int "never restarted" 0 (P.last_restarts ())
  done;
  Atomic.set stop true;
  Domain.join writer

let battery_of (module S : Stm_intf.STM) =
  let module B = Battery (S) in
  (S.name, B.cases)

let () =
  ignore (Util.Tid.register ());
  let batteries = List.map battery_of Baselines.Registry.all in
  Alcotest.run "concurrent"
    (batteries
    @ [
        ( "2PLSF starvation-freedom",
          [
            Alcotest.test_case "restart bound N-1" `Quick
              (stm_restart_bound (module P));
            Alcotest.test_case "restart bound N-1 (2PLSF-WB)" `Quick
              (stm_restart_bound (module Twoplsf.Stm_wb));
            Alcotest.test_case "restart bound N-1 (2PLSF-WBD)" `Quick
              (stm_restart_bound (module Twoplsf.Stm_wbd));
            Alcotest.test_case "restart bound N-1 (DBx-2PLSF)" `Quick
              dbx_restart_bound;
            Alcotest.test_case "restart histogram support" `Quick
              test_restart_histogram_support;
            Alcotest.test_case "irrevocable RO under writers" `Quick
              test_irrevocable_ro_never_restarts_under_writers;
          ] );
      ])
