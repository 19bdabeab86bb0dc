(* Semantic battery run against every STM in the registry, plus
   2PLSF-specific tests (irrevocability, restart histogram, configure). *)

let check = Alcotest.check

module Battery (S : Stm_intf.STM) = struct
  let test_commit_visible () =
    let x = S.tvar 0 in
    S.atomic (fun tx -> S.write tx x 41);
    let v = S.atomic ~read_only:true (fun tx -> S.read tx x) in
    check Alcotest.int "visible" 41 v

  let test_read_own_write () =
    let x = S.tvar 1 in
    let seen =
      S.atomic (fun tx ->
          S.write tx x 2;
          let a = S.read tx x in
          S.write tx x 3;
          let b = S.read tx x in
          (a, b))
    in
    check (Alcotest.pair Alcotest.int Alcotest.int) "own writes" (2, 3) seen;
    check Alcotest.int "final" 3 (S.atomic (fun tx -> S.read tx x))

  let test_rollback_on_exception () =
    let x = S.tvar 10 in
    (try
       S.atomic (fun tx ->
           S.write tx x 99;
           failwith "user error")
     with Failure _ -> ());
    check Alcotest.int "rolled back" 10 (S.atomic (fun tx -> S.read tx x))

  let test_exception_propagates () =
    let x = S.tvar 0 in
    Alcotest.check_raises "propagates" Exit (fun () ->
        S.atomic (fun tx ->
            S.write tx x 1;
            raise Exit))

  let test_multi_tvar_atomic () =
    let a = S.tvar 50 and b = S.tvar 50 in
    S.atomic (fun tx ->
        S.write tx a (S.read tx a - 10);
        S.write tx b (S.read tx b + 10));
    let sa, sb = S.atomic (fun tx -> (S.read tx a, S.read tx b)) in
    check Alcotest.int "sum invariant" 100 (sa + sb);
    check Alcotest.int "a" 40 sa

  let test_nested_flattens () =
    let x = S.tvar 0 in
    let v =
      S.atomic (fun tx ->
          S.write tx x 1;
          let inner = S.atomic (fun tx' -> S.read tx' x) in
          S.write tx x (inner + 1);
          S.read tx x)
    in
    check Alcotest.int "nested saw outer write" 2 v

  let test_write_after_read_same_tvar () =
    let x = S.tvar 5 in
    S.atomic (fun tx ->
        let v = S.read tx x in
        S.write tx x (v * 2));
    check Alcotest.int "upgraded" 10 (S.atomic (fun tx -> S.read tx x))

  let test_many_tvars_one_txn () =
    (* Exceeds any bloom filter / forces lock-table hash collisions. *)
    let tvars = Array.init 300 (fun i -> S.tvar i) in
    S.atomic (fun tx ->
        Array.iter (fun tv -> S.write tx tv (S.read tx tv + 1)) tvars);
    let sum =
      S.atomic ~read_only:true (fun tx ->
          Array.fold_left (fun acc tv -> acc + S.read tx tv) 0 tvars)
    in
    check Alcotest.int "all updated" (((299 * 300) / 2) + 300) sum

  let test_different_types () =
    let s = S.tvar "hello" and f = S.tvar 1.5 and l = S.tvar [ 1; 2 ] in
    S.atomic (fun tx ->
        S.write tx s (S.read tx s ^ "!");
        S.write tx f (S.read tx f *. 2.);
        S.write tx l (3 :: S.read tx l));
    check Alcotest.string "string tvar" "hello!"
      (S.atomic (fun tx -> S.read tx s));
    check (Alcotest.float 1e-9) "float tvar" 3.
      (S.atomic (fun tx -> S.read tx f));
    check (Alcotest.list Alcotest.int) "list tvar" [ 3; 1; 2 ]
      (S.atomic (fun tx -> S.read tx l))

  let test_stats_count_commits () =
    S.reset_stats ();
    let x = S.tvar 0 in
    for _ = 1 to 5 do
      S.atomic (fun tx -> S.write tx x (S.read tx x + 1))
    done;
    check Alcotest.bool "at least 5 commits" true (S.commits () >= 5);
    S.reset_stats ();
    check Alcotest.int "reset" 0 (S.commits ())

  let test_last_restarts_zero_uncontended () =
    let x = S.tvar 0 in
    S.atomic (fun tx -> S.write tx x 1);
    check Alcotest.int "no restarts" 0 (S.last_restarts ())

  let test_result_value () =
    let x = S.tvar 7 in
    let v = S.atomic (fun tx -> S.read tx x * 6) in
    check Alcotest.int "returned" 42 v

  let cases =
    [
      Alcotest.test_case (S.name ^ " commit visible") `Quick test_commit_visible;
      Alcotest.test_case (S.name ^ " read own write") `Quick test_read_own_write;
      Alcotest.test_case (S.name ^ " rollback on exception") `Quick
        test_rollback_on_exception;
      Alcotest.test_case (S.name ^ " exception propagates") `Quick
        test_exception_propagates;
      Alcotest.test_case (S.name ^ " multi-tvar atomic") `Quick
        test_multi_tvar_atomic;
      Alcotest.test_case (S.name ^ " nested flattens") `Quick
        test_nested_flattens;
      Alcotest.test_case (S.name ^ " write after read") `Quick
        test_write_after_read_same_tvar;
      Alcotest.test_case (S.name ^ " many tvars") `Quick test_many_tvars_one_txn;
      Alcotest.test_case (S.name ^ " heterogeneous types") `Quick
        test_different_types;
      Alcotest.test_case (S.name ^ " stats") `Quick test_stats_count_commits;
      Alcotest.test_case (S.name ^ " last_restarts") `Quick
        test_last_restarts_zero_uncontended;
      Alcotest.test_case (S.name ^ " result value") `Quick test_result_value;
    ]
end

(* ---- central-clock discipline (§3.3 / §4.1) ---- *)

let clock_discipline_case (module S : Stm_intf.STM) =
  let test () =
    S.reset_stats ();
    let x = S.tvar 0 in
    for _ = 1 to 20 do
      S.atomic (fun tx -> S.write tx x (S.read tx x + 1))
    done;
    for _ = 1 to 20 do
      ignore (S.atomic ~read_only:true (fun tx -> S.read tx x))
    done;
    let ops = S.clock_ops () in
    (match S.name with
    | "2PLSF" | "2PLSF-WB" | "2PLSF-WBD" | "2PL-RW" | "2PL-RW-Dist" | "TLRW" ->
        (* no conflicts happened, so no central-clock traffic at all *)
        check Alcotest.int (S.name ^ " clock untouched") 0 ops
    | "TL2" | "TinySTM" | "OREC-Z" ->
        (* exactly one increment per write transaction, none for reads *)
        check Alcotest.int (S.name ^ " one per write txn") 20 ops
    | "2PL-WaitDie" | "2PL-WoundWait" ->
        (* one per transaction, read-only included *)
        check Alcotest.int (S.name ^ " one per txn") 40 ops
    | "OFWF" ->
        (* one per combiner batch; single-threaded = one per write txn *)
        check Alcotest.int (S.name ^ " one per batch") 20 ops
    | other -> Alcotest.failf "unclassified STM %s" other)
  in
  Alcotest.test_case (S.name ^ " clock discipline") `Quick test

(* ---- 2PLSF-specific ---- *)

module P = Twoplsf.Stm

let test_irrevocable_ro () =
  let x = P.tvar 5 in
  let v = P.atomic_irrevocable_ro (fun tx -> P.read tx x) in
  check Alcotest.int "value" 5 v;
  check Alcotest.int "no restarts" 0 (P.last_restarts ());
  (* Announcement cleared after commit. *)
  let t = P.lock_table () in
  check Alcotest.int "announce cleared" 0
    (Twoplsf.Rwl_sf.announced t (Util.Tid.get ()))

let test_irrevocable_write () =
  let x = P.tvar 0 in
  P.atomic_irrevocable (fun tx -> P.write tx x 33);
  check Alcotest.int "committed" 33 (P.atomic (fun tx -> P.read tx x));
  (* Zero mutex released: a second irrevocable transaction proceeds. *)
  P.atomic_irrevocable (fun tx -> P.write tx x 34);
  check Alcotest.int "second" 34 (P.atomic (fun tx -> P.read tx x))

let test_irrevocable_write_exception_releases_mutex () =
  let x = P.tvar 0 in
  (try P.atomic_irrevocable (fun _ -> failwith "boom") with Failure _ -> ());
  (* Mutex must be free or this blocks forever. *)
  P.atomic_irrevocable (fun tx -> P.write tx x 1);
  check Alcotest.int "after exception" 1 (P.atomic (fun tx -> P.read tx x))

let test_irrevocable_nested_rejected () =
  Alcotest.check_raises "nested irrevocable"
    (Invalid_argument "atomic_irrevocable: already in a transaction")
    (fun () ->
      P.atomic (fun _ -> P.atomic_irrevocable (fun _ -> ())))

let test_restart_histogram_uncontended () =
  P.reset_stats ();
  let x = P.tvar 0 in
  for _ = 1 to 10 do
    P.atomic (fun tx -> P.write tx x (P.read tx x + 1))
  done;
  let h = P.restart_histogram () in
  check Alcotest.int "all in bucket 0" (P.commits ()) h.(0);
  Array.iteri (fun i c -> if i > 0 && c <> 0 then Alcotest.fail "restarts") h

(* ~100 consecutive tvars span at least 4 indicator words, and the read
   set releases by word: after an upgrade midway, commit leaves no read bit
   and no lock behind. *)
let test_wide_read_set_releases_every_word () =
  let module L = Twoplsf.Rwl_sf in
  let tvs = Array.init 100 P.tvar in
  let t = P.lock_table () in
  let me = L.make_ctx ~tid:(Util.Tid.get ()) in
  let held_words () =
    let words = Hashtbl.create 8 in
    for w = 0 to L.num_locks t - 1 do
      if L.holds_read t me w then Hashtbl.replace words (w / 32) ()
    done;
    Hashtbl.length words
  in
  let words =
    P.atomic (fun tx ->
        Array.iteri
          (fun i tv ->
            let v = P.read tx tv in
            if i = 50 then P.write tx tv (v + 1))
          tvs;
        held_words ())
  in
  check Alcotest.bool "spans at least 4 words" true (words >= 4);
  check Alcotest.int "no leaked locks" 0 (P.leaked_locks ());
  check Alcotest.int "no read bit left" 0 (held_words ());
  check Alcotest.int "upgrade committed" 51
    (P.atomic (fun tx -> P.read tx tvs.(50)))

let test_configure_after_build_fails () =
  ignore (P.lock_table ());
  Alcotest.check_raises "too late"
    (Failure "Twoplsf.Stm.configure: lock table already built") (fun () ->
      P.configure ~num_locks:1024 ())

(* Runs before any 2PLSF transaction builds the table.  Regression: an
   invalid size used to be accepted, then broke the first transaction and
   left the table unconfigurable. *)
let test_configure_invalid_size () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument
       "Twoplsf.Stm.configure: num_locks must be a power of two >= 32")
    (fun () -> P.configure ~num_locks:100 ());
  P.configure ();
  check Alcotest.int "default size built" 65536
    (Twoplsf.Rwl_sf.num_locks (P.lock_table ()))

let battery_of (module S : Stm_intf.STM) =
  let module B = Battery (S) in
  (S.name, B.cases)

let () =
  ignore (Util.Tid.register ());
  let batteries = List.map battery_of Baselines.Registry.all in
  Alcotest.run "stm"
    ([
       ( "2PLSF configure",
         [
           Alcotest.test_case "invalid size rejected" `Quick
             test_configure_invalid_size;
         ] );
     ]
    @ batteries
    @ [
        ( "clock discipline",
          List.map clock_discipline_case Baselines.Registry.all );
      ]
    @ [
        ( "2PLSF extras",
          [
            Alcotest.test_case "irrevocable read-only" `Quick
              test_irrevocable_ro;
            Alcotest.test_case "irrevocable write" `Quick test_irrevocable_write;
            Alcotest.test_case "irrevocable write exn releases mutex" `Quick
              test_irrevocable_write_exception_releases_mutex;
            Alcotest.test_case "nested irrevocable rejected" `Quick
              test_irrevocable_nested_rejected;
            Alcotest.test_case "restart histogram" `Quick
              test_restart_histogram_uncontended;
            Alcotest.test_case "configure after build" `Quick
              test_configure_after_build_fails;
            Alcotest.test_case "wide read set releases every word" `Quick
              test_wide_read_set_releases_every_word;
          ] );
      ])
