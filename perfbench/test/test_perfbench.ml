(* Tests of the benchmark's own measurement points: the timing STM
   functor must not change what a workload computes, the timing WAL I/O
   must not change what recovery rebuilds, and the span and latency
   arithmetic must match hand-computed values. *)

module Wal = Twoplsf_wal.Wal
module Wal_io = Twoplsf_wal.Wal_io
module Closed_loop = Perfbench.Closed_loop
module Lat = Perfbench.Lat
module Spans = Perfbench.Spans
module Timed_io = Perfbench.Timed_io
module W = Perfbench.Workloads
module Timed = Perfbench.Timed_stm.Make (Twoplsf.Stm)
module Counters = W.Counters (Timed)

let test_lat () =
  let t = Lat.create ~cap:64 ~seed:1 in
  for i = 1 to 1000 do
    Lat.add t i
  done;
  Alcotest.(check int) "seen" 1000 (Lat.seen t);
  Alcotest.(check int) "kept" 64 (Lat.kept t);
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (Lat.quantile a 0.5);
  Alcotest.(check int) "p99" 99 (Lat.quantile a 0.99);
  Alcotest.(check int) "p100" 100 (Lat.quantile a 1.0)

let test_span_self_times () =
  Spans.reset ();
  let b = Spans.local () in
  let root = Spans.op_begin b ~seq:0 ~t0:0 in
  let child = Spans.enter Spans.Stm_atomic ~t0:10 in
  Spans.add Spans.Stm_commit ~t0:20 ~t1:25;
  Spans.leave child ~t1:30;
  Spans.add Spans.Ycsb_next ~t0:40 ~t1:50;
  Spans.op_end b root ~t1:100;
  (* not sampled: records nothing *)
  let r2 = Spans.op_begin b ~seq:1 ~t0:200 in
  Spans.add Spans.Ycsb_next ~t0:210 ~t1:220;
  Spans.op_end b r2 ~t1:300;
  let s = Spans.self_summary () in
  let self n = Spans.mean_self_ns s n in
  Alcotest.(check (float 0.)) "op self = 100 - 20 - 10" 70. (self Spans.Client_op);
  Alcotest.(check (float 0.)) "atomic self = 20 - 5" 15. (self Spans.Stm_atomic);
  Alcotest.(check (float 0.)) "leaf self = duration" 5. (self Spans.Stm_commit);
  Alcotest.(check int) "one sampled op" 4 (Spans.recorded ());
  Spans.reset ()

(* Two clients, traced, through the timing functor: the counters still
   sum to 20 x commits, and the functor counted what the workload did. *)
let test_timed_stm_conserves () =
  Spans.on := true;
  Spans.reset ();
  Timed.reset_totals ();
  let ph = Counters.setup ~seed:7 in
  let per_client = 3000 in
  let res =
    Closed_loop.run ~clients:2 ~seed:7 ~traced:true ~stop:(Closed_loop.Ops per_client)
      ph.W.make_op
  in
  let t = Timed.totals () in
  let ok, msg = ph.W.check ~ok_total:res.Closed_loop.ok_total in
  Spans.on := false;
  Alcotest.(check bool) msg true ok;
  Alcotest.(check int) "no failures" 0 res.failed;
  Alcotest.(check int) "one top-level txn per op" (2 * per_client) t.txns;
  Alcotest.(check bool) "attempts >= txns" true (t.attempts >= t.txns);
  (* an aborted attempt stops at the read or write that lost *)
  Alcotest.(check bool) "20 reads per committed attempt, at most 20 per attempt" true
    (t.reads >= 20 * t.txns && t.reads <= 20 * t.attempts);
  Alcotest.(check bool) "a write after each read" true
    (t.writes >= 20 * t.txns && t.writes <= t.reads);
  Alcotest.(check bool) "commit time measured" true (t.commit_ns > 0);
  Alcotest.(check bool) "spans recorded" true (Spans.recorded () > 0);
  Spans.reset ()

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* The same single-client transaction stream, logged through [io]. *)
let write_log ~io ~dir =
  remove_tree dir;
  let w = W.Ycsb_w.setup ~seed:3 ~theta:0.6 ~clients:1 in
  let wal =
    Wal.create
      (Wal.config ~sync:Wal.Sync_fsync ~ckpt_every_bytes:(1 lsl 18) ~io ~dir ())
      (Dbx.Cc_2plsf.wal_store w.W.Ycsb_w.table)
  in
  Dbx.Cc_2plsf.set_wal w.W.Ycsb_w.cc (Some wal);
  let op = W.Ycsb_w.make_op w ~traced:false 0 in
  for _ = 1 to 600 do
    op ()
  done;
  Dbx.Cc_2plsf.set_wal w.W.Ycsb_w.cc None;
  Wal.stop wal;
  w.W.Ycsb_w.table

let recover dir =
  let t = Dbx.Table.create ~num_rows:W.Ycsb_w.num_rows in
  ignore (Wal.recover ~strict:true ~dir (Dbx.Cc_2plsf.wal_store t));
  t

let test_timed_io_recovers_identically () =
  let st, io = Timed_io.wrap Wal_io.passthrough in
  let live_timed = write_log ~io ~dir:"log-timed" in
  let live_plain = write_log ~io:Wal_io.passthrough ~dir:"log-plain" in
  let rec_timed = recover "log-timed" and rec_plain = recover "log-plain" in
  Alcotest.(check bool) "timed log recovers the live table" true
    (W.Ycsb_w.tables_equal rec_timed live_timed);
  Alcotest.(check bool) "timed and passthrough recoveries are identical" true
    (W.Ycsb_w.tables_equal rec_timed rec_plain);
  Alcotest.(check bool) "passthrough log recovers the live table" true
    (W.Ycsb_w.tables_equal rec_plain live_plain);
  let t = Timed_io.totals st in
  Alcotest.(check bool) "bytes counted" true (t.bytes_written > 0);
  Alcotest.(check bool) "fsyncs timed" true (t.fsyncs > 0 && Array.length t.fsync_samples = t.fsyncs);
  Alcotest.(check bool) "checkpoint seen" true (t.checkpoints >= 1);
  remove_tree "log-timed";
  remove_tree "log-plain"

let () =
  Alcotest.run "perfbench"
    [
      ( "measurement",
        [
          Alcotest.test_case "latency reservoir and quantiles" `Quick test_lat;
          Alcotest.test_case "span self times" `Quick test_span_self_times;
          Alcotest.test_case "timing STM keeps counters conserved" `Quick
            test_timed_stm_conserves;
          Alcotest.test_case "timing WAL I/O recovers byte-identically" `Quick
            test_timed_io_recovers_identically;
        ] );
    ]
