(* The repository benchmark: one workload per invocation, two closed-loop
   client domains, every metric printed by name with its unit and, as the
   last line of standard output, one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with all instrumentation off.
   --trace 1 measures half of the time untraced and half traced (timing
   STM functor, timing WAL I/O, the library's telemetry scopes, in-memory
   spans) and reports the per-layer metrics, including what tracing cost;
   isolated loops and, for workloads without a log, one traced
   ycsb-durable round cover the layers the workload itself does not run.
   Workloads, their parameters and the layer each metric belongs to are
   described in README.md beside this file. *)

module Obs = Twoplsf_obs
module Wal = Twoplsf_wal.Wal
module Wal_io = Twoplsf_wal.Wal_io
module Rwl_sf = Twoplsf.Rwl_sf
module W = Perfbench.Workloads
module Closed_loop = Perfbench.Closed_loop
module Spans = Perfbench.Spans
module Timed_io = Perfbench.Timed_io
module Timed = Perfbench.Timed_stm.Make (Twoplsf.Stm)

let clients = 2
let warm_ns = 200_000_000
let out_dir = ".perfbench"
let now = Util.Clock.now_ns
let secs ns = float_of_int ns /. 1e9
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b
let median xs = if xs = [] then 0. else Util.Stats.percentile (Array.of_list xs) 50.

(* ---- metric catalogue (BENCHMARK.json lists the same names) ---- *)

let end_to_end =
  [
    ("throughput_ops_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("read_indicator.arrive_depart_ns", "ns");
    ("rwl_sf.read_lock_unlock_ns", "ns");
    ("rwl_sf.write_lock_unlock_ns", "ns");
    ("rwl_sf.waited_frac", "ratio");
    ("rwl_sf.lock_wait_frac", "ratio");
    ("rwl_sf.clock_increments_per_commit", "count");
    ("stm.read_ns", "ns");
    ("stm.write_ns", "ns");
    ("stm.reads_per_txn", "count");
    ("stm.commit_ns", "ns");
    ("stm.attempts_per_commit", "count");
    ("stm.wasted_frac", "ratio");
    ("stm.conflictor_wait_frac", "ratio");
    ("structures.op_ns", "ns");
    ("structures.self_frac", "ratio");
    ("dbx.execute_ns", "ns");
    ("dbx.aborts_per_txn", "count");
    ("dbx.lock_wait_frac", "ratio");
    ("dbx.conflictor_wait_frac", "ratio");
    ("dbx.wasted_retry_frac", "ratio");
    ("dbx.fsync_wait_frac", "ratio");
    ("dbx.ycsb_next_ns", "ns");
    ("wal.records_per_fsync", "count");
    ("wal.fsync_ns_p50", "ns");
    ("wal.device_busy_frac", "ratio");
    ("wal.bytes_per_commit", "B");
    ("wal.checkpoints", "count");
    ("wal.checkpoint_s", "s");
    ("wal.recovery_s", "s");
    ("wal.recover_records_per_s", "1/s");
    ("wal.write_amp", "ratio");
    ("failed_frac", "ratio");
    ("obs.trace_overhead_frac", "ratio");
    ("obs.spans", "count");
  ]
  @ List.map (fun n -> ("span." ^ Spans.label n ^ ".self_ns", "ns")) Spans.all

let json_num v = if Float.is_finite v then Printf.sprintf "%.15g" v else "0"

let emit ~correct ~attempted ~failed catalogue values =
  List.iter
    (fun (name, unit) ->
      let v = Option.value (List.assoc_opt name values) ~default:0. in
      Printf.printf "  %-38s %16s %s\n" name (json_num v) unit)
    catalogue;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name values) ~default:0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      catalogue
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics)

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.
          | exception _ -> acc)
        0. (String.split_on_char '\n' s)

(* ---- telemetry read-out ---- *)

let scope name =
  match Obs.Scope.find name with Some s -> s | None -> failwith ("no telemetry scope " ^ name)

let event sc e = List.assoc (Obs.Events.event_label e) (Obs.Scope.event_counts sc)
let phase sc p = List.assoc (Obs.Phase.label p) (Obs.Scope.phase_counts sc)

(* Lock-layer ratios of one scope: how often an acquisition had to wait,
   and the share of transaction time spent waiting for locks. *)
let lock_metrics sc =
  let fast = event sc Obs.Events.Read_lock_fast + event sc Obs.Events.Write_lock_fast in
  let waited = event sc Obs.Events.Read_lock_waited + event sc Obs.Events.Write_lock_waited in
  let total = Obs.Scope.txn_total_ns sc in
  [
    ("rwl_sf.waited_frac", ratio waited (fast + waited));
    ( "rwl_sf.lock_wait_frac",
      ratio (phase sc Obs.Phase.Read_lock_wait + phase sc Obs.Phase.Write_lock_wait) total );
  ]

(* ---- isolated loops: L0 and L1 on one domain, no contention ---- *)

let per_call_ns ~seed f =
  let idx =
    let rng = Util.Sprng.create (Util.Sprng.hash4 seed 9 0 0) in
    Array.init 4096 (fun _ -> Util.Sprng.int rng 65536)
  in
  let iters = 200_000 in
  let once () =
    let t0 = now () in
    for i = 0 to iters - 1 do
      f idx.(i land 4095)
    done;
    float_of_int (now () - t0) /. float_of_int iters
  in
  median (List.init 9 (fun _ -> once ()))

let isolated_loops ~seed =
  let tid = Util.Tid.get () in
  let ri = Rwlock.Read_indicator.create ~num_locks:65536 in
  let t = Rwl_sf.create ~num_locks:65536 () in
  let ctx = Rwl_sf.make_ctx ~tid in
  [
    ( "read_indicator.arrive_depart_ns",
      per_call_ns ~seed (fun w ->
          Rwlock.Read_indicator.arrive ri ~tid w;
          Rwlock.Read_indicator.depart ri ~tid w) );
    ( "rwl_sf.read_lock_unlock_ns",
      per_call_ns ~seed (fun w ->
          ignore (Rwl_sf.try_or_wait_read_lock t ctx w);
          Rwl_sf.read_unlock t ctx w) );
    ( "rwl_sf.write_lock_unlock_ns",
      per_call_ns ~seed (fun w ->
          ignore (Rwl_sf.try_or_wait_write_lock t ctx w);
          Rwl_sf.write_unlock t ctx w) );
  ]

(* L3 on one domain: [Linked_list.get] on the list-read set, through the
   timing STM, so the share of an operation spent outside [atomic] is
   measured on every traced run. *)
let isolated_structures ~seed =
  let module T = W.List_read (Timed) in
  let op = (T.setup ~seed ~traced:false).W.make_op 0 in
  let n = 20_000 in
  Timed.reset_totals ();
  let t0 = now () in
  for _ = 1 to n do
    op ()
  done;
  let dt = now () - t0 in
  let t = Timed.totals () in
  [ ("structures.op_ns", ratio dt n); ("structures.self_frac", ratio (dt - t.atomic_ns) dt) ]

let isolated ~seed = isolated_loops ~seed @ isolated_structures ~seed

(* ---- time-bounded phases (list-read, counters-conflict, ycsb-hot) ---- *)

type phase_out = {
  res : Closed_loop.result;
  setups : float list;  (** seconds per set-up *)
  layers : (string * float) list;  (** per-layer values, traced phases *)
  ok : bool;
  msg : string;
}

(* The measured time is split into [slices] client runs over the same
   inputs, with a burst of set-ups timed before the first and after each
   one.  Set-up time follows the machine's speed, which on a shared host
   changes from second to second; bursts spread over the whole run give a
   median that does not depend on one moment.  The first burst's last
   set-up is the one measured.  A set-up far shorter than the clock's
   noise is timed in batches of [batch] back-to-back set-ups, each batch
   reporting its time per set-up.  [collect] reads the per-layer counters
   before the output check runs transactions of its own. *)
let run_phase ~seed ~seconds ~slices ~traced ~setups ~batch ~before ~collect setup =
  let burst () =
    let times = ref [] and last = ref None in
    for _ = 1 to max 1 (setups / (slices + 1)) do
      last := None;
      Gc.full_major ();
      let t0 = now () in
      for _ = 1 to batch do
        last := Some (setup ())
      done;
      times := (secs (now () - t0) /. float_of_int batch) :: !times
    done;
    (!times, !last)
  in
  let first, kept = burst () in
  let p = Option.get kept in
  before ();
  let stop =
    Closed_loop.For { warm_ns; measure_ns = int_of_float (seconds *. 1e9 /. float_of_int slices) }
  in
  let runs, later =
    List.split
      (List.init slices (fun _ ->
           let r = Closed_loop.run ~clients ~seed ~traced ~stop p.W.make_op in
           (r, if traced then [] else fst (burst ()))))
  in
  let res = Closed_loop.merge runs in
  let layers = collect () in
  let ok, msg = p.W.check ~ok_total:res.ok_total in
  { res; setups = first @ List.concat later; layers; ok; msg }

let nothing () = []

let e2e_of ~res ~setups =
  let q x = float_of_int (Perfbench.Lat.quantile res.Closed_loop.lat_sorted x) /. 1e3 in
  [
    ("throughput_ops_s", Closed_loop.throughput res);
    ("latency_p50_us", q 0.50);
    ("latency_p99_us", q 0.99);
    ("setup_s", median setups);
    ("peak_rss_mb", peak_rss_mb ());
  ]

let describe name (o : phase_out) =
  let r = o.res in
  Printf.printf "%s: %d attempted, %d committed in the measured %.2f s, %d failed (%s)\n" name
    r.attempted r.committed (secs r.elapsed_ns) r.failed
    (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.failures));
  Option.iter (Printf.printf "%s: first failure: %s\n" name) r.first_error;
  Printf.printf "%s: latency samples: %d operations timed, %d kept\n" name r.lat_seen
    (Array.length r.lat_sorted);
  Printf.printf "%s: check %s: %s\n" name (if o.ok then "OK" else "FAILED") o.msg

let stm_layers () =
  let t = Timed.totals () in
  let sc = scope Twoplsf.Stm.name in
  lock_metrics sc
  @ [
      ("rwl_sf.clock_increments_per_commit", ratio (Timed.clock_ops ()) t.txns);
      ("stm.read_ns", ratio t.read_ns t.reads);
      ("stm.write_ns", ratio t.write_ns t.writes);
      ("stm.reads_per_txn", ratio t.reads t.txns);
      ("stm.commit_ns", ratio t.commit_ns t.txns);
      ("stm.attempts_per_commit", ratio t.attempts t.txns);
      ("stm.wasted_frac", ratio t.wasted_ns t.atomic_ns);
      ( "stm.conflictor_wait_frac",
        ratio (phase sc Obs.Phase.Conflictor_wait) (Obs.Scope.txn_total_ns sc) );
    ]

let dbx_scope () = scope ("DBx-" ^ Dbx.Cc_2plsf.name)

let dbx_layers ~next ~exec =
  let sc = dbx_scope () in
  let total = Obs.Scope.txn_total_ns sc in
  let frac p = ratio (phase sc p) total in
  let n = exec.W.n in
  lock_metrics sc
  @ [
      ("rwl_sf.clock_increments_per_commit", ratio (event sc Obs.Events.Priority_announced) n);
      ("dbx.execute_ns", ratio exec.W.ns n);
      ("dbx.aborts_per_txn", ratio exec.W.sum n);
      ("dbx.lock_wait_frac", frac Obs.Phase.Read_lock_wait +. frac Obs.Phase.Write_lock_wait);
      ("dbx.conflictor_wait_frac", frac Obs.Phase.Conflictor_wait);
      ("dbx.wasted_retry_frac", frac Obs.Phase.Wasted_retry);
      ("dbx.fsync_wait_frac", frac Obs.Phase.Fsync_wait);
      ("dbx.ycsb_next_ns", ratio next.W.ns next.W.n);
    ]

let start_tracing () =
  Obs.Telemetry.enable ();
  Spans.on := true

let span_layers () =
  let summary = Spans.self_summary () in
  ("obs.spans", float_of_int (Spans.recorded ()))
  :: List.map
       (fun n -> ("span." ^ Spans.label n ^ ".self_ns", Spans.mean_self_ns summary n))
       Spans.all

let dump_spans workload =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s.json" workload) in
  Spans.dump path;
  Printf.printf "%s: %d spans written to %s (%d dropped: buffers full)\n" workload
    (Spans.recorded ()) path (Spans.dropped ())

(* ---- ycsb-durable: fixed-work rounds over a write-ahead log ---- *)

let durable_theta = 0.6
let durable_ops_per_client = 8_000
let ckpt_every_bytes = 4 lsl 20
let wal_dir = Filename.concat out_dir "wal"

let clear_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else begin
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    Sys.mkdir dir 0o755
  end

let remove_wal_dir () =
  clear_dir wal_dir;
  Sys.rmdir wal_dir

type round = {
  r_res : Closed_loop.result;
  r_setup_s : float;
  r_recovery_s : float;
  r_records : int;  (** records replayed by recovery *)
  r_ok : bool;
  r_msg : string;
  r_wal : (string * int) list;  (** [Wal.metrics] at stop *)
  r_io : Timed_io.totals option;  (** traced rounds only *)
  r_rows_written : int;
  r_next : W.probe;
  r_exec : W.probe;
}

(* One round: fresh table, engine and log; a fixed number of
   transactions, so the log bytes and checkpoints are the same every
   round; then stop the log, recover it into a fresh table and compare. *)
let durable_round ~seed ~traced =
  clear_dir wal_dir;
  Gc.full_major ();
  let t0 = now () in
  let w = W.Ycsb_w.setup ~seed ~theta:durable_theta ~clients in
  let timing, io =
    if traced then
      let st, io = Timed_io.wrap Wal_io.passthrough in
      (Some st, io)
    else (None, Wal_io.passthrough)
  in
  let wal =
    Wal.create
      (Wal.config ~sync:Wal.Sync_fsync ~ckpt_every_bytes ~io ~dir:wal_dir ())
      (Dbx.Cc_2plsf.wal_store w.W.Ycsb_w.table)
  in
  Dbx.Cc_2plsf.set_wal w.W.Ycsb_w.cc (Some wal);
  let setup_s = secs (now () - t0) in
  let res =
    Closed_loop.run ~clients ~seed ~traced ~stop:(Closed_loop.Ops durable_ops_per_client)
      (W.Ycsb_w.phase w ~traced).W.make_op
  in
  Dbx.Cc_2plsf.set_wal w.W.Ycsb_w.cc None;
  Wal.stop wal;
  let fresh = Dbx.Table.create ~num_rows:W.Ycsb_w.num_rows in
  let r0 = now () in
  let r = Wal.recover ~dir:wal_dir (Dbx.Cc_2plsf.wal_store fresh) in
  let recovery_s = secs (now () - r0) in
  let same = W.Ycsb_w.tables_equal w.W.Ycsb_w.table fresh in
  let tally_ok, tally_msg = W.Ycsb_w.check w in
  {
    r_res = res;
    r_setup_s = setup_s;
    r_recovery_s = recovery_s;
    r_records = r.Wal.r_records;
    r_ok = same && tally_ok;
    r_msg = Printf.sprintf "recovered table byte-identical: %b; %s" same tally_msg;
    r_wal = Wal.metrics wal;
    r_io = Option.map Timed_io.totals timing;
    r_rows_written = W.Ycsb_w.rows_written w;
    r_next = W.sum_probes w.W.Ycsb_w.next_p;
    r_exec = W.sum_probes w.W.Ycsb_w.exec_p;
  }

(* Rounds until [seconds] of measured time have passed, at least
   [min_rounds]; the log directory is removed afterwards. *)
let durable_rounds ~seed ~traced ~seconds ~min_rounds name =
  let rec go acc measured =
    if List.length acc >= min_rounds && measured >= seconds then begin
      remove_wal_dir ();
      List.rev acc
    end
    else begin
      let r = durable_round ~seed ~traced in
      let q x = float_of_int (Perfbench.Lat.quantile r.r_res.lat_sorted x) /. 1e3 in
      Printf.printf
        "%s round %d: %d txns in %.3f s, p50 %.1f us, p99 %.1f us, setup %.3f s, recovery %.3f \
         s, %d failed, check %s: %s\n\
         %!"
        name (List.length acc + 1) r.r_res.committed (secs r.r_res.elapsed_ns) (q 0.5) (q 0.99)
        r.r_setup_s r.r_recovery_s r.r_res.failed (if r.r_ok then "OK" else "FAILED") r.r_msg;
      go (r :: acc) (measured +. secs r.r_res.elapsed_ns)
    end
  in
  go [] 0.

let rounds_tput rs = median (List.map (fun r -> Closed_loop.throughput r.r_res) rs)
let rounds_sum f rs = List.fold_left (fun a r -> a + f r) 0 rs

let durable_e2e rs =
  let lat = Array.concat (List.map (fun r -> r.r_res.Closed_loop.lat_sorted) rs) in
  Array.sort compare lat;
  let q x = float_of_int (Perfbench.Lat.quantile lat x) /. 1e3 in
  Printf.printf "ycsb-durable: latency samples: %d rounds of %d operations, all timed and kept\n"
    (List.length rs) (clients * durable_ops_per_client);
  [
    ("throughput_ops_s", rounds_tput rs);
    ("latency_p50_us", q 0.50);
    ("latency_p99_us", q 0.99);
    ("setup_s", median (List.map (fun r -> r.r_setup_s) rs));
    ("peak_rss_mb", peak_rss_mb ());
  ]

let wal_layers rs =
  let ios = List.filter_map (fun r -> r.r_io) rs in
  let io f = List.fold_left (fun a t -> a + f t) 0 ios in
  let wal k = rounds_sum (fun r -> List.assoc k r.r_wal) rs in
  let commits = rounds_sum (fun r -> r.r_res.committed) rs in
  let fsync_samples = Array.concat (List.map (fun t -> t.Timed_io.fsync_samples) ios) in
  Array.sort compare fsync_samples;
  let recovery = List.fold_left (fun a r -> a +. r.r_recovery_s) 0. rs in
  [
    ("wal.records_per_fsync", ratio (wal "records") (wal "fsyncs"));
    ("wal.fsync_ns_p50", float_of_int (Perfbench.Lat.quantile fsync_samples 0.5));
    ( "wal.device_busy_frac",
      ratio (io Timed_io.busy_ns) (rounds_sum (fun r -> r.r_res.elapsed_ns) rs) );
    ("wal.bytes_per_commit", ratio (wal "bytes") commits);
    ("wal.checkpoints", ratio (wal "checkpoints") (List.length rs));
    ("wal.checkpoint_s", ratio (io (fun t -> t.checkpoint_ns)) (io (fun t -> t.checkpoints)) /. 1e9);
    ("wal.recovery_s", median (List.map (fun r -> r.r_recovery_s) rs));
    ("wal.recover_records_per_s", fratio (float_of_int (rounds_sum (fun r -> r.r_records) rs)) recovery);
    ( "wal.write_amp",
      ratio (io (fun t -> t.bytes_written))
        (rounds_sum (fun r -> r.r_rows_written) rs * Dbx.Table.tuple_size) );
  ]

(* One traced ycsb-durable round, for a workload that runs no row engine
   or log, so that every traced run measures L4 and L5; only the metrics
   named by [prefixes] are kept. *)
let engine_round ~seed ~prefixes =
  Obs.Scope.reset (dbx_scope ());
  let r = durable_round ~seed ~traced:true in
  remove_wal_dir ();
  let layers =
    List.filter
      (fun (k, _) -> List.exists (fun prefix -> String.starts_with ~prefix k) prefixes)
      (dbx_layers ~next:r.r_next ~exec:r.r_exec @ wal_layers [ r ])
  in
  (r, layers)

(* A time-bounded workload: [untraced] and [traced] build its inputs
   through the plain and the timing STM (or engine) respectively. *)
let time_bounded ~name ~seed ~seconds ~trace ~setups ~batch ~reset ~untraced ~traced ~layers
    ~engine_prefixes =
  if not trace then begin
    let o =
      run_phase ~seed ~seconds ~slices:5 ~traced:false ~setups ~batch ~before:reset
        ~collect:nothing untraced
    in
    describe name o;
    (o.ok, o.res.attempted, o.res.failed, e2e_of ~res:o.res ~setups:o.setups)
  end
  else begin
    let iso = isolated ~seed in
    let half = seconds /. 2. in
    let u =
      run_phase ~seed ~seconds:half ~slices:1 ~traced:false ~setups ~batch ~before:reset
        ~collect:nothing untraced
    in
    describe (name ^ " untraced") u;
    start_tracing ();
    let t =
      run_phase ~seed ~seconds:half ~slices:1 ~traced:true ~setups:1 ~batch:1
        ~before:(fun () ->
          reset ();
          Timed.reset_totals ();
          Spans.reset ())
        ~collect:layers traced
    in
    describe (name ^ " traced") t;
    dump_spans name;
    let spans = span_layers () in
    let e, engine = engine_round ~seed ~prefixes:engine_prefixes in
    Printf.printf "%s: engine round: %d txns, check %s: %s\n" name e.r_res.committed
      (if e.r_ok then "OK" else "FAILED") e.r_msg;
    let attempted = u.res.attempted + t.res.attempted + e.r_res.attempted
    and failed = u.res.failed + t.res.failed + e.r_res.failed in
    let overhead =
      1. -. fratio (Closed_loop.throughput t.res) (Closed_loop.throughput u.res)
    in
    ( u.ok && t.ok && e.r_ok,
      attempted,
      failed,
      iso @ t.layers @ engine @ spans
      @ [ ("failed_frac", ratio failed attempted); ("obs.trace_overhead_frac", overhead) ] )
  end

let list_read ~seed ~seconds ~trace =
  let module P = W.List_read (Twoplsf.Stm) in
  let module T = W.List_read (Timed) in
  time_bounded ~name:"list-read" ~seed ~seconds ~trace ~setups:400 ~batch:1
    ~reset:Twoplsf.Stm.reset_stats
    ~untraced:(fun () -> P.setup ~seed ~traced:false)
    ~traced:(fun () -> T.setup ~seed ~traced:true)
    ~layers:stm_layers ~engine_prefixes:[ "dbx."; "wal." ]

let counters_conflict ~seed ~seconds ~trace =
  let module P = W.Counters (Twoplsf.Stm) in
  let module T = W.Counters (Timed) in
  time_bounded ~name:"counters-conflict" ~seed ~seconds ~trace ~setups:250 ~batch:4000
    ~reset:Twoplsf.Stm.reset_stats
    ~untraced:(fun () -> P.setup ~seed)
    ~traced:(fun () -> T.setup ~seed)
    ~layers:stm_layers ~engine_prefixes:[ "dbx."; "wal." ]

let ycsb_hot ~seed ~seconds ~trace =
  let theta = 0.9 in
  let last = ref None in
  let setup ~traced () =
    let w = W.Ycsb_w.setup ~seed ~theta ~clients in
    last := Some w;
    W.Ycsb_w.phase w ~traced
  in
  time_bounded ~name:"ycsb-hot" ~seed ~seconds ~trace ~setups:25 ~batch:1
    ~reset:(fun () -> Obs.Scope.reset (dbx_scope ()))
    ~untraced:(setup ~traced:false) ~traced:(setup ~traced:true)
    ~layers:(fun () ->
      let w = Option.get !last in
      dbx_layers ~next:(W.sum_probes w.W.Ycsb_w.next_p) ~exec:(W.sum_probes w.W.Ycsb_w.exec_p))
    ~engine_prefixes:[ "wal." ]

let ycsb_durable ~seed ~seconds ~trace =
  let name = "ycsb-durable" in
  let outcome rs =
    ( List.for_all (fun r -> r.r_ok) rs,
      rounds_sum (fun r -> r.r_res.attempted) rs,
      rounds_sum (fun r -> r.r_res.failed) rs )
  in
  if not trace then begin
    let rs = durable_rounds ~seed ~traced:false ~seconds ~min_rounds:3 name in
    let ok, attempted, failed = outcome rs in
    (ok, attempted, failed, durable_e2e rs)
  end
  else begin
    let iso = isolated ~seed in
    let half = seconds /. 2. in
    let us = durable_rounds ~seed ~traced:false ~seconds:half ~min_rounds:1 (name ^ " untraced") in
    start_tracing ();
    Obs.Scope.reset (dbx_scope ());
    Spans.reset ();
    let ts = durable_rounds ~seed ~traced:true ~seconds:half ~min_rounds:1 (name ^ " traced") in
    dump_spans name;
    let ok_u, att_u, fail_u = outcome us and ok_t, att_t, fail_t = outcome ts in
    let sum_probe f = W.sum_probes (Array.of_list (List.map f ts)) in
    let attempted = att_u + att_t and failed = fail_u + fail_t in
    ( ok_u && ok_t,
      attempted,
      failed,
      iso
      @ dbx_layers ~next:(sum_probe (fun r -> r.r_next)) ~exec:(sum_probe (fun r -> r.r_exec))
      @ wal_layers ts @ span_layers ()
      @ [
          ("failed_frac", ratio failed attempted);
          ("obs.trace_overhead_frac", 1. -. fratio (rounds_tput ts) (rounds_tput us));
        ] )
  end

(* ---- command line ---- *)

let workloads =
  [
    ("list-read", list_read);
    ("counters-conflict", counters_conflict);
    ("ycsb-hot", ycsb_hot);
    ("ycsb-durable", ycsb_durable);
  ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let usage =
    "bench.exe --workload ("
    ^ String.concat "|" (List.map fst workloads)
    ^ ") --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline usage;
      exit 2
  | Some _ when !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline usage;
      exit 2
  | Some run ->
      let trace = !trace = 1 in
      Printf.printf
        "workload=%s seed=%d seconds=%d trace=%b clients=%d policy=Stm_intf.default_policy\n%!"
        !workload !seed !seconds trace clients;
      let correct, attempted, failed, values =
        run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace
      in
      emit ~correct ~attempted ~failed (if trace then per_layer else end_to_end) values;
      if not correct then exit 1
