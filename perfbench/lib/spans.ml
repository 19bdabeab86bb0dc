(* In-memory span recorder for the benchmark's traced run.

   Each domain owns a fixed-capacity buffer (struct-of-arrays, no
   allocation per span), so recording never synchronizes between
   clients.  A span carries an operation id, a name, start and end
   (monotonic ns) and the index of its parent span in the same buffer;
   spans of one operation share the id.  Client operations are sampled
   (one in [sample_every]) so the buffers cover the whole run instead of
   filling in its first second; log-device spans (Timed_io) are always
   recorded and grouped by group-commit batch.  Nothing is written until
   [dump] runs after the measured phase. *)

type name =
  | Client_op
  | Structures_get
  | Stm_atomic
  | Stm_attempt
  | Stm_commit
  | Ycsb_next
  | Dbx_execute
  | Wal_write
  | Wal_fsync
  | Wal_checkpoint

let all =
  [
    Client_op;
    Structures_get;
    Stm_atomic;
    Stm_attempt;
    Stm_commit;
    Ycsb_next;
    Dbx_execute;
    Wal_write;
    Wal_fsync;
    Wal_checkpoint;
  ]

let index = function
  | Client_op -> 0
  | Structures_get -> 1
  | Stm_atomic -> 2
  | Stm_attempt -> 3
  | Stm_commit -> 4
  | Ycsb_next -> 5
  | Dbx_execute -> 6
  | Wal_write -> 7
  | Wal_fsync -> 8
  | Wal_checkpoint -> 9

let label = function
  | Client_op -> "client.op"
  | Structures_get -> "structures.get"
  | Stm_atomic -> "stm.atomic"
  | Stm_attempt -> "stm.attempt"
  | Stm_commit -> "stm.commit"
  | Ycsb_next -> "ycsb.next"
  | Dbx_execute -> "dbx.execute"
  | Wal_write -> "wal.write"
  | Wal_fsync -> "wal.fsync"
  | Wal_checkpoint -> "wal.checkpoint"

let num_names = List.length all
let sample_every = 64
let default_capacity = 1 lsl 16

type buf = {
  cap : int;
  mutable len : int;
  op : int array;
  nm : int array;
  parent : int array;
  t0 : int array;
  t1 : int array;
  mutable cur : int;  (* innermost open span, -1 at top level *)
  mutable op_id : int;
  mutable sampling : bool;  (* the current client operation is recorded *)
  mutable dropped : int;  (* spans refused because the buffer was full *)
}

let on = ref false
let next_op = Atomic.make 0
let registry_mu = Mutex.create ()
let registry : buf list ref = ref []

let make_buf cap =
  let a () = Array.make cap 0 in
  {
    cap;
    len = 0;
    op = a ();
    nm = a ();
    parent = a ();
    t0 = a ();
    t1 = a ();
    cur = -1;
    op_id = 0;
    sampling = false;
    dropped = 0;
  }

let key =
  Domain.DLS.new_key (fun () ->
      let b = make_buf default_capacity in
      Mutex.protect registry_mu (fun () -> registry := b :: !registry);
      b)

let local () = Domain.DLS.get key

let push b name ~t0 =
  if b.len >= b.cap then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    let i = b.len in
    b.len <- i + 1;
    b.op.(i) <- b.op_id;
    b.nm.(i) <- index name;
    b.parent.(i) <- b.cur;
    b.t0.(i) <- t0;
    b.t1.(i) <- t0;
    b.cur <- i;
    i
  end

let close b i ~t1 =
  if i >= 0 then begin
    b.t1.(i) <- t1;
    b.cur <- b.parent.(i)
  end

(* ---- client operations ---- *)

let op_begin b ~seq ~t0 =
  b.sampling <- seq mod sample_every = 0;
  if b.sampling then begin
    b.op_id <- Atomic.fetch_and_add next_op 1;
    push b Client_op ~t0
  end
  else -1

let op_end b i ~t1 =
  close b i ~t1;
  b.sampling <- false

let enter name ~t0 =
  let b = local () in
  if b.sampling then push b name ~t0 else -1

let leave i ~t1 = if i >= 0 then close (local ()) i ~t1

(* A finished child of the innermost open span, timed by the caller. *)
let add name ~t0 ~t1 =
  let b = local () in
  if b.sampling then close b (push b name ~t0) ~t1

(* ---- log-device spans: recorded whenever tracing is on ---- *)

let io_enter name =
  if !on then push (local ()) name ~t0:(Util.Clock.now_ns ()) else -1

let io_leave i = if i >= 0 then close (local ()) i ~t1:(Util.Clock.now_ns ())

(* A group-commit batch ends with its fsync: later I/O on this domain
   belongs to the next batch. *)
let io_next_batch () =
  if !on then (local ()).op_id <- Atomic.fetch_and_add next_op 1

(* ---- read-out ---- *)

let buffers () = Mutex.protect registry_mu (fun () -> List.rev !registry)

let reset () =
  List.iter
    (fun b ->
      b.len <- 0;
      b.cur <- -1;
      b.sampling <- false;
      b.dropped <- 0)
    (buffers ())

let recorded () = List.fold_left (fun acc b -> acc + b.len) 0 (buffers ())
let dropped () = List.fold_left (fun acc b -> acc + b.dropped) 0 (buffers ())

(* Self time: a span's duration minus the part its children cover.
   Children of one span run sequentially on the span's own domain, so
   their durations never overlap and can simply be summed. *)
let self_times b =
  let child = Array.make b.len 0 in
  for i = 0 to b.len - 1 do
    let p = b.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (b.t1.(i) - b.t0.(i))
  done;
  Array.init b.len (fun i -> b.t1.(i) - b.t0.(i) - child.(i))

(* Per name: (spans recorded, summed self ns), over every buffer. *)
let self_summary () =
  let count = Array.make num_names 0 and self = Array.make num_names 0 in
  List.iter
    (fun b ->
      let s = self_times b in
      for i = 0 to b.len - 1 do
        let n = b.nm.(i) in
        count.(n) <- count.(n) + 1;
        self.(n) <- self.(n) + s.(i)
      done)
    (buffers ());
  List.map (fun n -> (n, count.(index n), self.(index n))) all

let mean_self_ns summary name =
  let _, c, s = List.find (fun (n, _, _) -> n = name) summary in
  if c = 0 then 0. else float_of_int s /. float_of_int c

(* Write every span as [op id, name, start ns, end ns, parent], where
   parent is the global row number of the parent span (-1 for roots). *)
let dump path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"fields\":[\"op\",\"name\",\"start_ns\",\"end_ns\",\"parent\"],\n";
      Printf.fprintf oc " \"names\":[%s],\n \"spans\":["
        (String.concat "," (List.map (fun n -> Printf.sprintf "%S" (label n)) all));
      let base = ref 0 and first = ref true in
      List.iter
        (fun b ->
          for i = 0 to b.len - 1 do
            let p = b.parent.(i) in
            Printf.fprintf oc "%s\n[%d,%d,%d,%d,%d]"
              (if !first then "" else ",")
              b.op.(i) b.nm.(i) b.t0.(i) b.t1.(i)
              (if p < 0 then -1 else !base + p);
            first := false
          done;
          base := !base + b.len)
        (buffers ());
      output_string oc "]}\n")
