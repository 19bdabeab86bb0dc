(* Closed-loop clients: each client domain sends its next operation only
   when the previous one has returned, so a slower system receives less
   load.  Every operation is timed with the integer monotonic clock,
   including any restarts inside it; an operation that raises is counted
   as failed, by exception, and never as a latency sample. *)

type stop =
  | For of { warm_ns : int; measure_ns : int }
      (** run [warm_ns] unmeasured, then measure for [measure_ns] *)
  | Ops of int  (** exactly this many operations per client, all measured *)

type client = {
  mutable attempted : int;
  mutable ok_total : int;  (* committed, warm-up included *)
  mutable committed : int;  (* committed inside the measured interval *)
  mutable starved : int;
  mutable deadline : int;
  mutable degraded : int;
  mutable other : int;
  mutable first_error : string option;
  mutable t_first : int;
  mutable t_last : int;
  lat : Lat.t;
}

type result = {
  attempted : int;
  failed : int;
  failures : (string * int) list;
  first_error : string option;
  ok_total : int;
  committed : int;
  elapsed_ns : int;  (** measured interval *)
  lat_sorted : int array;  (** kept latency samples, ns *)
  lat_seen : int;  (** latencies observed (the reservoir keeps a sample) *)
}

let now = Util.Clock.now_ns
let reservoir = 1 lsl 17

let classify c = function
  | Stm_intf.Starved _ -> c.starved <- c.starved + 1
  | Stm_intf.Deadline_exceeded _ -> c.deadline <- c.deadline + 1
  | Stm_intf.Degraded_read_only _ -> c.degraded <- c.degraded + 1
  | e ->
      c.other <- c.other + 1;
      if c.first_error = None then c.first_error <- Some (Printexc.to_string e)

let client_loop c ~traced ~stop ~t_start op =
  let sb = if traced then Some (Spans.local ()) else None in
  let one seq =
    let t0 = now () in
    let sp = match sb with Some b -> Spans.op_begin b ~seq ~t0 | None -> -1 in
    let ok =
      match op () with
      | () -> true
      | exception e ->
          classify c e;
          false
    in
    let t1 = now () in
    Option.iter (fun b -> Spans.op_end b sp ~t1) sb;
    c.attempted <- c.attempted + 1;
    if ok then c.ok_total <- c.ok_total + 1;
    (t0, t1, ok)
  in
  match stop with
  | Ops n ->
      c.t_first <- now ();
      for seq = 0 to n - 1 do
        let t0, t1, ok = one seq in
        if ok then begin
          c.committed <- c.committed + 1;
          Lat.add c.lat (t1 - t0)
        end
      done;
      c.t_last <- now ()
  | For { warm_ns; measure_ns } ->
      let measure_at = t_start + warm_ns in
      let stop_at = measure_at + measure_ns in
      let rec go seq =
        if now () < stop_at then begin
          let t0, t1, ok = one seq in
          if ok && t0 >= measure_at then begin
            c.committed <- c.committed + 1;
            Lat.add c.lat (t1 - t0)
          end;
          go (seq + 1)
        end
      in
      go 0

(* [run ~clients ~seed ~traced ~stop make_op] spawns the clients, calls
   [make_op i] inside client [i]'s domain (after its thread id is
   registered) and loops the returned operation. *)
let run ~clients ~seed ~traced ~stop make_op =
  let t_start =
    (* Clients are released together; the warm-up absorbs spawn skew. *)
    now ()
  in
  let cs =
    Harness.Exec.run_each ~threads:clients (fun i ->
        let c =
          {
            attempted = 0;
            ok_total = 0;
            committed = 0;
            starved = 0;
            deadline = 0;
            degraded = 0;
            other = 0;
            first_error = None;
            t_first = 0;
            t_last = 0;
            lat = Lat.create ~cap:reservoir ~seed:(Util.Sprng.hash4 seed 0x1a7 i 0);
          }
        in
        client_loop c ~traced ~stop ~t_start (make_op i);
        c)
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
  let failures =
    [
      ("starved", sum (fun c -> c.starved));
      ("deadline_exceeded", sum (fun c -> c.deadline));
      ("degraded_read_only", sum (fun c -> c.degraded));
      ("other", sum (fun c -> c.other));
    ]
  in
  let elapsed_ns =
    match stop with
    | For { measure_ns; _ } -> measure_ns
    | Ops _ ->
        let first = List.fold_left (fun a c -> min a c.t_first) max_int cs in
        let last = List.fold_left (fun a c -> max a c.t_last) 0 cs in
        last - first
  in
  {
    attempted = sum (fun c -> c.attempted);
    failed = List.fold_left (fun a (_, n) -> a + n) 0 failures;
    failures;
    first_error = List.find_map (fun (c : client) -> c.first_error) cs;
    ok_total = sum (fun c -> c.ok_total);
    committed = sum (fun c -> c.committed);
    elapsed_ns;
    lat_sorted = Lat.sorted (List.map (fun c -> c.lat) cs);
    lat_seen = sum (fun c -> Lat.seen c.lat);
  }

(* One result for several runs of the same clients, as if they were one
   run measured for their summed intervals. *)
let merge rs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let lat = Array.concat (List.map (fun r -> r.lat_sorted) rs) in
  Array.sort compare lat;
  {
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
    failures =
      List.map
        (fun (k, _) -> (k, sum (fun r -> List.assoc k r.failures)))
        (List.hd rs).failures;
    first_error = List.find_map (fun r -> r.first_error) rs;
    ok_total = sum (fun r -> r.ok_total);
    committed = sum (fun r -> r.committed);
    elapsed_ns = sum (fun r -> r.elapsed_ns);
    lat_sorted = lat;
    lat_seen = sum (fun r -> r.lat_seen);
  }

let throughput r = float_of_int r.committed /. (float_of_int r.elapsed_ns /. 1e9)
