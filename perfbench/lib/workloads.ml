(* The benchmark's workloads: inputs generated from the seed, one
   operation per client call, and each workload's output check.

   Every [setup] builds fresh inputs and returns a [phase]; bench.ml
   times [setup] and then runs [make_op] in each client domain.  With
   [traced] the operation also times the call into its layer and records
   that layer's span. *)

type probe = { mutable n : int; mutable ns : int; mutable sum : int }
(* Calls into one layer made by one client, the time they took and the
   sum of their integer results.  Allocated inside the client's domain
   so two clients never share a cache line. *)

let new_probe () = { n = 0; ns = 0; sum = 0 }
let now = Util.Clock.now_ns

let sum_probes ps =
  Array.fold_left
    (fun a p -> { n = a.n + p.n; ns = a.ns + p.ns; sum = a.sum + p.sum })
    (new_probe ()) ps

let timed_call p span f =
  let t0 = now () in
  let sp = Spans.enter span ~t0 in
  let v = f () in
  let t1 = now () in
  Spans.leave sp ~t1;
  p.n <- p.n + 1;
  p.ns <- p.ns + (t1 - t0);
  v

type phase = {
  make_op : int -> unit -> unit;
  check : ok_total:int -> bool * string;
      (** run after the clients stopped; [ok_total] counts every
          operation that returned, warm-up included *)
}

let seeded seed stream i = Util.Sprng.create (Util.Sprng.hash4 seed stream i 0)

(* ---- list-read: Figure 3 (right), 100% lookups ---- *)

module List_read (S : Stm_intf.STM) = struct
  module L = Structures.Linked_list.Make (S) (struct type t = unit end)

  let key_range = 512
  let prefill = 256

  (* [prefill] distinct keys of [0, key_range), ascending. *)
  let keys ~seed =
    let rng = seeded seed 1 0 in
    let present = Array.make key_range false in
    let n = ref 0 in
    while !n < prefill do
      let k = Util.Sprng.int rng key_range in
      if not present.(k) then begin
        present.(k) <- true;
        incr n
      end
    done;
    List.filter (fun k -> present.(k)) (List.init key_range Fun.id)

  let setup ~seed ~traced =
    let keys = keys ~seed in
    let l = L.create () in
    List.iter (fun k -> ignore (L.put l k ())) keys;
    let make_op i =
      let rng = seeded seed 2 i in
      if traced then fun () ->
        let k = Util.Sprng.int rng key_range in
        let sp = Spans.enter Spans.Structures_get ~t0:(now ()) in
        ignore (L.get l k);
        Spans.leave sp ~t1:(now ())
      else fun () -> ignore (L.get l (Util.Sprng.int rng key_range))
    in
    let check ~ok_total:_ =
      let now_keys = List.map fst (L.to_list l) in
      let leaked = S.leaked_locks () in
      ( now_keys = keys && leaked = 0,
        Printf.sprintf "set unchanged: %b (%d keys), leaked locks: %d" (now_keys = keys)
          (List.length now_keys) leaked )
    in
    { make_op; check }
end

(* ---- counters-conflict: Figure 10's pairwise scheme ---- *)

module Counters (S : Stm_intf.STM) = struct
  let n = 20

  (* Client 0 walks a seeded permutation of the counters, client 1 the
     reverse, so nearly every pair of transactions conflicts and each
     read is upgraded to a write. *)
  let order ~seed ~client =
    let rng = seeded seed 4 0 in
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Util.Sprng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    if client mod 2 = 0 then a else Array.init n (fun i -> a.(n - 1 - i))

  let increment_all tvars ord tx =
    Array.iter
      (fun j ->
        let tv = tvars.(j) in
        S.write tx tv (S.read tx tv + 1))
      ord

  let sum tvars = S.atomic (fun tx -> Array.fold_left (fun a tv -> a + S.read tx tv) 0 tvars)

  let setup ~seed =
    let tvars = Array.init n (fun _ -> S.tvar 0) in
    let make_op i =
      let ord = order ~seed ~client:i in
      fun () -> S.atomic (increment_all tvars ord)
    in
    let check ~ok_total =
      let s = sum tvars and leaked = S.leaked_locks () in
      ( s = n * ok_total && leaked = 0,
        Printf.sprintf "sum %d = %d x %d commits: %b, leaked locks: %d" s n ok_total
          (s = n * ok_total) leaked )
    in
    { make_op; check }
end

(* ---- YCSB on the DBx 2PLSF engine ---- *)

module Ycsb_w = struct
  module Table = Dbx.Table
  module Cc = Dbx.Cc_2plsf

  let num_rows = 100_000
  let write_ratio = 0.5

  type t = {
    table : Table.t;
    cc : Cc.t;
    gens : Dbx.Ycsb.gen array;
    tallies : int array array;  (* per client: committed writes per key *)
    next_p : probe array;
    exec_p : probe array;  (* [sum]: aborted attempts [execute] reported *)
  }

  let setup ~seed ~theta ~clients =
    let table = Table.create ~num_rows in
    {
      table;
      cc = Cc.create table;
      gens =
        Array.init clients (fun i ->
            Dbx.Ycsb.make_gen ~seed:(Util.Sprng.hash4 seed 3 i 0) ~num_keys:num_rows ~theta
              ~write_ratio ());
      tallies = Array.init clients (fun _ -> Array.make num_rows 0);
      next_p = Array.init clients (fun _ -> new_probe ());
      exec_p = Array.init clients (fun _ -> new_probe ());
    }

  let record_writes tally (txn : Dbx.Ycsb.txn) =
    Array.iteri
      (fun j op -> if op = Dbx.Ycsb.Write then tally.(txn.keys.(j)) <- tally.(txn.keys.(j)) + 1)
      txn.ops

  let make_op w ~traced i =
    let tid = Util.Tid.get () in
    let g = w.gens.(i) and tally = w.tallies.(i) in
    if traced then begin
      let np = new_probe () and ep = new_probe () in
      w.next_p.(i) <- np;
      w.exec_p.(i) <- ep;
      fun () ->
        let txn = timed_call np Spans.Ycsb_next (fun () -> Dbx.Ycsb.next g) in
        let aborts = timed_call ep Spans.Dbx_execute (fun () -> Cc.execute w.cc ~tid txn) in
        ep.sum <- ep.sum + aborts;
        record_writes tally txn
    end
    else fun () ->
      let txn = Dbx.Ycsb.next g in
      ignore (Cc.execute w.cc ~tid txn);
      record_writes tally txn

  let rows_written w =
    Array.fold_left (fun a t -> Array.fold_left ( + ) a t) 0 w.tallies

  (* Every write adds 1 to each of bytes 0..7 of its row (mod 256), and a
     row starts with all bytes equal to its row id mod 256. *)
  let check w =
    let bad = ref 0 in
    for key = 0 to num_rows - 1 do
      let rid = Table.lookup w.table key in
      let writes = Array.fold_left (fun a t -> a + t.(key)) 0 w.tallies in
      let expect = (rid + writes) land 0xFF in
      let b = Table.payload w.table rid in
      let rec ok i = i > 7 || (Char.code (Bytes.get b i) = expect && ok (i + 1)) in
      if not (ok 0) then incr bad
    done;
    ( !bad = 0,
      Printf.sprintf "rows whose bytes 0..7 differ from the write tally: %d of %d" !bad num_rows )

  let tables_equal a b =
    Table.num_rows a = Table.num_rows b
    && List.for_all
         (fun rid -> Bytes.equal (Table.payload a rid) (Table.payload b rid))
         (List.init (Table.num_rows a) Fun.id)

  let phase w ~traced =
    { make_op = make_op w ~traced; check = (fun ~ok_total:_ -> check w) }
end
