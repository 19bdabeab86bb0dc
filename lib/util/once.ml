type 'a t = {
  mutex : Mutex.t;
  cell : 'a option Atomic.t;
  thunk : unit -> 'a;
}

let create thunk = { mutex = Mutex.create (); cell = Atomic.make None; thunk }

let get t =
  match Atomic.get t.cell with
  | Some v -> v
  | None ->
      Mutex.protect t.mutex (fun () ->
          match Atomic.get t.cell with
          | Some v -> v
          | None ->
              let v = t.thunk () in
              Atomic.set t.cell (Some v);
              v)

let is_forced t = Atomic.get t.cell <> None
