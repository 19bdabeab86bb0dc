(* Timing wrapper over a Wal_io.t: the traced run's measurement point for
   the log device.  Every byte the WAL asks the device to write and every
   fsync it asks for passes through the record of closures the WAL already
   accepts, so counting and timing them here needs no change to the WAL.

   A checkpoint is recognised by its file protocol: it starts when the
   image's temporary file is created and ends when that file is renamed
   over the installed image. *)

module Wal_io = Twoplsf_wal.Wal_io

type totals = {
  bytes_written : int;  (** every byte handed to the device, log and images *)
  write_ns : int;
  fsyncs : int;  (** file fsyncs *)
  fsync_ns : int;
  dir_fsync_ns : int;
  checkpoints : int;  (** completed image installs *)
  checkpoint_ns : int;
  fsync_samples : int array;  (** every file fsync's duration, in the order they ran *)
}

type t = {
  mu : Mutex.t;
  mutable bytes : int;
  mutable w_ns : int;
  mutable n_fsyncs : int;
  mutable f_ns : int;
  mutable d_ns : int;
  mutable n_ckpts : int;
  mutable c_ns : int;
  mutable ckpt_t0 : int;
  mutable ckpt_span : int;
  samples : int Util.Vec.t;
}

let now = Util.Clock.now_ns

let tmp_image = "checkpoint.tmp"

(* Time [f], charging the duration (also on failure) to [record]. *)
let timed span record f =
  let sp = Spans.io_enter span in
  let t0 = now () in
  let finish () =
    record (now () - t0);
    Spans.io_leave sp
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let wrap_file st (f : Wal_io.file) =
  {
    f with
    Wal_io.f_write =
      (fun b ~pos ~len ->
        let n = ref 0 in
        timed Spans.Wal_write
          (fun dt ->
            Mutex.protect st.mu (fun () ->
                st.bytes <- st.bytes + !n;
                st.w_ns <- st.w_ns + dt))
          (fun () ->
            n := f.f_write b ~pos ~len;
            !n));
    f_fsync =
      (fun () ->
        timed Spans.Wal_fsync
          (fun dt ->
            Mutex.protect st.mu (fun () ->
                st.n_fsyncs <- st.n_fsyncs + 1;
                st.f_ns <- st.f_ns + dt;
                Util.Vec.push st.samples dt))
          f.f_fsync;
        Spans.io_next_batch ());
  }

let wrap inner =
  let st =
    {
      mu = Mutex.create ();
      bytes = 0;
      w_ns = 0;
      n_fsyncs = 0;
      f_ns = 0;
      d_ns = 0;
      n_ckpts = 0;
      c_ns = 0;
      ckpt_t0 = 0;
      ckpt_span = -1;
      samples = Util.Vec.create ~dummy:0 ();
    }
  in
  let io =
    {
      inner with
      Wal_io.io_name = "timed(" ^ inner.Wal_io.io_name ^ ")";
      io_create =
        (fun path ->
          if Filename.basename path = tmp_image then begin
            st.ckpt_span <- Spans.io_enter Spans.Wal_checkpoint;
            st.ckpt_t0 <- now ()
          end;
          wrap_file st (inner.io_create path));
      io_open_rw = (fun path -> wrap_file st (inner.io_open_rw path));
      io_rename =
        (fun src dst ->
          inner.io_rename src dst;
          if Filename.basename src = tmp_image then begin
            let dt = now () - st.ckpt_t0 in
            Mutex.protect st.mu (fun () ->
                st.n_ckpts <- st.n_ckpts + 1;
                st.c_ns <- st.c_ns + dt);
            Spans.io_leave st.ckpt_span;
            st.ckpt_span <- -1
          end);
      io_fsync_dir =
        (fun dir ->
          timed Spans.Wal_fsync
            (fun dt ->
              Mutex.protect st.mu (fun () -> st.d_ns <- st.d_ns + dt))
            (fun () -> inner.io_fsync_dir dir));
    }
  in
  (st, io)

let totals st =
  Mutex.protect st.mu (fun () ->
      {
        bytes_written = st.bytes;
        write_ns = st.w_ns;
        fsyncs = st.n_fsyncs;
        fsync_ns = st.f_ns;
        dir_fsync_ns = st.d_ns;
        checkpoints = st.n_ckpts;
        checkpoint_ns = st.c_ns;
        fsync_samples = Util.Vec.to_array st.samples;
      })

(* Time the device spent on writes and fsyncs of any kind. *)
let busy_ns t = t.write_ns + t.fsync_ns + t.dir_fsync_ns
