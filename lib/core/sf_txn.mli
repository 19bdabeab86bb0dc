(** The 2PLSF lock-set lifecycle (paper Algorithm 1; §3.5 for rows),
    shared by every client of an {!Rwl_sf} lock table: {!Stm} (undo log),
    {!Stm_wb} and {!Stm_wbd} (redo log), the wait-or-die ablation and the
    DBx row engine (row pre-images).

    Take each lock through [tryOrWait*Lock] and log it — a write lock by
    its index, read locks by indicator word; on failure record why and
    restart; at commit or abort release every logged lock and clear the
    announcement; wait for the conflictor before retrying.
    A client keeps only its storage log, in the ['log] field. *)

(** {2 The lock table} *)

type table
(** A process-global lock table, built on first use. *)

val table : name:string -> Twoplsf_obs.Scope.t -> table
(** An unbuilt table of 65536 locks.  [name] prefixes error messages; the
    scope is attached when the table is built. *)

val configure : table -> ?num_locks:int -> unit -> unit
(** Set the size (default 65536) of a table not yet built.
    @raise Invalid_argument unless [num_locks] is a power of two >= 32.
    @raise Failure once the table is built. *)

val locks : table -> Rwl_sf.t
(** The table, built on the first call. *)

val clock_ops : table -> int
val reset : table -> unit
(** Zero the clock-increment counter and the telemetry scope. *)

val leaked_locks : table -> int
(** {!Rwl_sf.leaked}; 0 while the table is unbuilt. *)

(** {2 The per-thread lock set} *)

type 'log t = {
  locks : Rwl_sf.t;
  mask : int;
      (** [Rwl_sf.num_locks locks - 1]: lock index of id [id] is
          [id land mask], as {!Rwl_sf.lock_index} *)
  ctx : Rwl_sf.ctx;
  rwords : int Util.Vec.t;
      (** the read set: one lock index per indicator word of this thread
          that a read made non-empty ({!Rwl_sf.Read_first}); {!release}
          clears each such word in one store *)
  wlocks : int Util.Vec.t;  (** write-locked lock indices *)
  loop : Twoplsf_cm.Txn_loop.state;
  mutable abort_reason : Twoplsf_obs.Events.abort_reason;
      (** why the attempt raised [Restart]; telemetry only *)
  log : 'log;
}
(** A thread's transaction descriptor. *)

val make : Rwl_sf.t -> tid:int -> 'log -> 'log t

val read_lock : _ t -> int -> unit
(** Read-lock the lock of id [id] unless already held.
    @raise Twoplsf_cm.Txn_loop.Restart on failure, with [abort_reason]
    [Deadline] or [Read_lock_conflict]. *)

val write_lock : _ t -> int -> unit
(** Write-lock (or upgrade) the lock of id [id] unless already held for
    writing.
    @raise Twoplsf_cm.Txn_loop.Restart on failure, with [abort_reason]
    [Deadline], [Priority_preemption] or [Write_lock_conflict]. *)

val begin_attempt : _ t -> unit
val release : _ t -> unit
(** Release every logged lock, write locks first, then every read lock
    with one store per indicator word in [rwords]. *)

val finish : _ t -> unit
(** {!release}, then clear the announcement (Algorithm 1, lines 31–32). *)

val wait_for_conflictor : _ t -> unit
(** Algorithm 1, line 26. *)

val enter_irrevocable : _ t -> writer:bool -> unit
(** §2.8: take the zero mutex if [writer], then announce the reserved
    priority 1, so no conflict can restart the transaction. *)

val leave_irrevocable : _ t -> writer:bool -> unit

(** The {!Twoplsf_cm.Txn_loop.PROTOCOL} hooks every 2PLSF STM shares. *)
module Hooks : sig
  val state : _ t -> Twoplsf_cm.Txn_loop.state
  val provenance : _ t -> int * int * Twoplsf_obs.Events.abort_reason
  val wait : _ t -> restarts:int -> unit
  val pre_raise : _ t -> unit

  val escalate : _ t -> unit
  (** Clear the announcement, then {!enter_irrevocable} as a writer. *)

  val deescalate : _ t -> unit
  val set_deadline : _ t -> int -> unit
end
