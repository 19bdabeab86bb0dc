(** The 2PLSF software transactional memory (paper Algorithm 1).

    A word-based STM with a write-through (undo-log) protocol: reads take
    the read side and writes the write side of the starvation-free
    reader-writer lock ({!Rwl_sf}) protecting the accessed tvar; all locks
    are released at commit (two-phase locking, hence opacity).  On a lock
    conflict against a higher-priority transaction the attempt restarts:
    writes are rolled back, locks released, and the thread waits for the
    conflicting transaction to commit before retrying.  A transaction
    restarts at most [N_threads - 1] times (§2.2).

    This module implements {!Stm_intf.STM}; the extra entry points below
    expose the paper's §2.8 irrevocability extension and the restart
    accounting used by the starvation-freedom tests. *)

include Stm_intf.STM

val configure : ?num_locks:int -> unit -> unit
(** Set the size of the shared lock table (power of two >= 32, default
    65536; other sizes raise [Invalid_argument]).  Must be called before
    the first transaction; later calls raise [Failure].  (The paper uses
    4M locks over 2^16 threads; see DESIGN.md on the scaled default.) *)

val atomic_irrevocable_ro : (tx -> 'a) -> 'a
(** Run a read-only transaction irrevocably (§2.8): it announces the
    reserved priority timestamp before starting, so no conflict can ever
    restart it.  Multiple irrevocable read-only transactions may run
    concurrently.  Sacrifices starvation-freedom for the other threads'
    bound (they may wait behind it) — and must not write.  Like
    {!atomic_irrevocable}, exempt from deadlines and the admission gate. *)

val atomic_irrevocable : (tx -> 'a) -> 'a
(** Run a write transaction irrevocably: acquires the zero-mutex (which
    serializes irrevocable writers) and the reserved priority, executes to
    commit without ever restarting, then releases the mutex.  Exempt from
    deadlines and the admission gate: waiting for a token while holding
    the mutex could deadlock against an escalating token holder.  Avoid
    overlapping with {!atomic_irrevocable_ro} transactions whose footprints
    intersect: two never-restart transactions can otherwise wait on each
    other (documented limitation, inherited from the paper's sketch). *)

val lock_table : unit -> Rwl_sf.t
(** The shared lock table (for tests and diagnostics). *)

val restart_histogram : unit -> int array
(** [restart_histogram ()].(k) = number of committed transactions that
    restarted exactly [k] times (capped at the last bucket); gathered
    across all threads since the last {!reset_stats}.  The
    starvation-freedom experiment asserts the support of this histogram is
    bounded by [N_threads - 1]. *)
