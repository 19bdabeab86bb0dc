(** The fixed telemetry event taxonomy.

    Abort reasons cover both the pessimistic 2PL(SF) family (lock
    conflicts, priority preemption) and the optimistic baselines (read /
    commit validation), so one breakdown answers "which abort reason
    dominates TL2 vs 2PLSF".  Every instrumented STM records exactly one
    reason per abort, which keeps the per-reason sums equal to its
    [aborts ()] counter. *)

type abort_reason =
  | Read_lock_conflict
      (** pessimistic read lock lost to a higher-priority holder *)
  | Write_lock_conflict
      (** write lock never acquired: a higher-priority txn owns/awaits it *)
  | Priority_preemption
      (** a write lock already held was taken away by a higher-priority
          transaction — the starvation-freedom mechanism firing *)
  | Read_validation  (** optimistic read saw a locked/too-new location *)
  | Commit_lock_conflict  (** commit-time write-set locking failed *)
  | Commit_validation  (** commit-time read-set validation failed *)
  | Deadline
      (** a lock wait was abandoned because the transaction's deadline
          budget expired (overload protection, DESIGN.md §11) *)
  | User_restart  (** explicit restart / outside the taxonomy *)
  | Wal_degraded
      (** the write-ahead log's device failed: the engine is read-only
          and the write transaction was rolled back (DESIGN.md §16) *)

val num_abort_reasons : int
val abort_reason_index : abort_reason -> int
val abort_reason_label : abort_reason -> string

val all_abort_reasons : abort_reason list
(** In index order. *)

type event =
  | Read_lock_fast  (** read lock acquired without entering the wait loop *)
  | Read_lock_waited  (** read lock acquired after waiting *)
  | Write_lock_fast
  | Write_lock_waited
  | Priority_announced
      (** a timestamp was drawn from the conflict clock and announced *)
  | Irrevocable_upgrade  (** an irrevocable transaction started (§2.8) *)
  | Conflictor_wait
      (** post-abort wait for the conflicting transaction to finish *)
  | Irrevocable_fallback
      (** overload protection escalated an exhausted/late transaction
          through the serial-irrevocable slow path (DESIGN.md §11) *)
  | Bias_revoked
      (** a writer found a lock table's read bias on, issued a barrier
          and turned the bias off (DESIGN.md §7); emitted once per
          transition *)
  | Bias_enabled
      (** an unbiased reader turned the read bias back on after the
          inhibit window; emitted once per transition *)

val num_events : int
val event_index : event -> int
val event_label : event -> string

val all_events : event list
(** In index order. *)
