(* The fixed event taxonomy shared by every instrumented concurrency
   control.  Keep these closed variants in sync with the label/index
   functions below: the CSV columns and JSON dump key on the labels, and
   the per-scope counter arrays are indexed by the *_index functions. *)

type abort_reason =
  | Read_lock_conflict
      (* pessimistic read lock lost to a higher-priority holder *)
  | Write_lock_conflict
      (* write lock never acquired: a higher-priority txn owns/awaits it *)
  | Priority_preemption
      (* write lock *held* (or wound) and taken away by a higher-priority
         transaction — the starvation-freedom mechanism firing *)
  | Read_validation (* optimistic read saw a locked/too-new location *)
  | Commit_lock_conflict (* commit-time write-set locking failed *)
  | Commit_validation (* commit-time read-set validation failed *)
  | Deadline
      (* a lock wait was abandoned because the transaction's deadline
         budget expired (overload protection, DESIGN.md §11) *)
  | User_restart (* explicit restart / any reason outside the taxonomy *)
  | Wal_degraded
      (* the write-ahead log's device failed: the engine is read-only and
         the write transaction was rolled back (DESIGN.md §16) *)

let num_abort_reasons = 9

let abort_reason_index = function
  | Read_lock_conflict -> 0
  | Write_lock_conflict -> 1
  | Priority_preemption -> 2
  | Read_validation -> 3
  | Commit_lock_conflict -> 4
  | Commit_validation -> 5
  | Deadline -> 6
  | User_restart -> 7
  | Wal_degraded -> 8

let abort_reason_label = function
  | Read_lock_conflict -> "read-lock-conflict"
  | Write_lock_conflict -> "write-lock-conflict"
  | Priority_preemption -> "priority-preemption"
  | Read_validation -> "read-validation"
  | Commit_lock_conflict -> "commit-lock-conflict"
  | Commit_validation -> "commit-validation"
  | Deadline -> "deadline"
  | User_restart -> "user-restart"
  | Wal_degraded -> "wal-degraded"

let all_abort_reasons =
  [
    Read_lock_conflict;
    Write_lock_conflict;
    Priority_preemption;
    Read_validation;
    Commit_lock_conflict;
    Commit_validation;
    Deadline;
    User_restart;
    Wal_degraded;
  ]

type event =
  | Read_lock_fast (* read lock acquired without entering the wait loop *)
  | Read_lock_waited (* read lock acquired after waiting *)
  | Write_lock_fast
  | Write_lock_waited
  | Priority_announced (* a timestamp was drawn and announced on conflict *)
  | Irrevocable_upgrade (* an irrevocable transaction started (§2.8) *)
  | Conflictor_wait (* post-abort wait for the conflicting txn to finish *)
  | Irrevocable_fallback
      (* overload protection escalated an exhausted/late transaction
         through the serial-irrevocable slow path (DESIGN.md §11) *)
  | Bias_revoked (* a writer turned a table's read bias off (DESIGN.md §7) *)
  | Bias_enabled (* a reader turned a table's read bias back on *)

let num_events = 10

let event_index = function
  | Read_lock_fast -> 0
  | Read_lock_waited -> 1
  | Write_lock_fast -> 2
  | Write_lock_waited -> 3
  | Priority_announced -> 4
  | Irrevocable_upgrade -> 5
  | Conflictor_wait -> 6
  | Irrevocable_fallback -> 7
  | Bias_revoked -> 8
  | Bias_enabled -> 9

let event_label = function
  | Read_lock_fast -> "read-lock-fast"
  | Read_lock_waited -> "read-lock-waited"
  | Write_lock_fast -> "write-lock-fast"
  | Write_lock_waited -> "write-lock-waited"
  | Priority_announced -> "priority-announced"
  | Irrevocable_upgrade -> "irrevocable-upgrade"
  | Conflictor_wait -> "conflictor-wait"
  | Irrevocable_fallback -> "irrevocable-fallback"
  | Bias_revoked -> "bias-revoked"
  | Bias_enabled -> "bias-enabled"

let all_events =
  [
    Read_lock_fast;
    Read_lock_waited;
    Write_lock_fast;
    Write_lock_waited;
    Priority_announced;
    Irrevocable_upgrade;
    Conflictor_wait;
    Irrevocable_fallback;
    Bias_revoked;
    Bias_enabled;
  ]
