(** Distributed read-indicator with one bit per (thread, lock).

    This is the memory layout of Figure 1 and Algorithm 3 of the paper: for
    each thread there is a private region of words, and bit [w mod B] of
    word [w / B] in thread [t]'s region says "thread [t] holds (or is
    waiting for, in the writer-arrives-as-reader case) the read side of
    lock [w]".  Because a word is only ever written by its owning thread,
    {!arrive} and {!depart} are an atomic load plus an [Atomic.set] — no
    compare-and-swap loop, which is the key to read scalability (§2.4).
    OCaml atomics are sequentially consistent, so an [Atomic.set] is never
    reordered with a later [Atomic.get] of another location; the
    Dekker-style check of {!Rwl_sf} relies on exactly that.  (Cost note:
    a sequentially consistent store is an [xchg] on x86-64, so each store
    costs a full fence.)  The same ownership lets a thread depart from
    every lock sharing a word in one store ({!depart_word}).

    Divergence from the paper: the paper packs 64 locks per word; OCaml
    ints are 63-bit so we pack {!bits_per_word} = 32 locks per word.  The
    aggregation property (many read-indicators of one thread share a word,
    so the memory cost stays one bit per thread per lock) is preserved. *)

type t

val bits_per_word : int
(** Locks whose indicator bits share one word (32). *)

val create : num_locks:int -> t
(** [create ~num_locks] sizes the indicator for [num_locks] reader-writer
    locks and {!Util.Tid.max_threads} threads.  [num_locks] must be a
    positive multiple of {!bits_per_word}. *)

val arrive : t -> tid:int -> int -> unit
(** Set the calling thread's bit for lock [w].  Idempotent. *)

val depart : t -> tid:int -> int -> unit
(** Clear the calling thread's bit for lock [w].  Idempotent. *)

val depart_word : t -> tid:int -> int -> unit
(** Clear all of the calling thread's bits in the word holding lock [w]'s
    bit: one store departs from every lock sharing that word.  No store
    when the word is already 0. *)

val bit : int -> int
(** The mask of lock [w]'s bit within its word. *)

val get_word : t -> tid:int -> int -> int
(** The current value of thread [tid]'s word holding lock [w]'s bit (one
    load).  A fused read acquire tests [get_word ... land bit w] for
    "already held" and passes the value on to {!arrive_from}. *)

val arrive_from : t -> tid:int -> prior:int -> int -> unit
(** {!arrive} without the load: set thread [tid]'s bit for lock [w] in a
    word whose current value the caller read as [prior] with {!get_word}.
    Sound because only thread [tid] writes its words: the caller must be
    thread [tid], with no store of its own between the two calls. *)

val holds : t -> tid:int -> int -> bool
(** Is [tid]'s bit for lock [w] set?  (Cheap: one load.) *)

val is_empty : t -> self:int -> int -> bool
(** [is_empty t ~self w]: no thread other than [self] has its bit set for
    lock [w] ([riIsEmpty], Algorithm 3).  Scans up to the thread-id
    high-water mark. *)

val iter_readers : t -> self:int -> int -> (int -> unit) -> unit
(** Call the function on every thread id (≠ [self]) whose bit for lock [w]
    is set; used by the lowest-timestamp conflict scan. *)
