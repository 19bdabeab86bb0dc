(** Distributed read-indicator with one bit per (thread, lock).

    This is the memory layout of Figure 1 and Algorithm 3 of the paper: for
    each thread there is a private region of words, and bit [w mod B] of
    word [w / B] in thread [t]'s region says "thread [t] holds (or is
    waiting for, in the writer-arrives-as-reader case) the read side of
    lock [w]".  Because a word is only ever written by its owning thread,
    {!arrive} and {!depart} are a load plus one store — no
    compare-and-swap loop, which is the key to read scalability (§2.4).

    Cost note: the words are one flat [int array], not one boxed
    [Atomic.t] each, so a store can be plain or sequentially consistent
    as the caller needs.  {!arrive} stores with {!Util.Fence.store_sc}, so
    it is never reordered with a later load of another location (an
    [xchg] on x86-64 once two domains run): the Dekker check of
    {!Rwl_dist} and of the wound-wait lock relies on it.
    {!depart} is a plain store.  [Rwl_sf]'s biased readers store their
    own word plain too and leave the ordering to the writer's
    [membarrier] (DESIGN.md §7).

    Divergence from the paper: the paper packs 64 locks per word; OCaml
    ints are 63-bit so we pack {!bits_per_word} = 32 locks per word.  The
    aggregation property (many read-indicators of one thread share a word,
    so the memory cost stays one bit per thread per lock) is preserved. *)

type t = private {
  words_per_thread : int;  (** [num_locks / 32] *)
  words : int array;
      (** [Util.Tid.max_threads * words_per_thread] words, thread-major *)
}
(** The layout is public so that a lock's hot path can index its own word
    without a call: thread [tid]'s bit for lock [w] is bit [w land 31]
    (mask [1 lsl (w land 31)]) of [words.(tid * words_per_thread + w lsr 5)].

    Owner-only writes: only thread [tid] may store into its own words
    [words.(tid * words_per_thread)] to
    [words.(tid * words_per_thread + words_per_thread - 1)], and any
    thread may load any word.  A thread therefore reads its own latest
    value with one plain load and may store [prior lor bit] (arrive) or
    [0] (depart from every lock sharing the word) with one store,
    provided it made no store of its own to that word in between.  A
    store that must not pass a later load of another word (an arrive
    followed by the write-word check) uses {!Util.Fence.store_sc} or is
    covered by a writer-side [membarrier]; a departing store may be
    plain.  The record is [private]: it cannot be built outside this
    module, and nothing but the owner rule above stops a store into
    another thread's word. *)

val bits_per_word : int
(** Locks whose indicator bits share one word (32). *)

val create : num_locks:int -> t
(** [create ~num_locks] sizes the indicator for [num_locks] reader-writer
    locks and {!Util.Tid.max_threads} threads.  [num_locks] must be a
    positive multiple of {!bits_per_word}. *)

val arrive : t -> tid:int -> int -> unit
(** Set the calling thread's bit for lock [w] with a sequentially
    consistent store.  Idempotent. *)

val depart : t -> tid:int -> int -> unit
(** Clear the calling thread's bit for lock [w] with a plain store.
    Idempotent. *)

val holds : t -> tid:int -> int -> bool
(** Is [tid]'s bit for lock [w] set?  (Cheap: one load.) *)

val is_empty : t -> self:int -> int -> bool
(** [is_empty t ~self w]: no thread other than [self] has its bit set for
    lock [w] ([riIsEmpty], Algorithm 3).  Scans up to the thread-id
    high-water mark. *)

val iter_readers : t -> self:int -> int -> (int -> unit) -> unit
(** Call the function on every thread id (≠ [self]) whose bit for lock [w]
    is set; used by the lowest-timestamp conflict scan. *)
