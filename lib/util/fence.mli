(** Memory-ordering primitives missing from OCaml 5.1's [Atomic]: an SC
    store into a plain [int array] element, an SC fence and the
    process-wide [membarrier(2)] barrier (noalloc C stubs,
    [fence_stubs.c]).

    Each is a plain store or a no-op while the calling domain is the only
    one running, as the runtime's [Atomic.set] already is in 5.1. *)

external store_sc : int array -> int -> int -> unit = "twoplsf_store_sc"
  [@@noalloc]
(** [store_sc a i v] stores [v] into [a.(i)] with sequentially consistent
    ordering: no later load of the caller is performed before it.  The
    index is {b not} checked; the caller has already accessed [a.(i)]. *)

external full : unit -> unit = "twoplsf_fence" [@@noalloc]
(** A sequentially consistent fence: every earlier store of the caller is
    visible before any later load. *)

val membarrier_ok : bool
(** Whether [MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED] succeeded for this
    process (registered once, when this module is initialised).  [false]
    on kernels without [membarrier] ([ENOSYS]), under a filter that
    refuses it ([EPERM]) and off Linux; {!membarrier} must then not be
    relied on. *)

external membarrier : unit -> int = "twoplsf_membarrier" [@@noalloc]
(** [membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)]: when it returns,
    every other running thread of the process has executed a full memory
    barrier, so a plain store it made before that barrier is visible to
    the caller's later loads.  Returns the barrier's duration in ns (at
    least 1, timed with [CLOCK_MONOTONIC] around the call) when it was
    issued, and 0 when it was not needed (this domain is the only one
    running) or off Linux.  Call it only when {!membarrier_ok}: a failed
    barrier is a fatal error.  Costs a system call and an IPI per CPU
    running a thread of the process: ~0.2 µs with no other thread
    running, ~0.7 µs beside one spinning domain on a 2-vCPU x86-64
    host. *)
