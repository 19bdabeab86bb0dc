(** The write-back (redo-log) 2PLSF protocol family (paper §2: "a
    write-back protocol (redo-log) can also be used with either eager
    locking or deferred locking").

    Reads are pessimistic exactly as in Algorithm 1; writes are buffered
    in a per-transaction redo log and installed at commit while every
    write lock is held.  The functor parameter picks when those write
    locks are taken:

    - [eager = true]: at encounter time, like Algorithm 1 minus the
      in-place store ({!Stm_wb});
    - [eager = false]: at commit time, still through [tryOrWaitWriteLock],
      so the starvation-freedom argument is unchanged — the expanding
      phase merely extends into the commit ({!Stm_wbd}).

    Aborts discard the buffer instead of rolling memory back.  Internals
    (the redo log and its bloom filter) are hidden: the protocol surface is
    exactly {!Stm_intf.STM} plus lock-table sizing. *)

module Make (_ : sig
  val name : string
  (** Benchmark label; also the telemetry scope name registered for this
      instance. *)

  val eager : bool
  (** [true]: take write locks at encounter time; [false]: defer them to
      commit. *)
end) : sig
  include Stm_intf.STM

  val configure : ?num_locks:int -> unit -> unit
  (** Size this instance's lock table (power of two >= 32, default 65536;
      other sizes raise [Invalid_argument]).  Must precede the first
      transaction; later calls raise [Failure]. *)
end
