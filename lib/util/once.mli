(** Domain-safe once-initialization cell.

    [Lazy.force] raises [CamlinternalLazy.Undefined] when two domains race
    to force the same thunk; every shared lock/orec table in the repository
    is created through this cell instead. *)

type 'a t

val create : (unit -> 'a) -> 'a t
val get : 'a t -> 'a
(** First caller runs the thunk; concurrent callers wait for it.  A thunk
    that raises leaves the cell unforced: the exception reaches the caller
    and the next [get] runs the thunk again. *)

val is_forced : 'a t -> bool
