(** Priority queue of timed events (structure-of-arrays binary min-heap).

    Ties are broken by insertion order, so simulations are fully
    deterministic: two events scheduled for the same instant fire in the
    order they were scheduled.

    The heap is laid out as three parallel arrays (unboxed times,
    sequence numbers, payloads), so after warm-up {!add}, {!min_time}
    and {!pop_min} allocate nothing.  Slots are nulled as elements leave
    the heap, so popped payloads (e.g. handler closures capturing large
    state) are never kept live by the queue. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val capacity : 'a t -> int
(** Current backing-array capacity.  Grows on demand and is preserved by
    {!clear}, so a warm queue never re-allocates. *)

val add : 'a t -> time:float -> 'a -> unit
(** Schedule an event.  Allocation-free once the backing arrays are
    large enough.  @raise Invalid_argument on NaN time. *)

val min_time : 'a t -> float
(** Time of the earliest event, without allocating.
    @raise Invalid_argument when the queue is empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload.  The allocation-free
    hot-path variant of {!pop}; read {!min_time} first if the time is
    needed.  @raise Invalid_argument when the queue is empty. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val clear : 'a t -> unit
(** Drop all pending events.  Payload slots are nulled but capacity is
    retained for reuse. *)
