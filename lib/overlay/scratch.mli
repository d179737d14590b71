(** Reusable per-topology search scratch: generation-stamped visited
    set plus preallocated frontier / candidate / walker buffers.

    Passing one scratch to repeated {!Flood.search},
    {!Expanding_ring.search} or {!Random_walk.search} calls makes the
    per-search cost allocation-free (beyond the small result record)
    while returning results identical to fresh-allocation calls.

    A scratch is single-owner mutable state: share it across sequential
    searches freely, never across domains.  The record is exposed so the
    search implementations can index the buffers directly; treat it as
    opaque elsewhere. *)

type t = {
  mutable stamp : int array;
      (** [stamp.(p) = generation] means peer [p] was visited in the
          current search.  {!Random_walk.search} also stamps each of
          the item's holders [-generation] before it starts, so one
          read tells a step both whether the peer was visited and
          whether this is a holder's first visit; a visit overwrites
          the holder stamp with [generation].  Stamps of earlier
          searches, of either sign, equal neither. *)
  mutable generation : int;
  mutable frontier : int array;
  mutable next_frontier : int array;
  mutable candidates : int array;  (** online-neighbor staging buffer *)
  mutable positions : int array;   (** random-walk walker positions *)
}

val create : unit -> t

val ensure_peers : t -> int -> unit
(** Grow [stamp]/[frontier]/[next_frontier]/[candidates] to hold at
    least [n] peers.  Idempotent and allocation-free when already large
    enough. *)

val ensure_walkers : t -> int -> unit
(** Grow [positions] to hold at least [n] walkers. *)

val next_generation : t -> int
(** Begin a new search: returns the fresh generation under which to
    stamp visited peers.  Handles stamp-counter overflow by wiping. *)
