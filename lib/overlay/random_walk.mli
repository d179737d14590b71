(** Multiple parallel random walks ([LvCa02]).

    The paper assumes unstructured search uses "multiple random walks"
    rather than flooding because they consume far less traffic.
    [walkers] walkers step simultaneously from the source; every
    [check_every] steps each walker checks back with the source whether
    another walker has already succeeded (modelled as in [LvCa02]: the
    walk terminates within [check_every] steps of a hit, and checking
    costs one message per probe). *)

type result = {
  found_at : int option;
  steps_taken : int;    (** total walker steps across all walkers *)
  messages : int;       (** steps + termination-check probes *)
  distinct_visited : int;
  rounds : int;         (** synchronous rounds executed; the walk's
                            sequential duration in per-hop latencies *)
}

val search :
  ?scratch:Scratch.t ->
  ?span:int ->
  ?deliver:(span:int option -> src:int -> dst:int -> bool) ->
  Topology.t ->
  Pdht_util.Rng.t ->
  online:(int -> bool) ->
  holders:int array ->
  source:int ->
  walkers:int ->
  max_steps:int ->
  check_every:int ->
  result
(** [max_steps] bounds the per-walker walk length; [walkers >= 1],
    [check_every >= 1].  Walkers step to a uniform online neighbor
    (stalling costs nothing when a peer has no online neighbor).

    [holders] is the item's replica set, in any order, duplicates
    allowed.  A peer is found only if it is in [holders] and the walk
    reaches it; the walk starts at an online [source] and only ever
    steps onto online peers, so an offline holder is never found.
    [found_at] is the first holder reached (the source itself when it
    holds the item, at no cost).
    @raise Invalid_argument if a holder is outside
    [\[0, peer_count topo)], whether or not the source is online.

    [scratch] reuses the visited set (which also marks the holders),
    candidate buffer and walker positions across calls; results
    (including the RNG draw sequence) are identical with or without it.

    [deliver] applies the network model to step messages: a lost step
    is counted but the walker stays put for that round (termination
    check-backs stay reliable — they model [LvCa02]'s bounded-overrun
    abstraction, not a concrete message exchange).  Omitted = reliable
    delivery, unchanged semantics.

    [span] is forwarded to every [deliver] call (see {!Flood.search}). *)
