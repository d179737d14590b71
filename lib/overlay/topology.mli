(** Unstructured overlay topologies.

    The paper assumes "a Gnutella-like topology, where each peer has a
    few open connections to other peers" (Section 3.1).  We provide the
    two families observed in deployed Gnutella networks: a random graph
    with fixed minimum degree and a power-law graph grown by
    preferential attachment (Barabási-Albert), both undirected.  Every
    graph, these and each key's replica subnetwork
    ([Pdht_gossip.Replica_net]), is built by {!of_slots}: a generator
    only records the far end of each edge a peer opens, and one pass
    makes the sorted CSR rows. *)

type t

val peer_count : t -> int

val neighbors : t -> int -> int array
(** Adjacency of a peer (no self-loops, no duplicates), ascending.
    Allocates a copy of the CSR slice — convenience for tests and
    debugging; hot paths use {!degree}/{!neighbor} or the rows
    themselves ({!row_starts}/{!adjacency}), read in place. *)

val neighbor : t -> int -> int -> int
(** [neighbor t p i] is the [i]-th neighbor of [p] (ascending order),
    [0 <= i < degree t p].  No allocation. *)

val degree : t -> int -> int

val row_starts : t -> int array
(** The CSR rows themselves, shared, not copied: peer [p]'s neighbors
    are [(adjacency t).(i)] for [(row_starts t).(p) <= i < (row_starts
    t).(p + 1)], ascending.  [peer_count t + 1] entries.  Read-only; for
    hot loops outside this library, which hold the two arrays in locals.
    Not an [-opaque] workaround: in a release-profile build (no
    [-opaque]) [Replica_net.flood] through {!degree}/{!neighbor} took
    350–419 ns a flood at 20 members against 280–298 ns on these rows,
    and 9.66–9.75 against 8.6–9.0 µs at 200 members. *)

val adjacency : t -> int array
(** See {!row_starts}. *)

val edge_count : t -> int
(** Undirected edges. *)

val of_slots : peers:int -> per:int -> int array -> t
(** [of_slots ~peers ~per far] is the undirected graph whose edges are
    owner [o]'s slots: [far.(o * per + c)] for [0 <= c < per] is the
    far end of an edge [o] opened, and a slot equal to [o] is empty.
    Owners are [0 .. Array.length far / per - 1]; each row comes out
    ascending and without duplicates, however often an edge was
    opened.  Requires [per >= 1], [Array.length far] a multiple of
    [per] of at most [peers] owners, and every slot in [\[0, peers)]. *)

val random_regularish : Pdht_util.Rng.t -> peers:int -> degree:int -> t
(** Each peer opens [degree] connections to distinct uniformly random
    other peers (the classic Gnutella client behaviour); resulting
    degrees are ≈ 2x[degree] on average.  Requires [peers >= 2] and
    [1 <= degree < peers]. *)

val barabasi_albert : Pdht_util.Rng.t -> peers:int -> attach:int -> t
(** Preferential-attachment growth: each arriving peer links to
    [attach] existing peers chosen proportionally to current degree.
    Requires [peers > attach >= 1]. *)
