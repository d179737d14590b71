(** Random replication of content across peers (paper Section 3.1).

    Each stored item (news article, and by extension each of its keys)
    is placed on [repl] uniformly random peers, matching the paper's
    "we replicate keys with a certain factor at random peers".  The
    table exposes the replica set, which the random walk and the gossip
    subnetwork start from, and answers [holds] queries for floods. *)

type t

val create : peers:int -> t
(** Empty table over a population of [peers]. *)

val peers : t -> int

val place : t -> Pdht_util.Rng.t -> item:int -> repl:int -> unit
(** (Re)place [item] on [min repl peers] distinct random peers,
    replacing any previous placement.  The draws are
    {!Pdht_util.Sampling.sample_without_replacement}'s; the table's own
    sampler orders them, so once its scratch has grown to [repl] a
    placement allocates only the new row. *)

val place_on : t -> item:int -> replicas:int array -> unit
(** Explicit placement (deterministic tests, repair): the distinct
    peers of [replicas].  Raises [Invalid_argument] on a peer outside
    the population, leaving the placement as it was. *)

val remove : t -> item:int -> unit

val remove_peer : t -> peer:int -> int
(** Drop [peer] from the replica set of every item it holds (the
    crash-stop "content lost" operation) and return how many items it
    held.  Items whose last replica goes become unplaced.  Scans every
    item, O(items * log repl): the table keeps no per-peer view. *)

val replicas : t -> item:int -> int array
(** Peers currently holding [item], ascending and distinct (empty if
    never placed). *)

val holds : t -> peer:int -> item:int -> bool
val items_at : t -> peer:int -> int list
(** Items [peer] holds, ascending.  Scans every item, O(items * log
    repl), like {!remove_peer}. *)

val replication_factor : t -> item:int -> int
