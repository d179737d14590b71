(** Chord with dynamic membership: joins, leaves and stabilization
    ([StMo01] Section 4 protocol).

    {!Chord} fixes the member set and routes around temporarily offline
    peers — all the paper's model needs.  This module completes the
    substrate with the actual membership protocol: nodes join through
    any existing member, leave (gracefully or by crashing), and a
    periodic {!stabilize} pass repairs successor pointers, successor
    lists and fingers, message-counted like everything else.

    Node identity: this module manages up to [capacity] node slots;
    slots are created by {!join} and recycled after {!leave}/{!crash}.
    All operations cost messages, returned by each call. *)

type t

val create : Pdht_util.Rng.t -> capacity:int -> unit -> t
(** An empty ring with room for [capacity] concurrent nodes.  Each
    node's successor list holds at most 4 entries, its fault-tolerance
    depth.  Requires [capacity >= 1]. *)

val node_count : t -> int
(** Nodes currently in the ring. *)

val is_member : t -> int -> bool
val id_of : t -> int -> Pdht_util.Bitkey.t
(** @raise Invalid_argument for a slot not currently in the ring. *)

val bootstrap : t -> int
(** Create the first node.  @raise Invalid_argument if the ring is not
    empty or capacity is 0. *)

val join : t -> via:int -> (int * int, string) result
(** [join t ~via] creates a node and joins it through existing member
    [via]: the new node looks up its own id to find its successor.
    Returns [(node, messages)] or an error (ring full / via not a
    member). *)

val leave : t -> node:int -> int
(** Graceful departure: the node hands its successor pointer to its
    predecessor (a constant number of messages, returned) and vanishes. *)

val crash : t -> node:int -> unit
(** The node vanishes without telling anyone; other nodes' pointers to
    it dangle until stabilization notices. *)

val stabilize : t -> Pdht_util.Rng.t -> int
(** One global stabilization round: every node (in random order) checks
    its successor (replacing it from the successor list if dead), learns
    its successor's predecessor (the classic notify/rectify step),
    refreshes its successor list and repairs one random finger.  Returns
    messages spent. *)

type outcome = { responsible : int option; messages : int; hops : int }

val lookup : t -> source:int -> key:Pdht_util.Bitkey.t -> outcome
(** Greedy routing over the current (possibly stale) pointers; fails if
    it runs into dead pointers stabilization has not fixed yet. *)

val ring_consistent : t -> bool
(** Do the successor pointers form a single cycle covering every member
    in id order?  The protocol's core invariant after stabilization
    quiesces. *)

val ideal_responsible : t -> Pdht_util.Bitkey.t -> int option
(** The member that should own the key given perfect pointers. *)
