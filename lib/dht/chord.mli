(** Chord ring ([StMo01]).

    One of the two "traditional DHT" substrates (the other is
    {!Pgrid}).  Nodes live in slots [0 .. capacity-1] with uniformly
    random 62-bit identifiers; a key is owned by its successor on the
    ring.  A ring is built one of two ways:

    - {!create} builds a converged ring over a fixed member set (the
      paper's [numActivePeers] peers that agree to build the DHT).
      Churn is modelled as members being temporarily offline, which
      {!lookup} and the finger maintenance route around.  This is the
      PDHT backend.
    - {!empty} starts with no nodes; {!bootstrap}, {!join}, {!leave},
      {!crash} and periodic {!stabilize} rounds grow and repair it (the
      Section 4 protocol), message-counted like everything else.

    {!lookup} routes greedily through finger tables, resolving about
    half of [log2 members] bits per message on average — the cost the
    model abstracts as Eq. 7.  {!route} follows the nodes' own, possibly
    stale, pointers instead. *)

type t

val create : Pdht_util.Rng.t -> members:int -> t
(** A converged ring of [members] slots, all in the ring: ideal
    successors, predecessors, successor lists and fingers.  Requires
    [members >= 1]. *)

val empty : Pdht_util.Rng.t -> capacity:int -> t
(** An empty ring with room for [capacity] concurrent nodes.  [rng]
    draws the ids of joining nodes and the finger each stabilization
    step repairs.  Each node's successor list holds at most 4 entries,
    its fault-tolerance depth.  Requires [capacity >= 1]. *)

val members : t -> int
(** Slots: the member count of a {!create} ring. *)

val node_count : t -> int
(** Nodes currently in the ring. *)

val is_member : t -> int -> bool

val id_of : t -> int -> Pdht_util.Bitkey.t
(** @raise Invalid_argument for a slot not currently in the ring. *)

type outcome = {
  responsible : int option; (** peer that answered, [None] on routing failure *)
  messages : int;           (** hops plus timed-out probes to offline peers *)
  hops : int;               (** successful forwarding steps only *)
}

(** {2 Fixed members}

    These read the sorted ring index of a {!create} ring; membership
    changes do not update it. *)

val successor_member : t -> Pdht_util.Bitkey.t -> int
(** Owner of a key ignoring churn: the member whose id is the first at
    or clockwise after the key. *)

val responsible : t -> online:(int -> bool) -> Pdht_util.Bitkey.t -> int option
(** First online member at or after the key; [None] if every member is
    offline. *)

val successors : t -> Pdht_util.Bitkey.t -> k:int -> int array
(** The [min k members] members clockwise from the key — the standard
    Chord replica group. *)

val lookup :
  ?span:int ->
  ?deliver:(span:int option -> src:int -> dst:int -> bool) ->
  t ->
  online:(int -> bool) ->
  source:int ->
  key:Pdht_util.Bitkey.t ->
  outcome
(** Iterative greedy finger routing from [source] (must be a member; an
    offline source fails immediately with no messages).  [deliver] is
    consulted once per successful forwarding step (RPC semantics); a
    [false] verdict aborts the routing with [responsible = None] so the
    caller can degrade to its miss path.  Omitted = reliable. *)

(** Finger-table maintenance (probing per [MaCa03]). *)

val finger_targets : t -> int -> int array
(** Current finger entries (member indices) of a member, each once, in
    finger order. *)

val probe_and_repair :
  t -> Pdht_util.Rng.t -> online:(int -> bool) -> peer:int -> probes:int -> int
(** Probe [probes] random finger entries of [peer]; each probe costs one
    message (the returned count).  A probe hitting an offline target
    repairs that finger to the next online member for its ideal target
    id — repair itself is free, as the paper assumes repair information
    is piggybacked on other traffic (Section 3.3.1). *)

val forget_routes : t -> peer:int -> unit
(** Crash-stop routing loss: every finger of [peer] points at itself
    (self-fingers are unusable, so lookups from the member degrade to
    ring walking until {!rebuild_routes}).  Fingers of *other* members
    pointing at the crashed node are repaired by the ordinary
    {!probe_and_repair} while it is offline. *)

val rebuild_routes : t -> online:(int -> bool) -> peer:int -> int
(** Rejoin: recompute [peer]'s finger table against the current online
    population (the join protocol's finger fixup — one lookup per
    level).  Returns the message cost, one per finger level. *)

(** {2 Membership protocol}

    Slots are taken by {!bootstrap} and {!join} and recycled after
    {!leave} and {!crash}.  Every operation returns its message cost. *)

val bootstrap : t -> int
(** Create the first node.  @raise Invalid_argument if the ring is not
    empty. *)

val join : t -> via:int -> (int * int, string) result
(** [join t ~via] creates a node and joins it through existing member
    [via]: the new node routes to its own id to find its successor.
    Returns [(node, messages)] or an error (ring full / via not a
    member / the route failed). *)

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

val route : t -> source:int -> key:Pdht_util.Bitkey.t -> outcome
(** Greedy routing over the current (possibly stale) pointers; fails if
    it runs into dead pointers stabilization has not fixed yet. *)

val ring_consistent : t -> bool
(** Do the successor pointers form a single cycle covering every member
    with ids in circular order?  The protocol's core invariant after
    stabilization quiesces; while it holds, every {!route} answers
    {!ideal_responsible}. *)

val ideal_responsible : t -> Pdht_util.Bitkey.t -> int option
(** The member that should own the key given perfect pointers. *)
