(** Chord ring over a fixed member set ([StMo01]).

    One of the two "traditional DHT" substrates (the other is
    {!Pgrid}).  Members are peer indices [0 .. members-1] with uniformly
    random 63-bit identifiers; a key is owned by its successor on the
    ring.  Lookups route greedily through finger tables, resolving about
    half of [log2 members] bits per message on average — the cost the
    model abstracts as Eq. 7.

    Membership is fixed at construction (the paper's [numActivePeers]
    peers that agree to build the DHT); churn is modelled as members
    being temporarily offline, which lookups and maintenance must route
    around. *)

type t

val create : Pdht_util.Rng.t -> members:int -> t
(** Requires [members >= 1]. *)

val members : t -> int
val id_of : t -> int -> Pdht_util.Bitkey.t

val successor_member : t -> Pdht_util.Bitkey.t -> int
(** Owner of a key ignoring churn: the member whose id is the first at
    or clockwise after the key. *)

val responsible : t -> online:(int -> bool) -> Pdht_util.Bitkey.t -> int option
(** First online member at or after the key; [None] if every member is
    offline. *)

val successors : t -> Pdht_util.Bitkey.t -> k:int -> int array
(** The [min k members] members clockwise from the key — the standard
    Chord replica group. *)

type outcome = {
  responsible : int option; (** peer that answered, [None] on routing failure *)
  messages : int;           (** hops plus timed-out probes to offline peers *)
  hops : int;               (** successful forwarding steps only *)
}

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

val finger_count : t -> int -> int
(** Distinct finger entries of a member. *)

val finger_targets : t -> int -> int array
(** Current finger entries (member indices) of a member. *)

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
