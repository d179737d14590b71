(** Pastry: prefix routing with leaf sets ([RoDr01]).

    The fourth structured substrate — and the one whose maintenance
    behaviour [MaCa03] measured to calibrate the paper's [env] constant,
    so it belongs in this reproduction.  Identifiers are sequences of
    base-[2^b] digits; each member keeps a routing table with one row
    per shared-prefix length (a matching entry per digit value) and a
    leaf set of the [leaf_set_size] numerically closest members on each
    side.  Routing resolves one digit per hop, giving
    O(log_{2^b} members) lookups; the leaf set finishes the last hop and
    provides the key's replica group.

    Membership is fixed at construction; churn arrives as an [online]
    predicate per call, exactly as for {!Chord}, {!Pgrid} and
    {!Kademlia}. *)

type t

val create : Pdht_util.Rng.t -> members:int -> ?leaf_set_size:int -> unit -> t
(** Digits are base 4 (b = 2).  [leaf_set_size] (default 8) is the
    leaf-set half-width.  Requires [members >= 1]. *)

val members : t -> int
val numerically_closest : t -> Pdht_util.Bitkey.t -> int
(** Owner of a key ignoring churn: the member whose id minimises
    |id - key| on the circular id space. *)

val leaf_set : t -> int -> int array
(** A member's leaf set (both sides, nearest first). *)

val replica_group : t -> Pdht_util.Bitkey.t -> k:int -> int array
(** The [min k members] members numerically closest to the key — the
    Pastry replica group. *)

val responsible : t -> online:(int -> bool) -> Pdht_util.Bitkey.t -> int option
(** Numerically closest online member. *)

type outcome = {
  responsible : int option;
  messages : int;
  hops : int;
}

val lookup :
  ?span:int ->
  ?deliver:(span:int option -> src:int -> dst:int -> bool) ->
  t ->
  online:(int -> bool) ->
  source:int ->
  key:Pdht_util.Bitkey.t ->
  outcome
(** Prefix routing from [source]; offline routing entries cost a timeout
    message each and fall back to the leaf set (and, in the worst case,
    a numerically-closer known member), as in deployed Pastry.
    [deliver] is one RPC per successful forward; a [false] verdict
    stalls the routing ([responsible = None]). *)

val probe_and_repair :
  t -> Pdht_util.Rng.t -> online:(int -> bool) -> peer:int -> probes:int -> int
(** The shared [MaCa03] probing discipline: probe random routing
    entries, replace discovered-offline ones with an online member
    matching the same prefix slot when available. *)

val forget_routes : t -> peer:int -> unit
(** Crash-stop routing loss: blank every routing-table entry of [peer]
    (the leaf set, derived from the static ring, survives).  Routing
    from the member degrades badly until {!rebuild_routes};
    {!probe_and_repair} never fills blank slots. *)

val rebuild_routes : t -> Pdht_util.Rng.t -> peer:int -> int
(** Rejoin: refill the member's routing table from the prefix groups as
    at construction.  Returns the message cost — one exchange per entry
    learned. *)
