(** Kademlia: XOR-metric DHT with k-buckets (Maymounkov & Mazieres).

    A third structured substrate beside {!Chord} and {!Pgrid},
    supporting the paper's claim that the partial-indexing scheme "can
    be used for any of the DHT based systems".  A key is owned by the
    [k_replica] members closest to it in XOR distance; lookups proceed
    iteratively with [alpha]-way parallel probes, halving the distance
    per round, for the usual O(log n) message cost.

    Like the other substrates, membership is fixed at construction and
    churn is an [online] predicate supplied per call.

    One routing table, two maintenance disciplines.  Every member keeps
    one set of k-buckets, filled at construction by reservoir sampling
    over each bucket's id range; both disciplines read and write that
    one store.  The store is flat: each member's row holds buckets
    [0 .. depth-1] (a length, then [bucket_size] slots each) in one int
    array shared by all members, where [depth] is 1 + the deepest
    bucket any member has slots in (the longest common id prefix in
    the membership); live replacement caches sit in a second array of
    the same layout.  A member's slotted, non-empty and
    touched-since-the-last-refresh buckets are int bitmasks, so bucket
    walks visit set bits only.  Under the default ("frozen") discipline only
    {!probe_and_repair} and {!rebuild_routes} change a table.  Opting in
    with {!enable_live_routing} maintains the same buckets by
    Maymounkov and Mazieres' rules, in least-recently-seen order with a
    per-bucket replacement cache beside them: lookup contacts promote
    or insert, full buckets liveness-probe their LRS entry before
    admitting a newcomer, evictions back-fill from the cache, and
    {!refresh_sweep} re-populates ranges no contact has touched.  All
    probe traffic is counted and drained through the maintenance
    account, giving the measured [cRtn] the paper only assumes. *)

type t

val create :
  Pdht_util.Rng.t -> members:int -> ?bucket_size:int -> ?alpha:int -> unit -> t
(** [bucket_size] (k, default 8) entries per distance bucket; [alpha]
    (default 3) parallel probes per round.  Requires [members >= 1]. *)

val members : t -> int
val id_of : t -> int -> Pdht_util.Bitkey.t

val closest_members : t -> Pdht_util.Bitkey.t -> k:int -> int array
(** The [min k members] members closest to the key in XOR distance,
    nearest first — the key's replica group. *)

val responsible : t -> online:(int -> bool) -> Pdht_util.Bitkey.t -> int option
(** Closest online member, [None] if everyone is offline. *)

type outcome = {
  responsible : int option;
  messages : int; (** every probe, including timeouts on offline peers *)
  hops : int;     (** probe rounds *)
}

val lookup :
  ?span:int ->
  ?deliver:(span:int option -> src:int -> dst:int -> bool) ->
  t ->
  online:(int -> bool) ->
  source:int ->
  key:Pdht_util.Bitkey.t ->
  outcome
(** Iterative lookup from [source] (offline source fails free).
    Succeeds when the globally closest *online* member has been
    contacted; fails if the search stalls with every known closer
    candidate offline.  [deliver] (one RPC per live contact) makes an
    undeliverable candidate look dead; the iteration routes around it
    rather than aborting. *)

val bucket_count : t -> int -> int
(** Non-empty k-buckets of a member. *)

val routing_table_size : t -> int -> int
(** Total routing entries a member currently holds. *)

val probe_and_repair :
  t -> Pdht_util.Rng.t -> online:(int -> bool) -> peer:int -> probes:int -> int
(** Probe random bucket entries; an offline entry is replaced with a
    random online member from the same bucket's distance range if one
    exists (repair free, probes one message each — the [MaCa03]
    discipline shared by all backends). *)

val forget_routes : t -> peer:int -> unit
(** Crash-stop routing loss: empty every k-bucket of [peer].  Lookups
    from the member fail immediately (no candidates) until
    {!rebuild_routes}; {!probe_and_repair} skips empty buckets. *)

val rebuild_routes : t -> Pdht_util.Rng.t -> peer:int -> int
(** Rejoin: repopulate the member's k-buckets with the construction-time
    reservoir sampling.  Returns the message cost — one FIND_NODE-style
    exchange per entry learned.  The draws are the same in both
    disciplines; live mode also empties the member's replacement caches
    and counts every bucket as freshly contacted. *)

(** {2 Live routing tables} *)

val enable_live_routing : ?probe_retries:int -> t -> unit
(** Switch to live maintenance of the current k-buckets: their entries
    become the initial least-recently-seen order, and each bucket gets
    an empty replacement cache.  Consumes no randomness, so enabling
    after {!create} leaves every RNG stream untouched.  [probe_retries] (default 3, the
    {!Pdht_net.Config} default ladder) sets the message cost of a
    liveness probe that times out: [1 + probe_retries] attempts.
    Idempotent; cannot be undone. *)

val refresh_sweep : t -> Pdht_util.Rng.t -> online:(int -> bool) -> int
(** One bucket-refresh pass over every online member: each non-empty id
    range that saw no contact since the previous sweep gets a refresh
    lookup ([alpha] probes plus one exchange per live entry learned).
    Returns the message cost; 0 in frozen mode.  The caller charges the
    cost to maintenance. *)

val drain_probe_cost : t -> int
(** Probe messages accrued by lookup-driven bucket updates since the
    last drain (eviction-rule liveness probes, including full timeout
    ladders for dead entries).  {!probe_and_repair} drains implicitly;
    drivers without a maintenance tick can drain and charge manually.
    Always 0 in frozen mode. *)

type live_stats = {
  probes : int;            (** liveness probes sent (contact + tick) *)
  probe_messages : int;    (** probe cost incl. dead-entry retry ladders *)
  refresh_messages : int;  (** refresh-sweep traffic *)
  evictions : int;         (** dead LRS entries evicted *)
  promotions : int;        (** contacts moving an entry to MRS *)
  insertions : int;        (** newcomers admitted to a bucket with room *)
  cache_fills : int;       (** bucket back-fills from the replacement cache *)
}

val live_stats : t -> live_stats option
(** Whole-run counters; [None] in frozen mode. *)

val contact_stats : t -> int * int
(** [(contacts, dead_contacts)] across all lookups so far, in either
    discipline: every contact attempt the iterative searches made, and
    how many hit a peer that turned out dead — the stale-route rate is
    [dead / contacts]. *)
