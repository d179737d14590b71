(** The query-adaptive partial distributed hash table.

    This is the paper's system (Section 5) assembled from the
    substrates: a population of peers connected by an unstructured
    Gnutella-like overlay, of which [active_members] also maintain a
    structured DHT used as a partial index.  Query handling follows the
    selection algorithm exactly:

    + search the index: route to a responsible peer; if its cache
      misses, flood the key's replica subnetwork (Eq. 16);
    + on an index miss, broadcast-search the unstructured network;
    + insert the resolved key-value pair into the index with expiration
      time [key_ttl], reset whenever a stored key is queried — so keys
      that are not queried for [key_ttl] seconds fall out of the index.

    The same machine also runs the two baselines ({!Strategy.Index_all},
    {!Strategy.No_index}) so that strategies can be compared on
    identical workloads with identical message accounting.

    By default every member cache lives in this process.  A
    {!transport} passed to {!create} moves them behind six store
    operations ({!store_ops}) and turns each hop into a delivery call,
    which is how the multi-process driver runs the same protocol. *)

type t

(** Index-store access, keyed by workload key index: the six
    operations the protocol performs on member caches.  The default
    (no [?transport] at {!create}) operates on the in-process
    per-member [Storage.t] array, keyed by [Bitkey.of_int key_index];
    the multi-process driver substitutes closures that reach whichever
    worker process owns [peer]'s shard over the wire, so a remote store
    is authoritative — including expiry and eviction side effects.
    - [get_and_refresh]: the query hit; a live entry's expiry becomes
      [now +. ttl];
    - [put]: insert or overwrite with expiry [now +. ttl] (repair
      passes the entry's remaining TTL, so it never extends a key's
      life);
    - [peek]: a live entry's value and absolute expiry, no refresh;
    - [clear]: the crash — drop every entry, return how many;
    - [live_count]: non-expired entries;
    - [census]: the key indices some store holds live at [now], as a
      fresh {!Census} bitmap of [keys] bits.  Read-only: it purges
      nothing, so sampling the index size never moves the run.  The
      multi-process driver answers it with one frame per worker. *)
type store_ops = {
  get_and_refresh : peer:int -> key_index:int -> now:float -> ttl:float -> int option;
  put : peer:int -> key_index:int -> value:int -> now:float -> ttl:float -> unit;
  peek : peer:int -> key_index:int -> now:float -> (int * float) option;
  clear : peer:int -> int;
  live_count : peer:int -> now:float -> int;
  census : now:float -> Bytes.t;
}

(** The store census: which workload keys a set of stores holds live.
    The in-process stores and every worker process take it through the
    same {!of_stores}, so there is one implementation.

    A census is a bitmap of [keys] bits, [bitmap_bytes ~keys] bytes
    long: key index [i] is bit [i land 7] (least significant first) of
    byte [i lsr 3]; padding bits are zero. *)
module Census : sig
  val bitmap_bytes : keys:int -> int
  (** [ceil (keys / 8)]. *)

  val of_stores : keys:int -> now:float -> 'v Pdht_dht.Storage.t array -> Bytes.t
  (** One read-only pass over the stores: the bitmap of keys live in at
      least one of them at [now].  The stores must be keyed by
      [Bitkey.of_int key_index] with every key index below [keys], as
      the in-process stores and every worker's shard are. *)

  val count : Bytes.t -> int
  (** Set bits of a bitmap. *)
end

(** A real transport: the multi-process driver's whole seam.  [store]
    replaces the in-process index stores; [rpc] fires once per DHT
    forward hop and entry contact (its return deciding delivery, as
    with the simulated network model) and [cast] once per broadcast
    message, each materialising the hop as a wire frame to the owning
    worker. *)
type transport = {
  store : store_ops;
  rpc : span:int option -> src:int -> dst:int -> bool;
  cast : span:int option -> src:int -> dst:int -> bool;
}

val create :
  ?obs:Pdht_obs.Context.t ->
  ?net:Pdht_net.Hook.t ->
  ?transport:transport ->
  Pdht_util.Rng.t ->
  Config.t ->
  t
(** Build topology, DHT, content placement and (for [Index_all]) the
    pre-loaded index.  Deterministic in the generator state.

    [obs] (default: a fresh disabled context) receives all telemetry:
    per-backend lookup histograms [dht.hops.<backend>] and
    [dht.lookup_messages.<backend>], the [query.cost],
    [broadcast.reach] and [gossip.rounds] histograms, counters
    [index.hit]/[index.miss]/[index.ttl_reset]/[index.insert]/
    [dht.lookup_failures]/[broadcast.searches]/[broadcast.found]/
    [gossip.spreads], the per-category [messages.*] counters that are
    the {!Pdht_sim.Metrics} ledger, and — when the tracer is enabled — typed
    [Query]/[Dht_lookup]/[Replica_flood]/[Broadcast]/[Index_insert]/
    [Ttl_reset]/[Gossip] events.  Operations the tracer samples (see
    {!Pdht_obs.Tracer.set_sampling}) additionally carry causal span
    ids: the [Query] (or [Gossip], for updates) event is the root and
    every step — entry contact, DHT routing, replica flood,
    unstructured wave, re-insertion, per-attempt network events —
    parents under it, forming a tree whose leaf message counts sum to
    the root's total.

    [net] (default: none — reliable, instantaneous messages, bit-for-bit
    the pre-network-model behaviour) applies the network model to the
    query path: every DHT forward hop and the entry-point contact become
    RPCs with timeout/retry/backoff, broadcast messages face the loss
    coin, sequential hop and wave latencies accumulate into a per-query
    virtual clock recorded as [net.query_latency_ms], and delivery failures
    degrade a lookup to the unstructured miss path instead of raising.
    The hook draws only from its own RNG stream, so all other
    randomness is unperturbed.  Replica-subnetwork floods, gossip and
    maintenance probes stay instantaneous (documented simplification —
    they are background traffic, not query-path latency).

    [transport] (default: none — the in-process stores, no delivery
    hooks) runs the same protocol over a real transport.
    @raise Invalid_argument when both [net] and [transport] are given:
    the simulated network model and a real transport are two
    implementations of the same delivery seam. *)

val config : t -> Config.t
val metrics : t -> Pdht_sim.Metrics.t

(** The observability context telemetry is recorded into. *)
val obs : t -> Pdht_obs.Context.t
val key_of_index : t -> int -> Pdht_util.Bitkey.t
(** The DHT key for workload key [i] (0-based, [< keys]). *)

val set_online : t -> (int -> bool) -> unit
(** Wire a churn model in; default: everyone always online. *)

val set_key_ttl : t -> float -> unit
(** Change the TTL used for subsequent insertions and refreshes (the
    self-tuning extension's knob).  Only meaningful under
    [Partial_index].  @raise Invalid_argument for non-positive TTLs. *)

val key_ttl : t -> float

val set_selector : t -> Pdht_policy.Selector.Cost_optimal.t -> unit
(** Install the cost-optimal selector.  It gates index insertions: it is
    consulted once per would-be re-insertion (after a successful
    broadcast), told whether it admitted the key, and a rejected key
    costs zero messages.  It also sets the per-key lease used both when
    inserting and when a query hit refreshes a stored key.  Without one
    (the default), every key is admitted with lease {!key_ttl}, the
    paper's behaviour. *)

type answer_source = From_index | From_broadcast | Not_found

type query_result = {
  source : answer_source;
  provider : int option;       (** peer that supplied the value *)
  index_messages : int;        (** DHT routing traffic this query *)
  replica_flood_messages : int;(** replica-subnetwork traffic *)
  broadcast_messages : int;    (** unstructured-search traffic *)
  insert_messages : int;       (** traffic spent re-inserting the key *)
}

val total_messages : query_result -> int

val query : t -> now:float -> peer:int -> key_index:int -> query_result
(** Execute one query per the configured strategy.  An offline [peer]
    yields [Not_found] with zero cost (it cannot ask). *)

val update_key : t -> Pdht_util.Rng.t -> now:float -> key_index:int -> int
(** Proactively update one key in the index (insert at a responsible
    peer, gossip among replicas — Eq. 9's operation).  Returns messages
    spent and charges them to [Update_gossip].  No-op (0) under
    [No_index]; under [Partial_index] the paper drops proactive updates
    (Section 5.1), so it is a no-op there too. *)

val rejoin_sync : t -> Pdht_util.Rng.t -> now:float -> peer:int -> int
(** Anti-entropy on rejoin ([DaHa03]: "Peers that are offline and go
    online again pull for missed updates").  Under [Index_all], a DHT
    member coming back online pulls once per replica subnetwork it
    participates in — one request plus one response per key it stores —
    charged to [Update_gossip].  Returns the messages spent; 0 for
    non-members, for reactive strategies (whose entries simply expire),
    and for [No_index]. *)

val indexed_key_count : t -> now:float -> int
(** Number of workload keys currently live in at least one index cache
    — the empirical Eq. 15: the set bits of one [census].  Entries only
    ever land on their key's replica group, so this equals the count of
    keys live on some member of their group.  Read-only. *)

val crash_peer : t -> peer:int -> int * int
(** Crash-stop state destruction for one peer: a DHT member loses its
    whole index cache and routing state; every peer loses its content
    replicas (dropped from the replication table).  Returns
    (index entries lost, content items lost).  Does not touch the
    liveness predicate — the caller owns that. *)

val recover_peer : t -> Pdht_util.Rng.t -> peer:int -> int
(** Rejoin *empty*: a member rebuilds its routing table via its
    backend's join protocol (messages returned and charged to
    [Maintenance]); the index cache stays empty until repair or organic
    re-insertion.  Free for non-members. *)

val repair_pass :
  ?span:int -> t -> Pdht_util.Rng.t -> now:float -> min_fraction:float -> int * int * int
(** One anti-entropy self-healing pass: top content items whose online
    replica count fell below [ceil (min_fraction *. repl)] back up to
    [repl] (copying from a surviving online replica), and re-copy index
    entries — with their *remaining* TTL, so repair never extends a
    key's life — from surviving group members to online members that
    lost them.  Returns (messages, content items repaired, index
    entries copied); messages are charged to [Maintenance].  [span] is
    the repair root span id (from the fault injector's trace event):
    when tracing, the pass emits a summary [Maintenance] event
    ([detail = "repair"]) parented under it.
    @raise Invalid_argument unless [min_fraction] is in (0, 1]. *)

val store_live_count : t -> now:float -> peer:int -> int
(** Live index-cache entries of a DHT member (invariant checking).
    @raise Invalid_argument for non-members. *)

val index_hit_probe : t -> now:float -> key_index:int -> bool
(** Would an index search for this key succeed right now?  (Read-only:
    no TTL refresh, no message charges.)  Used by experiments to measure
    the empirical Eq. 14 without perturbing the system. *)

val active_members : t -> int
val content_replicas : t -> key_index:int -> int array

val topology : t -> Pdht_overlay.Topology.t
(** The unstructured overlay the broadcast searches walk. *)

val dht : t -> Pdht_dht.Dht.t
(** The underlying structured overlay — exposed for routing-table
    maintenance wiring and ablation experiments. *)

val online_fn : t -> int -> bool
(** The current liveness predicate (identity of {!set_online}'s last
    argument). *)
