(** Routing-table maintenance by probing ([MaCa03], paper Section
    3.3.1).

    Each online DHT member probes random routing entries at a rate
    proportional to its routing-table size: [env * log2 members] probe
    messages per peer per second, where [env] is the environment
    constant the paper derives from [MaCa03]'s Pastry study on a 17,000
    peer Gnutella trace ([env = 1/log2 17000 ~ 1/14], giving about one
    message per peer per second).  Probes that discover an offline entry
    repair it for free (repair data rides on other traffic).

    Attached to an engine, the process charges its traffic to a
    {!Pdht_sim.Metrics} account under [Maintenance]. *)

val probes_per_peer_per_second : env:float -> members:int -> float
(** [env * log2 members] — the model's per-peer maintenance rate. *)

val env_from_trace : maintenance_rate:float -> members:int -> float
(** Inverse: the [env] that yields [maintenance_rate] probes per peer
    per second in a network of [members] (paper Section 4 computes
    [env = 1 / log2 17000] from rate 1.0). *)

val attach :
  ?obs:Pdht_obs.Context.t ->
  ?refresh_every:float ->
  Pdht_sim.Engine.t ->
  dht:Dht.t ->
  rng:Pdht_util.Rng.t ->
  online:(int -> bool) ->
  metrics:Pdht_sim.Metrics.t ->
  env:float ->
  interval:float ->
  unit
(** Every [interval] seconds, every online member sends its accumulated
    probe budget ([env * log2 members * interval] probes, with the
    fractional part carried stochastically) and repairs what it finds
    stale.  Requires [interval > 0.].

    With [refresh_every], additionally runs {!Dht.refresh_sweep} every
    [refresh_every] seconds — the Kademlia bucket-refresh pass over
    stale ranges — charging its messages to the same [Maintenance]
    account (and counting them in ["maintenance.refresh_messages"] when
    observed).  Requires [refresh_every > 0.] when given; a no-op on
    backends without live routing.

    With [obs], each tick also records the
    ["maintenance.messages_per_tick"] histogram and emits one
    [Maintenance] trace event carrying the tick's message count. *)
