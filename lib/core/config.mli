(** Configuration of a simulated PDHT deployment. *)

type t = {
  num_peers : int;          (** total population *)
  active_members : int;     (** peers participating in the DHT *)
  keys : int;               (** distinct keys in the workload *)
  repl : int;               (** replication factor, index and content *)
  stor : int;               (** per-peer index cache capacity *)
  backend : Pdht_dht.Dht.backend;
  strategy : Strategy.t;
}

val overlay_degree : int
(** Connections each peer opens in the unstructured overlay (4). *)

val default_search : num_peers:int -> Pdht_overlay.Unstructured_search.strategy
(** 16 random walkers checking back every 4 steps, step budget scaled to
    the population — the [LvCa02]-style search the paper assumes. *)

val make :
  ?backend:Pdht_dht.Dht.backend ->
  ?eviction:Pdht_dht.Storage.eviction ->
  num_peers:int ->
  active_members:int ->
  keys:int ->
  repl:int ->
  stor:int ->
  strategy:Strategy.t ->
  unit ->
  t
(** Default backend: P-Grid.  [eviction] has one value and no effect;
    it stays because benchmark/workload.ml passes it.
    @raise Invalid_argument on inconsistent sizes (e.g.
    [active_members > num_peers], [repl > num_peers], or too few peers
    for the {!overlay_degree} overlay). *)

val active_members_for :
  num_peers:int -> repl:int -> stor:int -> expected_index_size:float -> int
(** The deployment-sizing rule behind the model's [numActivePeers]:
    enough members to hold the expected index, at least one replica
    group, at most the whole population. *)
