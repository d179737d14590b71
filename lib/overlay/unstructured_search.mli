(** Unstructured-search front end.

    Bundles a topology, a replication table and the k-random-walk
    parameters into the single operation the PDHT core needs: "find
    this item in the unstructured network and tell me what it cost".
    The measured cost is the empirical counterpart of the model's
    [cSUnstr = numPeers / repl * dup] (Eq. 6).  Flooding and expanding
    rings are compared against walks by calling {!Flood},
    {!Expanding_ring} and {!Random_walk} directly (E8a). *)

type strategy = { walkers : int; max_steps : int; check_every : int }
(** {!Random_walk.search}'s parameters. *)

type t

val create :
  topology:Topology.t ->
  replication:Replication.t ->
  strategy:strategy ->
  t

type outcome = {
  found : bool;
  messages : int;
  provider : int option;
  rounds : int;  (** walk rounds: the search's duration in per-hop
                     latencies *)
}

val search :
  ?span:int ->
  ?deliver:(span:int option -> src:int -> dst:int -> bool) ->
  t ->
  Pdht_util.Rng.t ->
  online:(int -> bool) ->
  source:int ->
  item:int ->
  outcome
(** Search for [item] starting at [source].  Counts every message of the
    underlying mechanism.  [deliver] threads the network model's
    per-message loss decision into the mechanism (omitted = reliable);
    [span] is the wave's causal span id, forwarded to [deliver]. *)
