(** Uniform facade over the structured substrates.

    The PDHT core is generic over "a traditional DHT" (the paper
    analyses the class, not one system); this module erases the
    difference between {!Chord}, {!Pgrid}, {!Kademlia} and {!Pastry}
    behind one lookup/maintain interface — supporting the paper's claim
    that the scheme "can be used for any of the DHT based systems". *)

type backend = Chord_backend | Pgrid_backend | Kademlia_backend | Pastry_backend

val backend_label : backend -> string

type t

val create :
  Pdht_util.Rng.t ->
  backend:backend ->
  members:int ->
  ?leaf_size:int ->
  ?refs_per_level:int ->
  unit ->
  t
(** [leaf_size] applies to P-Grid (default 1); [refs_per_level]
    (default 3) sets P-Grid's per-level references, Kademlia's bucket
    size and Pastry's leaf-set half-width (floored at 4 for the
    latter two, which need redundancy to terminate routing). *)

val members : t -> int

type outcome = { responsible : int option; messages : int; hops : int }

val lookup :
  ?span:int ->
  ?deliver:(span:int option -> src:int -> dst:int -> bool) ->
  t ->
  Pdht_util.Rng.t ->
  online:(int -> bool) ->
  source:int ->
  key:Pdht_util.Bitkey.t ->
  outcome
(** [deliver] threads the network model's per-hop RPC verdict into the
    backend (see each backend's [lookup]); a failed delivery makes the
    lookup fail ([responsible = None]) or routes around the silent peer,
    never raises.  Omitted = reliable, instantaneous semantics.
    [span] is this routing's causal span id ({!Pdht_obs.Span}),
    forwarded to every [deliver] call so the network layer can parent
    its per-hop trace events. *)

val responsible : t -> online:(int -> bool) -> Pdht_util.Bitkey.t -> int option

val replica_group : t -> repl:int -> Pdht_util.Bitkey.t -> int array
(** The peers that should hold a key, targeting [repl] replicas: for
    Chord the key's [repl] ring successors; for P-Grid the responsible
    leaf group (build with [leaf_size = repl] to match — the group is
    whatever the trie split produced); for Kademlia the [repl]
    XOR-closest members; for Pastry the [repl] numerically closest. *)

val probe_and_repair :
  t -> Pdht_util.Rng.t -> online:(int -> bool) -> peer:int -> probes:int -> int

val forget_routes : t -> peer:int -> unit
(** Crash-stop routing loss for one member: drop every routing entry it
    holds (fingers / references / buckets / table rows, per backend).
    Lookups *from* the member degrade to their worst case or fail until
    {!rebuild_routes}; other members route around it via the ordinary
    churn handling while it is offline. *)

val rebuild_routes : t -> Pdht_util.Rng.t -> online:(int -> bool) -> peer:int -> int
(** Rejoin: reconstruct the member's routing state as its backend's join
    protocol would, returning the message cost.  [rng] drives the
    re-sampling backends (P-Grid / Kademlia / Pastry); Chord rebuilds
    deterministically against [online]. *)

(** {2 Live routing tables}

    Kademlia-only: switch the backend's k-buckets from the frozen
    build-time snapshot to mutable, self-healing tables (replacement
    caches, liveness probing, contact-driven promotion — see
    {!Kademlia.enable_live_routing}). *)

val enable_live_routing : ?probe_retries:int -> t -> unit
(** @raise Invalid_argument on any backend but Kademlia. *)

val refresh_sweep : t -> Pdht_util.Rng.t -> online:(int -> bool) -> int
(** One bucket-refresh pass over every stale bucket range of every
    online member (see {!Kademlia.refresh_sweep}); returns the message
    cost.  0 for non-Kademlia backends and for a Kademlia table whose
    live mode is off. *)
