(** P-Grid: a self-organizing binary-trie access structure ([Aber01]).

    The paper's own prototype runs on P-Grid, so we implement it as the
    primary structured substrate.  A peer with path {m pi} is
    responsible for every key that starts with {m pi}; peers sharing a
    path are natural replicas.  At each level [l] of its path a peer
    keeps references to peers on the complementary subtree.  Routing
    forwards a query to a reference at the first level where the key
    disagrees with the current peer's path — the [O(log2 members)]
    behaviour the model's Eq. 7 assumes.

    A trie comes about in one of two ways, and both write the same
    flat rows and route with the same {!lookup}:

    - {b Built} ({!build}): a global balanced split of the member set.
      Peers on the '0' side of a split extend their path with 0, peers
      on the '1' side with 1, until at most [leaf_size] peers share a
      path; each level then samples [refs_per_level] references from
      its complementary subtree.  This is the steady state every
      simulation runs on.

    - {b Grown} ({!unspecialized} then {!run_exchanges}): the real
      P-Grid is self-organizing — the algorithm behind the paper's
      remark that P-Grid is "a self-organizing access structure".
      Peers start with the empty path and build the trie through random
      pairwise meetings, with no coordination.  Paths specialize to at
      most 20 bits and each level keeps at most 4 references, newest
      first.  The exchange rule between meeting peers [p] and [q]
      (basic Aberer 2001 protocol):
      {ul
      {- equal paths: the region splits — [p] appends 0, [q] appends 1,
         each adds the other as a reference at the new level;}
      {- one path a proper prefix of the other: the shallower peer
         specializes one level, taking the branch complementary to the
         deeper peer's next bit (keeping both branches covered), and
         they reference each other;}
      {- diverging paths: they exchange references at the divergence
         level and recursively introduce random references to each
         other, propagating the meeting deeper into both subtrees.}}
      Invariant maintained throughout (tested): every key always has at
      least one responsible peer — splits and specializations never
      abandon a region.

    "Built tries only" marks what reads the split's subtrees; it raises
    [Invalid_argument] on a grown trie. *)

type t

val build :
  Pdht_util.Rng.t -> members:int -> leaf_size:int -> refs_per_level:int -> t
(** Requires [members >= 1], [leaf_size >= 1] and
    [1 <= refs_per_level <= 255]. *)

val unspecialized : members:int -> t
(** A grown trie before any meeting: every peer has the empty path.
    Requires [members >= 1]. *)

val run_exchanges : t -> Pdht_util.Rng.t -> meetings:int -> unit
(** Perform [meetings] random pairwise meetings (with their recursive
    sub-exchanges) on a grown trie. *)

val members : t -> int
val path_of : t -> int -> string
(** The peer's binary path as a '0'/'1' string. *)

val responsible_peers : t -> Pdht_util.Bitkey.t -> int array
(** All peers (the leaf replica group) whose path prefixes the key, in
    the order the split left them.  The array is shared by every key of
    the leaf; do not modify it.  Built tries only. *)

val responsible : t -> online:(int -> bool) -> Pdht_util.Bitkey.t -> int option
(** The first online peer of {!responsible_peers}, in its order.  Built
    tries only. *)

val refs_at : t -> peer:int -> level:int -> int array
(** Complementary-subtree references of [peer] at [level]; empty at and
    beyond its path length.  Requires [level] below the depth cap (the
    deepest built path, or 20 on a grown trie). *)

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
(** Route from [source]; each forwarding attempt costs one message,
    attempts to offline references cost one message each (timeout).
    Fails ([responsible = None]) if some level's references are all
    offline and the local leaf cannot answer — or, with [deliver]
    supplied (one RPC per forward hop), when a hop's delivery budget is
    exhausted, or after more than 4 × 20 hops on a grown trie, whose
    references can be stale. *)

val probe_and_repair :
  t -> Pdht_util.Rng.t -> online:(int -> bool) -> peer:int -> probes:int -> int
(** Probe random routing references; offline ones are replaced by a
    random online peer from the same complementary subtree (repair free,
    probes cost one message each — see {!Chord.probe_and_repair}).
    Built tries only. *)

val routing_table_size : t -> int -> int
(** Total references a peer currently holds. *)

val forget_routes : t -> peer:int -> unit
(** Crash-stop routing loss: empty every reference level of [peer].
    Lookups from the member fail at their first hop (dead level) until
    {!rebuild_routes}; {!probe_and_repair} skips empty levels and never
    restores them. *)

val rebuild_routes : t -> Pdht_util.Rng.t -> peer:int -> int
(** Rejoin: re-sample [refs_per_level] fresh references per level from
    the complementary subtrees, as at construction.  Returns the message
    cost — one exchange per reference learned.  Built tries only. *)

type stats = {
  mean_path_length : float;
  max_path_length : int;
  min_path_length : int;
  distinct_paths : int;
  mean_refs : float; (** routing-table entries per peer *)
}

val stats : t -> stats

val lookup_success_rate : t -> Pdht_util.Rng.t -> trials:int -> float
(** Fraction of random-source random-key lookups that reach a
    responsible peer with everyone online — the convergence measure for
    the bootstrap bench. *)
