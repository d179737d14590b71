(** Decentralized P-Grid construction ([Aber01]).

    {!Pgrid} builds its trie by a global balanced split — fine for
    steady-state experiments, but the real P-Grid is self-organizing:
    peers start unspecialized and build the trie through random pairwise
    meetings, with no coordination.  This module implements that
    bootstrap, the algorithm behind the paper's remark that P-Grid is "a
    self-organizing access structure".

    The exchange rule between meeting peers [p] and [q] (basic Aberer
    2001 protocol):

    - equal paths: the region splits — [p] appends 0, [q] appends 1,
      each adds the other as a reference at the new level;
    - one path a proper prefix of the other: the shallower peer
      specializes one level, taking the branch complementary to the
      deeper peer's next bit (keeping both branches covered), and they
      reference each other;
    - diverging paths: they exchange references at the divergence level
      and recursively introduce random references to each other,
      propagating the meeting deeper into both subtrees.

    Invariant maintained throughout (tested): every key always has at
    least one responsible peer — splits and specializations never
    abandon a region. *)

type t

val create : members:int -> unit -> t
(** All peers start with the empty path.  Specialization stops at depth
    20, and each level keeps at most 4 references.  Requires
    [members >= 1]. *)

val members : t -> int
val path_of : t -> int -> string
val refs_at : t -> peer:int -> level:int -> int array

val run_exchanges : t -> Pdht_util.Rng.t -> meetings:int -> unit
(** Perform [meetings] random pairwise meetings (with their recursive
    sub-exchanges). *)

val responsible_peers : t -> Pdht_util.Bitkey.t -> int array
(** Peers whose current path prefixes the key (O(members) scan). *)

type outcome = { responsible : int option; messages : int; hops : int }

val lookup :
  t -> Pdht_util.Rng.t -> online:(int -> bool) -> source:int -> key:Pdht_util.Bitkey.t -> outcome
(** Greedy prefix routing exactly as in {!Pgrid.lookup}; fails when the
    trie under construction lacks a reference for some level. *)

type stats = {
  mean_path_length : float;
  max_path_length : int;
  min_path_length : int;
  distinct_paths : int;
  mean_refs : float; (** routing-table entries per peer *)
}

val stats : t -> stats

val lookup_success_rate :
  t -> Pdht_util.Rng.t -> trials:int -> float
(** Fraction of random-source random-key lookups that reach a
    responsible peer with everyone online — the convergence measure for
    the bootstrap bench. *)
