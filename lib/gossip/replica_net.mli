(** The unstructured subnetwork among a key's replicas.

    "The replicas in the index maintain an unstructured replica
    subnetwork among each other" (paper Section 3.3.2).  Updates are
    gossiped over it, and with the Section-5 selection algorithm a
    responsible peer that cannot answer a query floods it (Eq. 16's
    [repl * dup2] term).

    Topology: a ring over the replicas (guaranteeing connectivity among
    online members as long as gaps are short) plus [chords] random
    long-range links per replica, mirroring the few open connections a
    Gnutella-style client keeps. *)

type t

val build : Pdht_util.Rng.t -> replicas:int array -> chords:int -> t
(** [replicas] are global peer indices; [chords >= 0].  Requires a
    non-empty replica set. *)

val size : t -> int
val replicas : t -> int array
val neighbors : t -> member:int -> int array
(** Neighbors of a replica, given as global peer indices; [member] is
    the position in [replicas]. *)

val member_of_peer : t -> int -> int option
(** Position of a global peer index in this replica group. *)

type flood_result = {
  reached : int;   (** online replicas the flood reached *)
  messages : int;  (** every transmission, duplicates included *)
}

val flood :
  t -> online:(int -> bool) -> from_peer:int -> flood_result
(** Flood the subnetwork starting from the replica with global index
    [from_peer] (no-op result if it is offline or not a member).  Used
    both for update dissemination and for query forwarding. *)
