(** Kademlia k-bucket maintenance as pure decision rules.

    Like {!Rpc_machine}, this module owns no routing state and performs
    no I/O: the live-table layer (in [lib/dht]) holds the mutable
    buckets and asks these rules what the protocol says to do.  Keeping
    the rules pure makes the eviction discipline unit-testable without a
    simulator and reusable verbatim by the process driver.

    The rules are Maymounkov & Mazieres' originals: a contacted peer is
    promoted to most-recently-seen; a newcomer enters a bucket with
    room; a full bucket liveness-probes its least-recently-seen entry
    and either keeps it (proven-alive peers are never displaced —
    long-lived peers stay reachable, the property heavy-tailed session
    traces reward) or evicts it for the newcomer. *)

type view = {
  occupancy : int;  (** live entries in the bucket *)
  capacity : int;   (** k *)
  present : bool;   (** the contacted peer is already an entry *)
}

type contact_decision =
  | Promote    (** already present: move to the most-recently-seen end *)
  | Insert     (** room: append as most-recently-seen *)
  | Probe_lrs  (** full: liveness-probe the least-recently-seen entry *)

val on_contact : view -> contact_decision
(** What to do when a peer in this bucket's range was just heard from.
    @raise Invalid_argument on a malformed view. *)

type probe_outcome = Lrs_alive | Lrs_dead

type eviction_decision =
  | Keep_old_cache_new
      (** the probed entry answered: it becomes most-recently-seen and
          the newcomer goes to the replacement cache *)
  | Evict_insert_new
      (** the probed entry is dead: evict it, admit the newcomer *)

val on_probe : probe_outcome -> eviction_decision

val probe_messages : retries:int -> alive:bool -> int
(** Message cost of one liveness probe under an RPC retry budget: an
    alive entry answers the first attempt (1 message); a dead one
    silently eats the whole ladder ([1 + retries] attempts — the
    {!Rpc_machine} schedule with every attempt timing out). *)

val refresh_due : last_contact:float -> now:float -> interval:float -> bool
(** A bucket not touched (no contact, probe or refresh) for [interval]
    seconds is stale and due a refresh lookup.
    @raise Invalid_argument unless [interval > 0.]. *)
