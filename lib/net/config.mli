(** Network-model configuration.

    A pure description of link behaviour: how long a message takes, how
    likely it is to vanish, which peer groups cannot talk to each other,
    and how patiently an RPC caller retries.  The record is plain data —
    building one has no side effects, and the same config given to the
    same seeded run always produces the same simulation, so reports stay
    pure functions of the spec. *)

type latency =
  | Constant of float
      (** Every message takes exactly this many seconds. *)
  | Uniform of { lo : float; hi : float }
      (** Uniform in [\[lo, hi)]; one RNG draw per message. *)
  | Lognormal of { mu : float; sigma : float }
      (** [exp (mu + sigma * Z)] with [Z] standard normal — the classic
          heavy-tailed internet-delay shape; two RNG draws per message. *)

type partition = {
  group_a : int array;  (** peers on one side of the cut *)
  group_b : int array;  (** peers on the other side *)
  from_time : float;    (** cut opens at this simulated time *)
  until_time : float;   (** and heals at this time (exclusive) *)
}
(** While [from_time <= now < until_time], any message with one endpoint
    in [group_a] and the other in [group_b] is dropped (both
    directions).  Peers absent from both groups are unaffected. *)

type t = {
  latency : latency;
  loss : float;        (** independent per-message drop probability, [0,1] *)
  partitions : partition list;
  rpc_timeout : float; (** seconds an RPC caller waits for attempt 0 *)
  rpc_retries : int;   (** retries after the first attempt (0 = one shot) *)
  backoff : float;     (** timeout multiplier per retry, >= 1 *)
}

val default : t
(** 50 ms constant latency, no loss, no partitions, 1 s timeout,
    3 retries, doubling backoff. *)

val zero_cost : t
(** [default] with zero latency and zero loss: messages behave exactly
    like the instantaneous no-net semantics.  Used by the equivalence
    tests and the CI gate. *)

val validate : t -> (t, string) result
(** Checks ranges: [loss] in [0,1], latency parameters sane
    ([lo <= hi], non-negative constants, [sigma >= 0]), positive
    [rpc_timeout], non-negative [rpc_retries], [backoff >= 1], partition
    windows ordered and peer ids non-negative. *)

val attempts : t -> int
(** [1 + rpc_retries] — total delivery attempts per RPC (the first send
    plus every retry).  This is also the message cost of conclusively
    discovering a dead peer, which the live routing tables' liveness
    probes mirror ({!Pdht_dht.Kademlia.enable_live_routing}). *)

val timeout_for : t -> attempt:int -> float
(** [rpc_timeout *. backoff ^ attempt]: how long attempt [attempt]
    (0-based) waits before it counts as lost. *)

val call : t -> (attempt:int -> timeout:float -> 'a option) -> 'a option
(** The RPC retry ladder these fields describe, the one both drivers
    share: {!Hook.rpc} on the simulator's virtual clock and
    [Pdht_proc.Cluster] on wall-clock deadlines.  [call t attempt] runs
    [attempt ~attempt:k ~timeout:(timeout_for t ~attempt:k)] for
    [k = 0, 1, ..., rpc_retries], stopping at the first [Some] and
    returning it; [None] once every attempt failed.  Zero retries is one
    shot.  The ladder owns no clock and sends nothing: [attempt] does
    one try and reports whether a reply arrived in time. *)

val latency_of_string : string -> (latency, string) result
(** Parses the CLI syntax: a bare float is [Constant]; otherwise
    ["constant:S"], ["uniform:LO:HI"], or ["lognormal:MU:SIGMA"]. *)

val latency_to_string : latency -> string
(** Inverse of {!latency_of_string} (canonical form). *)
