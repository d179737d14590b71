(** Delivery-cost hook for the synchronous query path — the simulator's
    only network path.

    The PDHT query pipeline (DHT routing, replica floods, unstructured
    fallback) runs to completion inside one engine event; rewriting it
    as engine-scheduled state machines would buy nothing for a
    simulation whose queries do not overlap.  Instead, each query opens
    an {e operation} on this hook: per-hop RPCs and per-round broadcast
    latencies accumulate on a virtual clock, loss and partitions make
    individual deliveries fail (bounded retries with exponential
    backoff, then a timeout that the caller degrades from — the
    Section 5 miss path), and the final {!elapsed} is the query's
    end-to-end latency, recorded into the [net.query_latency_ms]
    histogram.  The hook owns the [net.messages_{sent,dropped,retried,
    timed_out}] counters.

    All randomness comes from the hook's own RNG stream, so enabling
    the network model never perturbs workload, churn or topology
    draws — the basis of the zero-cost-equivalence guarantee. *)

type t

val create : ?obs:Pdht_obs.Context.t -> rng:Pdht_util.Rng.t -> Config.t -> t
(** [rng] must be a dedicated stream (the caller splits it off the run
    seed).  @raise Invalid_argument when the config fails
    {!Config.validate}. *)

val begin_op : t -> now:float -> unit
(** Start a new timed operation at simulated time [now]: resets the
    virtual clock.  Partition windows are evaluated against
    [now + clock] as the operation progresses. *)

val elapsed : t -> float
(** Virtual seconds accumulated since {!begin_op}. *)

val now : t -> float
(** [op_start + elapsed]: the virtual completion time of whatever the
    operation just did — the timestamp traced child events carry. *)

val cast : ?span:int -> t -> src:int -> dst:int -> bool
(** One fire-and-forget message (flood / walk step semantics): counted
    as sent, subject to loss and partitions, no retries, no clock
    charge (broadcast time is per-round, see {!advance_rounds}).
    Returns false when the message is lost — the receiver never sees
    it.  [span] is the enclosing causal span id: when supplied and
    tracing is on, the traced loss event becomes its child. *)

val rpc : ?span:int -> t -> src:int -> dst:int -> bool
(** One request/response exchange (DHT hop semantics) on the virtual
    clock, stepped by the {!Config.call} ladder: each attempt
    sends a request and, if it arrives, a response; a loss on either
    leg costs the attempt's full timeout ([rpc_timeout * backoff^k])
    before the next try.  Returns true with
    the round-trip added to the clock, or false — with every timeout
    charged and [net.messages_timed_out] bumped — when the retry
    budget is exhausted (caller degrades: treat the peer as
    unreachable).  [span] parents the per-attempt trace events: each
    attempt (and the final timeout) is emitted as its own child span
    of the supplied id, stamped at its virtual completion time. *)

val advance_rounds : t -> int -> unit
(** Charge [n] sequential broadcast rounds to the clock: one latency
    sample each (a flood level or walk round is a wave of parallel
    messages, so its duration is one per-hop latency, not the sum). *)

val record_latency : t -> unit
(** Record {!elapsed} into the [net.query_latency_ms] histogram (in
    milliseconds, so the log-bucketed sketch resolves sub-second
    values) — call once per query, after the operation completes. *)
