(** Peer session (churn) model.

    "Peers continuously join and leave the system" (paper Section
    3.3.1); P2P clients are "extremely transient" [ChRa03].  Each peer
    alternates independently between online sessions and offline gaps.
    The classic fit to Gnutella traces [MaCa03] uses exponential
    durations; later DHT measurement work finds heavy-tailed session
    lengths.  {!create} takes either as a {!Pdht_dist.Session.spec}
    (exponential / lognormal / Weibull / Pareto legs).

    The model is driven by a {!Pdht_sim.Engine}: [attach] schedules the
    on/off toggle events.  Without an engine it can also be stepped
    manually with [toggle]. *)

type t

val create : Pdht_util.Rng.t -> peers:int -> Pdht_dist.Session.spec -> t
(** Session lengths drawn from the spec's legs (durations in seconds);
    each peer starts online with probability
    [initially_online_fraction].  The spec is validated
    ([Invalid_argument] on a bad one). *)

val always_online : peers:int -> t
(** Degenerate model with no churn (for model-validation runs). *)

val peers : t -> int
val online : t -> int -> bool
val online_count : t -> int
val availability : t -> float
(** Stationary expected fraction online:
    [mean_uptime / (mean_uptime + mean_downtime)] (1. without churn). *)

val attach : t -> Pdht_sim.Engine.t -> unit
(** Schedule every peer's next toggle on the engine; toggles reschedule
    themselves, so one call drives the model for the whole run. *)

val instrument : t -> Pdht_obs.Context.t -> unit
(** Register churn telemetry: the ["churn.session_length"] histogram
    (seconds between a peer's consecutive transitions — completed
    uptime and downtime sessions alike), the ["churn.transitions"]
    counter, the ["churn.online_count"] gauge, and a [Churn] trace
    event per transition.  Call before {!attach} fires any toggles. *)

val on_toggle : t -> (peer:int -> now_online:bool -> time:float -> unit) -> unit
(** Register a callback fired at every session transition (after the
    state change).  Callbacks run in registration order; registration
    is amortised O(1) (a growable array — the per-peer rejoin hooks
    register thousands of callbacks). *)

val toggle : t -> int -> float -> unit
(** [toggle t peer time] flips the peer's session state now and fires
    every registered callback — the manual stepping primitive behind
    [attach], exposed for drivers and tests. *)

val session_changes : t -> int
(** Total number of transitions so far (a churn-intensity measure). *)
