(** Compiled link behaviour: latency sampling and drop decisions.

    A {!Config.t} turned into the two questions {!Hook} asks per
    message — "how long does this one take?" and "does it arrive?" —
    with the partition groups pre-sorted so the per-message check is a
    pair of binary searches, not a list scan. *)

type t

val create : Config.t -> t
(** @raise Invalid_argument when {!Config.validate} rejects the config. *)

val config : t -> Config.t

val sample_latency : t -> Pdht_util.Rng.t -> float
(** One latency draw.  [Constant] consumes no RNG state, [Uniform] one
    draw, [Lognormal] two (Box–Muller). *)

val partitioned : t -> src:int -> dst:int -> now:float -> bool
(** True when an active partition window separates [src] from [dst] at
    simulated time [now]. *)

val lost : t -> Pdht_util.Rng.t -> bool
(** The independent loss coin: one draw whenever [loss > 0], none
    otherwise, so a zero-cost config leaves the net stream untouched.
    A message is dropped at send time when [partitioned || lost] (the
    partition check draws nothing); a caller that knows the config has
    no partitions asks only this, and needs no [now]. *)
