(** Time-varying query rates.

    "The average query frequency per peer varies from one query every 30
    seconds, in very busy periods of the day, to one every 2 hours, in
    calmer times" (paper Section 4).  A profile maps simulated time to a
    per-peer rate; {!Query_gen} samples the resulting non-homogeneous
    Poisson process by thinning. *)

type t

val constant : float -> t
(** Fixed rate (must be positive). *)

val diurnal : busy:float -> calm:float -> period:float -> busy_fraction:float -> t
(** A repeating day: the first [busy_fraction] of every [period] seconds
    runs at the [busy] per-peer rate, the rest at [calm].  Requires
    positive rates and period, [busy_fraction] in (0, 1). *)

val rate_at : t -> float -> float
(** Per-peer rate at an instant (times before 0 use time 0). *)

val max_rate : t -> float
(** Upper bound over all times — the thinning envelope. *)
