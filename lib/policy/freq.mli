(** Online per-key query-frequency estimator.

    The paper's Eq. 2 needs the per-key query frequency fQry(k); the
    analytical model reads it off the assumed Zipf curve, while the
    cost-optimal selector estimates it from the live query stream.  The
    estimator counts queries per key between {!fold} calls and maintains
    an exponential moving average of the per-key global query rate
    (queries per second, summed over all peers): at each fold,
    [rate(k) <- 0.5 * rate(k) + 0.5 * count(k) / elapsed].  The first
    fold seeds the EMA directly so early estimates are not dragged
    toward zero.

    Everything is deterministic: no randomness, no wall clock — time
    comes from the caller (the simulation engine). *)

type t

val create : keys:int -> t
(** @raise Invalid_argument on [keys < 1]. *)

val note : t -> key_index:int -> unit
(** Count one query for [key_index] in the current window.  Out-of-range
    indices raise [Invalid_argument]. *)

val fold : t -> now:float -> unit
(** Blend the current window into the per-key EMAs and start a new
    window at [now].  A window with non-positive elapsed time is
    discarded (counts are kept for the next fold). *)

val rate : t -> key_index:int -> float
(** EMA'd global query rate of a key, in queries per second (0. before
    the first fold). *)

val live_rate : t -> now:float -> key_index:int -> float
(** [max (rate k) (window count / elapsed)] — the EMA floor-lifted by
    the still-open window, so a key that turns hot mid-window is seen
    before the next {!fold}. *)

val total_rate : t -> float
(** EMA'd total query rate over all keys, queries per second. *)
