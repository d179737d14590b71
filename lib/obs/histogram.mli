(** Streaming log-bucketed histogram.

    Replaces the simulator's sort-an-unbounded-list percentile with an
    O(1)-memory sketch: values land in geometrically sized buckets
    (ratio [gamma] between consecutive bucket bounds), so any quantile
    is off by at most one bucket — a bounded relative error of [gamma]
    — regardless of how many samples were recorded.  The exact [min],
    [max], [count] and [sum] are tracked on the side.

    Designed for the simulator's non-negative measurements (messages
    per query, DHT hops, session lengths, throughput samples). *)

type t

val create : ?gamma:float -> unit -> t
(** [gamma] must be > 1; smaller means finer quantiles and more
    buckets.  The default, [2**(1/8)], gives about 9% relative bucket
    width and < 200 buckets out to ten million. *)

val gamma : t -> float

val record : t -> float -> unit
(** @raise Invalid_argument on negative or non-finite values. *)

val record_int : t -> int -> unit

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** 0 when empty. *)

val max_value : t -> float
(** 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t p] for [p] in [0,1]: the geometric midpoint of the
    bucket holding the [p]-th ranked sample, clamped to the exact
    observed [min]/[max].  0 when empty.
    @raise Invalid_argument when [p] is outside [0,1]. *)

val nonzero_buckets : t -> (float * float * int) list
(** [(lower, upper, count)] for every bucket with a sample, in value
    order.  Bucket 0 is [(0, 1, _)]; bucket [i>0] is
    [(gamma^(i-1), gamma^i, _)]. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds every sample of [src] to [into],
    bucket-for-bucket: the result is indistinguishable (same buckets,
    count, min, max; sum up to float association) from having recorded
    the concatenation of both sample streams into one histogram.  [src]
    is left untouched.  The workhorse behind {!Registry.merge_into},
    which folds per-task observability contexts from parallel runs back
    into one registry.
    @raise Invalid_argument if the two histograms have different
    [gamma]s, or if [src] and [into] are the same histogram. *)

(** The fixed set of headline statistics the exporters and reports
    carry around. *)
type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val summary : t -> summary
val summary_to_json : summary -> Json.t

val pp_summary : Format.formatter -> summary -> unit
