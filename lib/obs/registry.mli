(** Named metrics: counters, gauges and streaming histograms.

    One registry travels through a whole simulation run; every subsystem
    finds-or-creates its instruments by name ([counter], [gauge],
    [histogram] are idempotent), so instrumentation points never need
    central declaration.  Snapshots are plain association lists that can
    be diffed, printed and exported ({!Export}). *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Find or create.  @raise Invalid_argument if the name already names
    a different instrument kind. *)

val incr : counter -> int -> unit
(** @raise Invalid_argument on negative increments. *)

val counter_value : counter -> int

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : ?gamma:float -> t -> string -> Histogram.t
(** Find or create; [gamma] is only used on creation. *)

val find_histogram : t -> string -> Histogram.t option
val counter_value_by_name : t -> string -> int option

(** A point-in-time reading of every instrument, sorted by name. *)
type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Histogram.summary

type snapshot = (string * value) list

val snapshot : t -> snapshot

val merge_into : t -> into:t -> unit
(** [merge_into src ~into] folds every instrument of [src] into [into],
    creating instruments that don't exist there yet: counters add,
    histograms merge sample-for-sample ({!Histogram.merge}), and gauges
    take [src]'s reading (last merge wins — gauges are point-in-time).
    [src] is left untouched.  Deterministic: instruments are merged in
    name order, so folding the per-task registries of a parallel batch
    in task order always yields the same state.
    @raise Invalid_argument if a name already names a different
    instrument kind in [into], if histogram [gamma]s differ, or if
    [src] and [into] are the same registry. *)

val fold : t -> init:'a -> f:('a -> string -> value -> 'a) -> 'a
(** In name order. *)
