(** Query stream generation.

    Every peer issues queries at rate [f_qry]; the queried key is drawn
    from a rank distribution (Zipf in the paper) mapped onto key
    identities by a {!Pdht_dist.Popularity_shift} so that which keys are
    popular can change mid-run.

    The aggregate of [num_peers] independent Poisson processes of rate
    [f_qry] is one Poisson process of rate [num_peers * f_qry] whose
    events are assigned to uniform random peers — generating that
    aggregate directly keeps the event queue small. *)

type query = { time : float; peer : int; key_index : int; rank : int }

type t

val create :
  Pdht_util.Rng.t ->
  num_peers:int ->
  f_qry:float ->
  ?profile:Rate_profile.t ->
  distribution:Pdht_dist.Discrete.t ->
  shift:Pdht_dist.Popularity_shift.t ->
  unit ->
  t
(** The distribution's rank count must equal the shift's key count.
    When [profile] is given it overrides [f_qry] with a time-varying
    per-peer rate (sampled by thinning against the profile's maximum
    rate). *)

val next : t -> after:float -> query
(** The next query strictly after [after] (exponential inter-arrival). *)

val stream : t -> from:float -> until:float -> query Seq.t
(** Lazy stream of queries in [(from, until\]]. *)

val attach :
  t ->
  Pdht_sim.Engine.t ->
  until:float ->
  handler:(Pdht_sim.Engine.t -> peer:int -> key_index:int -> rank:int -> unit) ->
  unit
(** Schedule the whole stream on an engine; each query fires [handler]
    at its time (so [Engine.now] inside the handler is the query time).
    Events are streamed from the RNG one at a time through a single
    re-scheduled closure — no per-event record or closure is ever
    built, so attached-workload memory is O(1) in event count. *)
