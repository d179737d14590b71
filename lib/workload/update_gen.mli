(** Article-replacement (update) stream.

    "Each article is replaced every 24 hours on average" (paper Section
    4): a Poisson process of rate [articles / mean_lifetime] whose
    events replace a uniformly random article. *)

type update = { time : float; article_id : int }

type t

val create :
  Pdht_util.Rng.t -> articles:int -> mean_lifetime:float -> t
(** [mean_lifetime] in seconds (86400 in the paper).  Requires both
    positive. *)

val stream : t -> from:float -> until:float -> update Seq.t

val attach :
  t ->
  Pdht_sim.Engine.t ->
  until:float ->
  handler:(Pdht_sim.Engine.t -> article_id:int -> unit) ->
  unit
(** Schedule the whole stream; each replacement fires [handler] at its
    time ([Engine.now] inside the handler).  Streamed through a single
    re-scheduled closure — O(1) memory in event count. *)
