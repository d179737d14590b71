(** Session-length distributions for the churn model.

    The paper (and {!Pdht_dht.Churn}'s original form) assumes
    exponential on/off sessions, the model fit to Gnutella traces in
    [MaCa03]; later DHT measurement studies (Grunthal's mainline-DHT
    work, arXiv 1009.3681) find heavy-tailed session lengths —
    lognormal / Weibull / Pareto — under which most sessions are short
    while a long-lived core carries the routing load.  This module
    describes both worlds as data: a {!spec} names the uptime and
    downtime distributions anchored on their means, round-trips through
    a CLI grammar, and draws samples from a caller-supplied RNG.

    Grammar ([of_string] / [to_string], ':'-separated so a spec can
    embed inside a {!Pdht_fault.Plan} clause whose event list splits on
    commas):

    {v DIST[:up=SECONDS][:down=SECONDS][:sigma=X | :shape=X][:on=FRACTION] v}

    where [DIST] is [exp], [lognormal], [weibull] or [pareto]; [up] /
    [down] are the mean session / gap lengths (defaults 600 / 400
    seconds); [sigma] (lognormal, default 1.5) and [shape] (Weibull
    default 0.6, Pareto default 1.5) set the tail; [on] is the fraction
    of peers initially online (default: the stationary availability
    [up / (up + down)]).  Example: [lognormal:up=600:down=400:sigma=2]. *)

type dist =
  | Exponential
  | Lognormal of { sigma : float }  (** log-space std dev, > 0 *)
  | Weibull of { shape : float }    (** k, > 0; k < 1 = heavy tail *)
  | Pareto of { shape : float }     (** alpha, > 1 (finite mean) *)

type spec = {
  up : dist;
  down : dist;
  mean_uptime : float;
  mean_downtime : float;
  initially_online_fraction : float;
}

val draw : Pdht_util.Rng.t -> dist -> mean:float -> float
(** Sample a session length with expectation [mean] (> 0): the
    distribution's free parameter is re-anchored on the mean
    (lognormal [mu = ln mean - sigma^2/2], Weibull
    [scale = mean / Gamma(1 + 1/shape)], Pareto
    [x_m = mean (shape-1)/shape]).  Exponential draws consume exactly
    one uniform; lognormal two; Weibull and Pareto one. *)

val validate : spec -> (spec, string) result
(** Means finite and positive, fraction in [0,1], sigma/shape in their
    distributions' valid ranges (Pareto shape > 1). *)

val of_string : string -> (spec, string) result
(** Parse the grammar above; the result is validated. *)

val to_string : spec -> string
(** Render in [of_string] syntax (round-trips). *)
