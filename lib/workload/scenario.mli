(** Composed workload descriptors.

    A scenario fixes everything about a run except the indexing strategy
    under test, so strategies are compared on identical workloads. *)

type query_distribution =
  | Zipf of float                         (** exponent *)
  | Uniform
  | Hot_cold of { hot : int; hot_mass : float }

type shift_plan =
  | No_shift
  | Swap_halves_at of float               (** drastic mid-run shift *)
  | Rotate of { times : float list; offset : int }

type rate_plan =
  | Steady
      (** constant per-peer rate [f_qry] *)
  | Diurnal of { calm_f_qry : float; period : float; busy_fraction : float }
      (** the paper's busy/calm day: [f_qry] during the busy fraction of
          each period, [calm_f_qry] otherwise *)

type churn_plan =
  | No_churn
  | Exponential_sessions of {
      mean_uptime : float;
      mean_downtime : float;
      initially_online_fraction : float;
    }  (** the classic memoryless session model *)
  | Sessions of Pdht_dist.Session.spec
      (** general (possibly heavy-tailed) session-length distributions;
          an all-exponential spec is equivalent to
          {!Exponential_sessions} with the same parameters *)

type t = {
  name : string;
  num_peers : int;
  keys : int;               (** unique keys in the workload *)
  f_qry : float;            (** per-peer query rate, 1/s (busy-period
                                rate when [rate] is [Diurnal]) *)
  rate : rate_plan;
  distribution : query_distribution;
  shift : shift_plan;
  churn : churn_plan;
  update_mean_lifetime : float option;  (** None = no updates *)
  duration : float;         (** simulated seconds *)
  seed : int;
}

val news_default : t
(** A tractable instance of the paper's news scenario (scaled down from
    20,000 peers so single-run simulation stays interactive; the scale
    knobs are explicit fields). *)

val with_scale : t -> peers:int -> keys:int -> t
(** Rescale population and key space, keeping rates. *)

val distribution : t -> Pdht_dist.Discrete.t
(** Materialise the rank distribution over [keys]. *)

val popularity_shift : t -> Pdht_dist.Popularity_shift.t
(** Materialise the rank-to-key mapping over time. *)

val rate_profile : t -> Rate_profile.t
(** Materialise the per-peer rate over time. *)

val validate : t -> (t, string) result

val presets : (string * string * t) list
(** Named ready-to-run scenarios [(name, description, scenario)]:
    the scaled news system, a flash crowd (popularity flip), a churn
    storm, a busy/calm day, and a uniform-workload stress case. *)

val preset : string -> t option
(** Look a preset up by name. *)
