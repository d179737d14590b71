(** Named experiments: each function returns the data behind one table
    or figure of EXPERIMENTS.md.  Pure of I/O — rendering lives in the
    bench harness.

    Every system-level experiment is a {!Run_spec.t} batch executed by
    {!Runner.run_all}: [?jobs] spreads the independent runs over that
    many domains, and any value of [jobs] returns identical rows
    (see {!Runner} for the determinism contract).  The two
    micro-ablations ([search_ablation], [backend_ablation]) sit below
    the {!System} layer but parallelize on the same pool, one derived
    RNG stream per task. *)

(** E7: simulated strategies vs the analytical model across the query
    frequency sweep. *)
type face_off_row = {
  f_qry : float;
  sim_index_all : float;       (** measured msg/s *)
  sim_no_index : float;
  sim_partial : float;
  model_index_all : float;     (** Eq. 11 at simulation scale *)
  model_no_index : float;      (** Eq. 12 *)
  model_partial : float;       (** Eq. 17 *)
  sim_hit_rate : float;        (** partial run's index hit rate *)
  model_p_indexed_ttl : float; (** Eq. 14 *)
}

val face_off :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  frequencies:float list ->
  unit ->
  face_off_row list
(** Run all three strategies at each frequency on otherwise identical
    scenarios; model columns use the same (scaled) parameters. *)

(** E6: adaptivity to a changing query distribution. *)
type adaptivity_result = {
  shift_time : float;
  before_hit_rate : float;   (** steady state before the shift *)
  dip_hit_rate : float;      (** worst bucket within the recovery window *)
  after_hit_rate : float;    (** steady state at the end *)
  recovery_seconds : float option;
      (** time from the shift until the hit rate is back within 80% of
          its pre-shift level; [None] if it never recovers in-run *)
  series : System.sample list;
}

val adaptivity :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  unit ->
  adaptivity_result
(** The scenario must contain a [Swap_halves_at] shift; queries continue
    across it and the partial index must re-learn the popular set.
    @raise Invalid_argument if the scenario has no shift. *)

(** E8a: unstructured-search mechanism ablation. *)
type search_ablation_row = {
  mechanism : string;
  mean_messages : float;
  success_rate : float;
  empirical_dup : float;
}

val search_ablation :
  ?jobs:int ->
  seed:int -> peers:int -> repl:int -> trials:int -> unit -> search_ablation_row list
(** Flooding vs expanding-ring vs k-random-walks on the same topology
    and replica placement ([LvCa02]'s three mechanisms).
    [empirical_dup] is NaN for expanding ring, whose repeated inner-ring
    coverage makes a per-peer duplication factor meaningless. *)

(** E8b: DHT backend ablation. *)
type backend_ablation_row = {
  backend : string;
  mean_lookup_messages : float;
  mean_hops : float;
  model_expectation : float;   (** Eq. 7 *)
  success_rate : float;
}

val backend_ablation :
  ?jobs:int ->
  seed:int ->
  members:int ->
  trials:int ->
  offline_fraction:float ->
  unit ->
  backend_ablation_row list
(** Lookup cost across all four structured substrates (Chord, P-Grid,
    Kademlia, Pastry), with a fraction of members knocked offline to
    exercise fault routing. *)

(** E12: robustness of the selection algorithm to churn intensity. *)
type churn_row = {
  availability : float;       (** stationary fraction of peers online *)
  hit_rate : float;
  answer_rate : float;        (** answered / queries issued by online peers *)
  messages_per_second : float;
  indexed_keys : int;
}

val churn_sensitivity :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  availabilities:float list ->
  unit ->
  churn_row list
(** One partial-strategy run per availability level (1.0 = no churn;
    others use exponential sessions with 10-minute mean uptime). *)

(** E26: sustained-churn routing race — living vs frozen k-buckets on a
    raw Kademlia substrate, one triple of rows per decade of mean
    session length. *)
type churn_routing_row = {
  mean_session : float;     (** mean online-session length, seconds *)
  arm : string;             (** "baseline" / "live" / "frozen" *)
  attempted : int;          (** lookups issued by online sources *)
  success_rate : float;
  mean_hops : float;
  stale_route_rate : float; (** dead contacts / contacts *)
  maintenance_messages : int;
  crtn : float;             (** maintenance msgs / (members x seconds) —
                                the measured per-peer upkeep rate *)
}

val churn_routing :
  ?jobs:int ->
  seed:int ->
  members:int ->
  duration:float ->
  mean_sessions:float list ->
  unit ->
  churn_routing_row list
(** Per mean session length, three paired-seed arms over an identical
    query stream: a no-churn frozen [baseline]; [live] self-healing
    k-buckets under heavy-tailed (Weibull shape 0.6, availability 2/3)
    churn, maintained at 1 probe/peer/s plus periodic bucket refresh,
    with every liveness-probe ladder counted; and [frozen] static
    tables under the same churn given the live arm's measured
    maintenance total as an equalised probe budget.  Requires
    [members >= 8] and positive [duration] / session means. *)

(** E13: how the index responds to workload shape. *)
type workload_row = {
  workload : string;
  hit_rate : float;
  messages_per_second : float;
  indexed_fraction : float;   (** indexed keys / key space at run end *)
}

val workload_mix :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  unit ->
  workload_row list
(** The same scenario under uniform, Zipf(0.8), Zipf(1.2) and hot-cold
    query distributions: flatter workloads index more keys for a lower
    hit rate — the regime where the paper says partial indexing matters
    most is the skewed one. *)

(** Statistical confidence: the same experiment across independent
    seeds. *)
type replication_stats = {
  runs : int;                  (** successful runs, <= seeds given *)
  mean_messages_per_second : float;
  sd_messages_per_second : float;
  mean_hit_rate : float;
  sd_hit_rate : float;
  failures : (string * string) list;
      (** [(tag, message)] of every run that raised; failed runs are
          excluded from the statistics instead of aborting the batch *)
}

val replicate_seeds :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  strategy:Strategy.t ->
  seeds:int list ->
  unit ->
  replication_stats
(** Mean and sample standard deviation of the headline metrics across
    seeds.  Requires a non-empty seed list.  A run that raises becomes
    an entry in [failures] rather than an exception. *)

(** E19: the whole PDHT on each structured substrate.  The paper claims
    the scheme "can be used for any of the DHT based systems"; this runs
    the full selection algorithm end-to-end over every backend. *)
type backend_system_row = {
  backend_name : string;
  hit_rate : float;
  messages_per_second : float;
  answer_rate : float;
  index_messages : int;        (** DHT routing traffic *)
  replica_flood_messages : int;(** replica-subnetwork traffic — backends
                                   trade routing cost against replica-group
                                   shape, so totals can coincide while the
                                   composition differs sharply *)
}

val backend_face_off :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  unit ->
  backend_system_row list
(** One partial-strategy run per backend on identical workloads. *)

(** E15: adaptation to changing query *frequency* (the paper's
    busy/calm day, Section 4; complements E6's distribution shift). *)
type diurnal_result = {
  busy_indexed_mean : float;  (** mean indexed keys across busy-phase samples *)
  calm_indexed_mean : float;  (** ... and across calm-phase samples *)
  busy_hit_rate : float;
  calm_hit_rate : float;
  series : System.sample list;
}

val diurnal :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  calm_f_qry:float ->
  period:float ->
  unit ->
  diurnal_result
(** Run the partial strategy under a half-busy/half-calm repeating day:
    the index must grow during busy phases and drain during calm ones —
    the time-domain analogue of Fig. 3.  The scenario's [f_qry] is the
    busy rate. *)

(** E23: index-selection policy race.  One partial-strategy run per
    {!Pdht_policy.Selector.spec} on identical workloads; the post-shift
    window (everything after the scenario's first popularity shift, or
    the whole run when it has none) measures how fast each policy
    re-learns the new demand.  [post_shift_cost] is the empirical
    Eq.-17 analogue — all messages per second over that window. *)
type policy_race_row = {
  policy_label : string;       (** {!Pdht_policy.Selector.label} *)
  hit_rate : float;            (** whole-run index hit rate *)
  messages_per_second : float; (** whole-run total cost *)
  post_shift_cost : float;     (** msg/s after the first shift *)
  post_shift_hit_rate : float; (** query-weighted, after the shift *)
  rejected_inserts : int;      (** insertions the policy declined; 0 for
                                   [Ttl _] runs (no selector) *)
  indexed_keys_final : int;
}

val policy_race :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  policies:Pdht_policy.Selector.spec list ->
  unit ->
  policy_race_row list
(** Rows in [policies] order.  @raise Invalid_argument on an empty
    policy list. *)

(** Extension: adaptive-TTL controller vs fixed TTLs. *)
type ttl_tuning_row = {
  label : string;
  key_ttl_final : float;
  messages_per_second : float;
  hit_rate : float;
}

val ttl_tuning :
  ?jobs:int ->
  ?options:System.options ->
  scenario:Pdht_work.Scenario.t ->
  fixed_ttls:float list ->
  unit ->
  ttl_tuning_row list
(** One run per fixed TTL plus one adaptive run, identical workloads. *)

(** Representation-equivalence battery: a fixed set of small same-seed
    runs covering every flat/SoA data-structure path of the
    million-peer refactor (all four backends, churn, a small cache
    under eviction pressure, pure broadcast, [Index_all]).  Rendered
    with {!render_reports} and pinned as
    [test/golden/representation_reports.txt]; any purely
    representational change must keep the rendering byte-identical. *)
val representation_battery : ?jobs:int -> unit -> (string * System.report) list

val render_reports : (string * System.report) list -> string
(** Concatenate ["=== <tag> ===\n" ^ pp_report] per row — the exact
    bytes of the golden file. *)

val setup_shapes : unit -> (string * Config.t) list
(** The configurations [System.run] builds for the benchmark's
    [cold-keys] and [scale-100k] workloads at seed 1, paired with those
    names. *)

val render_setup_state : unit -> string
(** Digests of the state [Pdht.create] builds at each
    {!setup_shapes} entry from [Rng.create ~seed:1]: the key ids, every
    content replica row, the overlay adjacency and the generator's next
    draw.  Pinned as [test/golden/setup_state.txt]; a change to how
    set-up builds its state must keep it byte-identical. *)
