(** Whole-system simulation: a {!Pdht_work.Scenario} driven against one
    {!Strategy} with full message accounting.

    Assembles everything: population + unstructured overlay + DHT +
    churn + routing maintenance + query/update workloads, runs the
    discrete-event engine for the scenario's duration, and reports the
    counters the paper's evaluation cares about.  The same run drives
    worker processes when given a {!Pdht.transport}. *)

type options = {
  repl : int;                  (** replication factor (default 20) *)
  stor : int;                  (** per-peer index cache (default 100) *)
  backend : Pdht_dht.Dht.backend;
  selection_policy : Pdht_policy.Selector.spec;
      (** what drives index selection (default [Ttl Model_derived] —
          the paper's behaviour).  [Ttl _] specs run the original
          global-TTL code path with no selector installed, so their
          reports are byte-identical to the pre-policy system;
          [Cost_optimal] installs a
          {!Pdht_policy.Selector.Cost_optimal} selector that gates
          insertions and sets per-key leases, and the report gains its
          [policy] summary.  Only active under [Partial_index]. *)
  sample_every : float;        (** time-series bucket width, seconds *)
  eviction : Pdht_dht.Storage.eviction;
      (** one value, read by nothing here; benchmark/workload.ml reads it *)
  net : Pdht_net.Config.t option;
      (** network model for the query path (default [None] =
          instantaneous, reliable messages — bit-identical to the
          pre-network behaviour).  When set, per-hop latency, loss,
          partitions and RPC timeout/retry semantics apply, and the
          report gains its [net] summary. *)
  fault : Pdht_fault.Plan.t option;
      (** crash-fault schedule (default [None] = no fault machinery at
          all — bit-identical to the pre-fault behaviour, same
          dedicated-RNG-split discipline as [net]).  When set, the plan
          is driven against the run: crash-stop peers lose their index
          cache, content replicas and routing state; optional
          anti-entropy repair and invariant checking run periodically;
          and the report gains its [fault] summary. *)
  timeline_window : float option;
      (** windowed-timeline width in simulated seconds (default [None]
          = no timeline, report structurally unchanged).  When set, the
          run feeds per-window query/hit/answer counts, message costs
          and latency sums (plus an indexed-keys gauge at sample ticks)
          into a {!Pdht_obs.Timeline}, and the report gains its
          [timeline] summary. *)
  bucket_refresh : float option;
      (** live Kademlia routing tables (default [None] = the frozen
          build-time snapshot — byte-identical to the historical
          behaviour).  When set to a period in seconds, the Kademlia
          backend's k-buckets become mutable and self-healing
          (replacement caches, liveness probing on contact, eviction of
          confirmed-dead entries) and the maintenance process runs a
          bucket-refresh sweep over stale ranges every period.  Probe
          ladders cost [Pdht_net.Config.attempts] messages per dead
          peer (the default config's when [net] is off); everything is
          charged to the [Maintenance] account.  [Invalid_argument]
          with any other backend. *)
}

val default_options : options

(** Options from the defaults.  To change fields of existing options,
    use record update ([{ o with net = Some cfg }]). *)
module Options : sig
  val make :
    ?repl:int ->
    ?stor:int ->
    ?backend:Pdht_dht.Dht.backend ->
    ?selection_policy:Pdht_policy.Selector.spec ->
    ?sample_every:float ->
    ?net:Pdht_net.Config.t ->
    ?fault:Pdht_fault.Plan.t ->
    ?timeline_window:float ->
    ?bucket_refresh:float ->
    unit ->
    options
  (** Unnamed arguments take their {!default_options} value. *)
end

type sample = {
  time : float;
  hit_rate : float;          (** fraction of queries answered from the
                                 index in this bucket *)
  messages : int;            (** all messages in this bucket *)
  indexed_keys : int;        (** empirical Eq. 15 at the sample instant *)
  key_ttl : float;           (** TTL in force (changes when adaptive) *)
  queries : int;             (** queries issued in this bucket *)
  answer_rate : float;       (** answered (index or broadcast) / queries
                                 in this bucket; 0. for an idle bucket *)
}

(** The [net.*] instruments in report form; present exactly when
    [options.net] was set.  Latency quantiles come from the
    [net.query_latency_ms] histogram (recorded in milliseconds,
    reported here in end-to-end virtual seconds per query); the
    counters are whole-run totals. *)
type net_summary = {
  messages_sent : int;
  messages_dropped : int;
  messages_retried : int;
  messages_timed_out : int;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
}

(** Fault-injection outcome, present exactly when [options.fault] was
    set.  Counter fields are whole-run totals from the [fault.*]
    instruments; the recovery triple is read off a per-bucket service
    rate — the bucket hit rate (empirical pIndxd) for index strategies,
    since crashes damage the index while the broadcast fallback masks
    them in the plain answer rate, or the answer rate under [No_index].
    [pre_fault_rate] is the mean over the later half of the
    query-carrying buckets up to the first fault — the steady state,
    skipping index warm-up (1.0 when no such bucket exists), [dip_rate]
    the post-fault minimum, and [time_to_recover] the seconds from the
    first fault until the first bucket whose rate is back within 5% of
    the baseline ([None] = never recovered within the run). *)
type fault_summary = {
  crashes : int;
  recoveries : int;
  entries_lost : int;        (** index entries destroyed by crashes *)
  content_lost : int;        (** content replicas dropped by crashes *)
  repair_passes : int;
  repair_messages : int;
  repaired_items : int;      (** content items re-replicated *)
  repaired_entries : int;    (** index entries re-copied *)
  pre_fault_rate : float;
  dip_rate : float;
  time_to_recover : float option;
}

type report = {
  scenario_name : string;
  strategy : Strategy.t;
  duration : float;
  active_members : int;
  key_ttl : float;            (** TTL at the end of the run *)
  queries : int;
  answered : int;
  from_index : int;
  from_broadcast : int;
  failed : int;
  total_messages : int;
  messages_by_category : (Pdht_sim.Metrics.category * int) list;
  messages_per_second : float;
  avg_messages_per_query : float;
  hit_rate : float;           (** from_index / queries *)
  indexed_keys_final : int;
  query_cost_p50 : float;     (** median messages per query *)
  query_cost_p95 : float;
  query_cost_p99 : float;
  c_s_indx_model : float;     (** Eq. 7 from the analytical model *)
  c_s_indx_measured : float;  (** mean [index.search_cost] (0 if unused) *)
  c_s_unstr_model : float;    (** Eq. 6 from the analytical model *)
  c_s_unstr_measured : float; (** mean [broadcast.reach] (0 if unused) *)
  histograms : (string * Pdht_obs.Histogram.summary) list;
      (** every registry histogram with at least one observation,
          name-sorted — except [engine.sim_seconds_per_wall_second],
          which measures host speed rather than the simulation and
          would break the determinism contract below *)
  net : net_summary option;   (** see {!net_summary} *)
  fault : fault_summary option; (** see {!fault_summary} *)
  policy : Pdht_policy.Selector.summary option;
      (** selection-policy snapshot; present exactly when the run
          installed a selector ([Cost_optimal] under [Partial_index]),
          [None] otherwise *)
  timeline : Pdht_obs.Timeline.summary option;
      (** windowed time series; present exactly when
          [options.timeline_window] was set *)
  samples : sample list;      (** chronological *)
}

val model_params : Pdht_work.Scenario.t -> options -> Pdht_model.Params.t
(** The analytical model's parameters for a run: population, keys,
    [fQry], update rate and Zipf alpha from the scenario (alpha 1.0 for
    non-Zipf distributions), [stor] and [repl] from the options, and
    [Params.default]'s env and dup. *)

val derive_key_ttl : Pdht_work.Scenario.t -> options -> float
(** The TTL a run starts with: [Ttl (Fixed ttl)] verbatim, otherwise
    (every other policy) [1/fMin] from the analytical model
    evaluated at the scenario's parameters (Zipf alpha
    approximated as 1.0 for non-Zipf distributions). *)

val plan_active_members : Pdht_work.Scenario.t -> options -> Strategy.t -> int
(** DHT size for a run: enough members for the full index under
    [Index_all], the model's Eq.-15 expectation under [Partial_index]
    (both with 1.5x headroom), and a minimal 2-member ring under
    [No_index] (no DHT traffic is generated there). *)

val run :
  ?obs:Pdht_obs.Context.t ->
  ?transport:Pdht.transport ->
  Pdht_work.Scenario.t ->
  Strategy.t ->
  options ->
  report
(** Execute the simulation.  Deterministic in [scenario.seed].
    [transport] (default: the in-process stores) is handed to
    {!Pdht.create}: the multi-process conductor passes its wire-crossing
    store and hop closures here.
    @raise Invalid_argument when [transport] is given with
    [options.net] (see {!Pdht.create}).

    [obs] (default: fresh, tracer disabled) collects the run's metrics
    and trace events: everything {!Pdht.create} registers, plus engine
    instrumentation ([engine.*]), churn telemetry ([churn.*]) and
    maintenance telemetry ([maintenance.*]).  Pass a context with an
    enabled tracer to capture typed events; periodic [Engine] snapshot
    events are emitted every [options.sample_every] sim-seconds (and
    the tracer's registered flushers run on the same schedule, also
    when only flushers are registered).  Sampled operations carry
    causal span ids — see {!Pdht.create} and {!Pdht_obs.Span}. *)

val pp_report : Format.formatter -> report -> unit
