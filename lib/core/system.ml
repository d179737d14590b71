module Rng = Pdht_util.Rng
module Metrics = Pdht_sim.Metrics
module Engine = Pdht_sim.Engine
module Scenario = Pdht_work.Scenario
module Obs = Pdht_obs.Context
module Registry = Pdht_obs.Registry
module Histogram = Pdht_obs.Histogram

let log_src = Logs.Src.create "pdht.system" ~doc:"PDHT simulation runner"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Psel = Pdht_policy.Selector
module Cost = Psel.Cost_optimal

type options = {
  repl : int;
  stor : int;
  backend : Pdht_dht.Dht.backend;
  selection_policy : Psel.spec;
  sample_every : float;
  eviction : Pdht_dht.Storage.eviction;
  net : Pdht_net.Config.t option;
  fault : Pdht_fault.Plan.t option;
  timeline_window : float option;
  bucket_refresh : float option;
}

let default_options =
  {
    repl = 20;
    stor = 100;
    backend = Pdht_dht.Dht.Pgrid_backend;
    selection_policy = Psel.default;
    sample_every = 60.;
    eviction = Pdht_dht.Storage.Evict_soonest_expiry;
    net = None;
    fault = None;
    timeline_window = None;
    bucket_refresh = None;
  }

module Options = struct
  let make ?repl ?stor ?backend ?selection_policy ?sample_every ?net ?fault ?timeline_window
      ?bucket_refresh () =
    let d = default_options in
    let value default = function Some v -> v | None -> default in
    {
      repl = value d.repl repl;
      stor = value d.stor stor;
      backend = value d.backend backend;
      selection_policy = value d.selection_policy selection_policy;
      sample_every = value d.sample_every sample_every;
      eviction = d.eviction;
      net = (match net with Some _ -> net | None -> d.net);
      fault = (match fault with Some _ -> fault | None -> d.fault);
      timeline_window =
        (match timeline_window with Some _ -> timeline_window | None -> d.timeline_window);
      bucket_refresh =
        (match bucket_refresh with Some _ -> bucket_refresh | None -> d.bucket_refresh);
    }
end

type sample = {
  time : float;
  hit_rate : float;
  messages : int;
  indexed_keys : int;
  key_ttl : float;
  queries : int;
  answer_rate : float;
}

(* Network-model outcome of a run: the [net.*] registry instruments
   folded into report form.  [None] exactly when [options.net] was
   [None], so pre-network reports are structurally unchanged. *)
type net_summary = {
  messages_sent : int;
  messages_dropped : int;
  messages_retried : int;
  messages_timed_out : int;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
}

(* Fault-injection outcome of a run, folded from the [fault.*]
   instruments and the answer-rate time series.  [None] exactly when
   [options.fault] was [None], mirroring [net_summary]. *)
type fault_summary = {
  crashes : int;
  recoveries : int;
  entries_lost : int;
  content_lost : int;
  repair_passes : int;
  repair_messages : int;
  repaired_items : int;
  repaired_entries : int;
  pre_fault_rate : float;
  dip_rate : float;
  time_to_recover : float option;
}

type report = {
  scenario_name : string;
  strategy : Strategy.t;
  duration : float;
  active_members : int;
  key_ttl : float;
  queries : int;
  answered : int;
  from_index : int;
  from_broadcast : int;
  failed : int;
  total_messages : int;
  messages_by_category : (Metrics.category * int) list;
  messages_per_second : float;
  avg_messages_per_query : float;
  hit_rate : float;
  indexed_keys_final : int;
  query_cost_p50 : float;
  query_cost_p95 : float;
  query_cost_p99 : float;
  c_s_indx_model : float;
  c_s_indx_measured : float;
  c_s_unstr_model : float;
  c_s_unstr_measured : float;
  histograms : (string * Histogram.summary) list;
  net : net_summary option;
  fault : fault_summary option;
  policy : Psel.summary option;
  timeline : Pdht_obs.Timeline.summary option;
  samples : sample list;
}

(* Map a scenario onto the analytical model's parameter record so runs
   can be sized and TTLs derived the way the paper does; env and dup
   keep their [Params.default] values.  Non-Zipf distributions have no
   alpha; 1.0 is a neutral stand-in that only affects sizing
   heuristics, never the simulated behaviour itself. *)
let model_params (scenario : Scenario.t) (options : options) =
  let alpha =
    match scenario.Scenario.distribution with
    | Scenario.Zipf a -> a
    | Scenario.Uniform | Scenario.Hot_cold _ -> 1.0
  in
  let f_upd =
    match scenario.Scenario.update_mean_lifetime with
    | None -> 0.
    | Some lifetime -> 1. /. lifetime
  in
  {
    Pdht_model.Params.default with
    num_peers = scenario.Scenario.num_peers;
    keys = scenario.Scenario.keys;
    stor = options.stor;
    repl = options.repl;
    alpha;
    f_qry = scenario.Scenario.f_qry;
    f_upd;
  }

let derive_key_ttl scenario options =
  match options.selection_policy with
  | Psel.Ttl (Psel.Fixed ttl) -> ttl
  | Psel.Ttl Psel.Model_derived | Psel.Ttl Psel.Adaptive | Psel.Cost_optimal ->
      let params = model_params scenario options in
      let solution = Pdht_model.Index_policy.solve params in
      let ttl = Pdht_model.Strategies.default_key_ttl solution in
      if Float.is_finite ttl then ttl else scenario.Scenario.duration

(* Headroom on the model's numActivePeers: replica groups and key
   loads are hash-balanced only in expectation, so deployments
   over-provision. *)
let sizing_headroom = 1.5

let plan_active_members scenario options strategy =
  let params = model_params scenario options in
  let sized expected_index_size =
    Config.active_members_for ~num_peers:scenario.Scenario.num_peers ~repl:options.repl
      ~stor:options.stor
      ~expected_index_size:(sizing_headroom *. expected_index_size)
  in
  match strategy with
  | Strategy.No_index -> 2
  | Strategy.Index_all -> sized (float_of_int scenario.Scenario.keys)
  | Strategy.Partial_index { key_ttl } ->
      let state = Pdht_model.Strategies.ttl_state params ~key_ttl in
      sized state.Pdht_model.Strategies.index_size

let build_churn scenario rng =
  let peers = scenario.Scenario.num_peers in
  match scenario.Scenario.churn with
  | Scenario.No_churn -> Pdht_dht.Churn.always_online ~peers
  | Scenario.Exponential_sessions { mean_uptime; mean_downtime; initially_online_fraction }
    ->
      Pdht_dht.Churn.create rng ~peers
        { Pdht_dist.Session.up = Exponential; down = Exponential; mean_uptime;
          mean_downtime; initially_online_fraction }
  | Scenario.Sessions spec -> Pdht_dht.Churn.create rng ~peers spec

(* Mutable run-time counters, folded into the report at the end. *)
type counters = {
  mutable queries : int;
  mutable from_index : int;
  mutable from_broadcast : int;
  mutable failed : int;
  mutable bucket_queries : int;
  mutable bucket_hits : int;
  mutable bucket_answered : int;
  mutable last_total_messages : int;
  mutable samples_rev : sample list;
}

let run ?obs ?transport scenario strategy options =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let scenario =
    match Scenario.validate scenario with
    | Ok s -> s
    | Error msg -> invalid_arg ("System.run: " ^ msg)
  in
  let strategy =
    (* Resolve a model-derived TTL once so the whole run (and the
       report) sees a concrete number. *)
    match strategy with
    | Strategy.Partial_index { key_ttl } when not (Float.is_finite key_ttl && key_ttl > 0.)
      ->
        Strategy.Partial_index { key_ttl = derive_key_ttl scenario options }
    | s -> s
  in
  let rng = Rng.create ~seed:scenario.Scenario.seed in
  let build_rng = Rng.split rng in
  let workload_rng = Rng.split rng in
  let churn_rng = Rng.split rng in
  let maintenance_rng = Rng.split rng in
  let update_rng = Rng.split rng in
  (* The network model gets its own stream, split only when enabled:
     the five streams above were derived before this point and the
     parent generator is never drawn from again, so [net = None] runs
     are bit-identical to the pre-network code and enabling a zero-cost
     net perturbs no other stream. *)
  let net_hook =
    match options.net with
    | None -> None
    | Some cfg ->
        let net_rng = Rng.split rng in
        Some (Pdht_net.Hook.create ~obs ~rng:net_rng cfg)
  in
  (* Same discipline for the fault subsystem: one dedicated stream,
     split only when a plan is present (and after the conditional net
     split, so enabling faults perturbs neither the base streams nor the
     network model).  The stream covers victim sampling, routing-table
     rebuilds on recovery, and anti-entropy peer choice — all
     fault-only randomness. *)
  let injector =
    match options.fault with
    | None -> None
    | Some plan ->
        let fault_rng = Rng.split rng in
        let inj =
          Pdht_fault.Injector.create ~tracer:obs.Obs.tracer ~registry:obs.Obs.registry
            ~rng:fault_rng ~peers:scenario.Scenario.num_peers plan
        in
        Some (inj, fault_rng, plan)
  in
  let active_members = plan_active_members scenario options strategy in
  Log.info (fun m ->
      m "run %s/%s: %d peers (%d members), %d keys, fQry=%g, %.0fs" scenario.Scenario.name
        (Strategy.label strategy) scenario.Scenario.num_peers active_members
        scenario.Scenario.keys scenario.Scenario.f_qry scenario.Scenario.duration);
  let config =
    Config.make ~backend:options.backend ~num_peers:scenario.Scenario.num_peers ~active_members
      ~keys:scenario.Scenario.keys ~repl:options.repl ~stor:options.stor ~strategy ()
  in
  let pdht = Pdht.create ~obs ?net:net_hook ?transport build_rng config in
  (* Live routing tables (opt-in, Kademlia only): self-healing k-buckets
     plus a periodic bucket-refresh sweep.  Enabling consumes no RNG, so
     [bucket_refresh = None] runs stay byte-identical to the frozen
     tables. *)
  (match options.bucket_refresh with
  | None -> ()
  | Some r ->
      if options.backend <> Pdht_dht.Dht.Kademlia_backend then
        invalid_arg "System.run: bucket_refresh requires the Kademlia backend";
      if not (r > 0.) then invalid_arg "System.run: bucket_refresh must be positive";
      let probe_retries =
        Pdht_net.Config.attempts
          (match options.net with Some cfg -> cfg | None -> Pdht_net.Config.default)
        - 1
      in
      Pdht_dht.Dht.enable_live_routing ~probe_retries (Pdht.dht pdht));
  let engine = Engine.create () in
  Engine.instrument engine obs.Obs.registry;
  (* Snapshots also drive the tracer's registered flushers, so schedule
     them whenever either consumer exists. *)
  if
    Pdht_obs.Tracer.enabled obs.Obs.tracer
    || Pdht_obs.Tracer.has_flushers obs.Obs.tracer
  then Engine.emit_snapshots engine ~every:options.sample_every ~tracer:obs.Obs.tracer;
  let churn = build_churn scenario churn_rng in
  Pdht_dht.Churn.instrument churn obs;
  Pdht_dht.Churn.attach churn engine;
  (* Liveness = churn AND not crashed.  The [None] arm keeps the exact
     pre-fault closure (a partial application of [Churn.online]), so
     fault-free runs execute the same code path as before the fault
     subsystem existed. *)
  let online_peer =
    match injector with
    | None -> Pdht_dht.Churn.online churn
    | Some (inj, _, _) ->
        fun p ->
          Pdht_dht.Churn.online churn p
          && not (Pdht_fault.Injector.crashed inj p)
          && not (Pdht_fault.Injector.plan_offline inj p)
  in
  Pdht.set_online pdht online_peer;
  (* Anti-entropy: under the index-everything baseline, a DHT member
     returning from an offline session pulls missed updates from its
     replica subnetworks ([DaHa03]). *)
  (match strategy with
  | Strategy.Index_all ->
      Pdht_dht.Churn.on_toggle churn (fun ~peer ~now_online ~time ->
          if now_online && peer < active_members then
            ignore (Pdht.rejoin_sync pdht churn_rng ~now:time ~peer))
  | Strategy.No_index | Strategy.Partial_index _ -> ());
  let online_member p = p < active_members && online_peer p in
  let uses_dht =
    match strategy with Strategy.No_index -> false | Strategy.Index_all | Strategy.Partial_index _ -> true
  in
  if uses_dht then begin
    let env =
      Pdht_dht.Maintenance.env_from_trace ~maintenance_rate:1.0 ~members:(max 2 active_members)
    in
    Pdht_dht.Maintenance.attach ~obs ?refresh_every:options.bucket_refresh engine
      ~dht:(Pdht.dht pdht) ~rng:maintenance_rng ~online:online_member
      ~metrics:(Pdht.metrics pdht) ~env ~interval:10.
  end;
  (* Adaptive TTL controller (extension). *)
  let adaptive =
    if
      Psel.equal options.selection_policy (Psel.Ttl Psel.Adaptive)
      && Strategy.is_partial strategy
    then begin
      let controller = Adaptive.create () in
      Adaptive.attach controller engine pdht ~every:(10. *. options.sample_every);
      Some controller
    end
    else None
  in
  (* Cost-optimal selection (extension): [Ttl _] runs install no
     selector and keep the exact pre-policy code path, so their reports
     stay byte-identical.  The selector draws no randomness, preserving
     the determinism contract. *)
  let selector =
    match options.selection_policy with
    | Psel.Cost_optimal when Strategy.is_partial strategy ->
        let retune_every = 5. *. options.sample_every in
        let sel =
          Cost.create ~params:(model_params scenario options)
            ~base_ttl:(Pdht.key_ttl pdht) ~retune_every
        in
        Pdht.set_selector pdht sel;
        Engine.schedule_periodic engine ~first:retune_every ~every:retune_every
          (fun eng -> Cost.retune sel ~now:(Engine.now eng));
        Some sel
    | Psel.Cost_optimal | Psel.Ttl _ -> None
  in
  let counters =
    {
      queries = 0;
      from_index = 0;
      from_broadcast = 0;
      failed = 0;
      bucket_queries = 0;
      bucket_hits = 0;
      bucket_answered = 0;
      last_total_messages = 0;
      samples_rev = [];
    }
  in
  (* Optional windowed timeline: per-window workload counters plus an
     indexed-keys gauge.  Slots are pre-resolved once — the per-query
     feed must not pay a string lookup. *)
  let timeline =
    match options.timeline_window with
    | None -> None
    | Some width ->
        let tl =
          Pdht_obs.Timeline.create ~width
            ~series:
              [ "queries"; "hits"; "answered"; "messages"; "latency_ms";
                "indexed_keys" ]
        in
        let id = Pdht_obs.Timeline.series_id tl in
        Some
          ( tl,
            ( id "queries", id "hits", id "answered", id "messages",
              id "latency_ms", id "indexed_keys" ) )
  in
  (* Query workload. *)
  let query_gen =
    Pdht_work.Query_gen.create workload_rng ~num_peers:scenario.Scenario.num_peers
      ~f_qry:scenario.Scenario.f_qry
      ~profile:(Scenario.rate_profile scenario)
      ~distribution:(Scenario.distribution scenario)
      ~shift:(Scenario.popularity_shift scenario)
      ()
  in
  Pdht_work.Query_gen.attach query_gen engine ~until:scenario.Scenario.duration
    ~handler:(fun eng ~peer ~key_index ~rank:_ ->
      (* An offline peer issues no queries: the per-peer rate is an
         online activity, so drop the event rather than counting a
         phantom failure. *)
      if online_peer peer then begin
      let now = Engine.now eng in
      let result = Pdht.query pdht ~now ~peer ~key_index in
      counters.queries <- counters.queries + 1;
      counters.bucket_queries <- counters.bucket_queries + 1;
      (match result.Pdht.source with
      | Pdht.From_index ->
          counters.from_index <- counters.from_index + 1;
          counters.bucket_hits <- counters.bucket_hits + 1;
          counters.bucket_answered <- counters.bucket_answered + 1
      | Pdht.From_broadcast ->
          counters.from_broadcast <- counters.from_broadcast + 1;
          counters.bucket_answered <- counters.bucket_answered + 1
      | Pdht.Not_found -> counters.failed <- counters.failed + 1);
      (match timeline with
      | None -> ()
      | Some (tl, (s_q, s_h, s_a, s_m, s_l, _)) ->
          Pdht_obs.Timeline.add tl ~now s_q 1.;
          (match result.Pdht.source with
          | Pdht.From_index ->
              Pdht_obs.Timeline.add tl ~now s_h 1.;
              Pdht_obs.Timeline.add tl ~now s_a 1.
          | Pdht.From_broadcast -> Pdht_obs.Timeline.add tl ~now s_a 1.
          | Pdht.Not_found -> ());
          Pdht_obs.Timeline.add tl ~now s_m
            (float_of_int (Pdht.total_messages result));
          (match net_hook with
          | Some h ->
              Pdht_obs.Timeline.add tl ~now s_l (1000. *. Pdht_net.Hook.elapsed h)
          | None -> ()));
      (match adaptive with
      | Some controller -> Adaptive.note_query controller result
      | None -> ());
      match selector with
      | Some sel -> Cost.observe sel ~now ~key_index Psel.Queried
      | None -> ()
      end);
  (* Update workload (article replacements). *)
  (match scenario.Scenario.update_mean_lifetime with
  | None -> ()
  | Some mean_lifetime ->
      let update_gen =
        Pdht_work.Update_gen.create update_rng ~articles:scenario.Scenario.keys
          ~mean_lifetime
      in
      Pdht_work.Update_gen.attach update_gen engine ~until:scenario.Scenario.duration
        ~handler:(fun eng ~article_id ->
          let now = Engine.now eng in
          ignore (Pdht.update_key pdht update_rng ~now ~key_index:article_id)));
  (* Periodic sampling of hit rate, traffic and index size. *)
  Engine.schedule_periodic engine ~first:options.sample_every ~every:options.sample_every
    (fun eng ->
      let now = Engine.now eng in
      let total = Metrics.total (Pdht.metrics pdht) in
      let bucket_messages = total - counters.last_total_messages in
      counters.last_total_messages <- total;
      let hit_rate =
        if counters.bucket_queries = 0 then 0.
        else float_of_int counters.bucket_hits /. float_of_int counters.bucket_queries
      in
      let indexed_keys = if uses_dht then Pdht.indexed_key_count pdht ~now else 0 in
      (match timeline with
      | None -> ()
      | Some (tl, (_, _, _, _, _, s_ik)) ->
          Pdht_obs.Timeline.set tl ~now s_ik (float_of_int indexed_keys));
      let answer_rate =
        if counters.bucket_queries = 0 then 0.
        else float_of_int counters.bucket_answered /. float_of_int counters.bucket_queries
      in
      counters.samples_rev <-
        { time = now; hit_rate; messages = bucket_messages; indexed_keys;
          key_ttl = Pdht.key_ttl pdht; queries = counters.bucket_queries; answer_rate }
        :: counters.samples_rev;
      counters.bucket_queries <- 0;
      counters.bucket_hits <- 0;
      counters.bucket_answered <- 0);
  (* Fault injection: wire the plan's consequences to the PDHT state and
     schedule everything on the engine.  The invariant sweep fails fast
     through [Engine.Handler_failed], carrying the simulated time and
     the ["fault:check"] label to the experiment runner. *)
  (match injector with
  | None -> ()
  | Some (inj, fault_rng, plan) ->
      let registry = obs.Obs.registry in
      let c_entries_lost = Registry.counter registry "fault.entries_lost" in
      let c_content_lost = Registry.counter registry "fault.content_lost" in
      let c_repair_messages = Registry.counter registry "fault.repair_messages" in
      let c_repaired_items = Registry.counter registry "fault.repaired_items" in
      let c_repaired_entries = Registry.counter registry "fault.repaired_entries" in
      let min_fraction =
        match plan.Pdht_fault.Plan.repair with
        | Some r -> r.Pdht_fault.Plan.min_fraction
        | None -> 0.5 (* unused: repair is only scheduled when enabled *)
      in
      let check ~now =
        let fail fmt =
          Printf.ksprintf (fun msg -> failwith ("fault invariant violated: " ^ msg)) fmt
        in
        for p = 0 to active_members - 1 do
          let live = Pdht.store_live_count pdht ~now ~peer:p in
          if live > options.stor then
            fail "member %d holds %d live entries, over stor=%d" p live options.stor;
          if Pdht_fault.Injector.crashed inj p then begin
            if live > 0 then fail "crashed member %d still holds %d index entries" p live;
            if online_peer p then fail "crashed peer %d passes the online predicate" p
          end
        done;
        for key_index = 0 to scenario.Scenario.keys - 1 do
          Array.iter
            (fun peer ->
              if Pdht_fault.Injector.crashed inj peer then
                fail "crashed peer %d still replicates key %d" peer key_index)
            (Pdht.content_replicas pdht ~key_index)
        done
      in
      let actions =
        {
          Pdht_fault.Injector.crash =
            (fun ~peer ~now ->
              let entries, content = Pdht.crash_peer pdht ~peer ~now in
              Registry.incr c_entries_lost entries;
              Registry.incr c_content_lost content);
          recover = (fun ~peer ~now:_ -> ignore (Pdht.recover_peer pdht fault_rng ~peer));
          repair =
            (fun ~span ~now ->
              let messages, items, entries =
                Pdht.repair_pass ?span pdht fault_rng ~now ~min_fraction
              in
              Registry.incr c_repair_messages messages;
              Registry.incr c_repaired_items items;
              Registry.incr c_repaired_entries entries);
          check = (fun ~now -> check ~now);
        }
      in
      Pdht_fault.Injector.attach inj engine actions);
  Engine.run engine ~until:scenario.Scenario.duration;
  Log.info (fun m ->
      m "done %s/%s: %d queries, %d total messages" scenario.Scenario.name
        (Strategy.label strategy) counters.queries
        (Metrics.total (Pdht.metrics pdht)));
  let now = scenario.Scenario.duration in
  let metrics = Pdht.metrics pdht in
  let total_messages = Metrics.total metrics in
  let answered = counters.from_index + counters.from_broadcast in
  let registry = obs.Obs.registry in
  (* Per-query cost quantiles come from the streaming histogram Pdht
     fills — O(1) memory instead of the old per-query cost list. *)
  let cost_percentile =
    match Registry.find_histogram registry "query.cost" with
    | Some h when Histogram.count h > 0 -> fun p -> Histogram.quantile h p
    | _ -> fun _ -> 0.
  in
  let hist_mean name =
    match Registry.find_histogram registry name with
    | Some h when Histogram.count h > 0 -> Histogram.mean h
    | _ -> 0.
  in
  let solution = Pdht_model.Index_policy.solve (model_params scenario options) in
  (* The engine's wall-clock throughput histogram measures the host, not
     the simulation: it is the one registry instrument that legitimately
     varies between runs (and between jobs counts).  Keeping it out of
     the report preserves the contract that reports are a pure function
     of (scenario, strategy, options); it stays in the registry for
     telemetry export. *)
  let histograms =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Registry.Histogram_v s
          when s.Histogram.count > 0 && name <> "engine.sim_seconds_per_wall_second" ->
            Some (name, s)
        | _ -> None)
      (Registry.snapshot registry)
  in
  let net_summary =
    match net_hook with
    | None -> None
    | Some _ ->
        let c name =
          match Registry.counter_value_by_name registry name with Some v -> v | None -> 0
        in
        let latency_q p =
          (* The histogram records milliseconds (sub-second values
             would collapse into the sketch's [0,1) bucket); the
             summary reports seconds. *)
          match Registry.find_histogram registry "net.query_latency_ms" with
          | Some h when Histogram.count h > 0 -> Histogram.quantile h p /. 1000.
          | _ -> 0.
        in
        Some
          {
            messages_sent = c "net.messages_sent";
            messages_dropped = c "net.messages_dropped";
            messages_retried = c "net.messages_retried";
            messages_timed_out = c "net.messages_timed_out";
            latency_p50 = latency_q 0.5;
            latency_p95 = latency_q 0.95;
            latency_p99 = latency_q 0.99;
          }
  in
  let fault_summary =
    match injector with
    | None -> None
    | Some (inj, _, _) ->
        let c name =
          match Registry.counter_value_by_name registry name with Some v -> v | None -> 0
        in
        (* Recovery is read off a per-bucket service-rate time series:
           the mean rate before the first fault is the baseline, the
           post-fault minimum is the dip, and the system has recovered
           at the first post-fault sample back within 5% of the
           baseline.  For index strategies the rate is the bucket
           hit rate — the empirical pIndxd, which is what a crash
           actually damages (the broadcast fallback masks moderate
           crashes in the plain answer rate); under [No_index] the
           answer rate is the only signal.  Only buckets that saw
           queries vote — an idle bucket's 0/0 is not an outage. *)
        let rate =
          match strategy with
          | Strategy.No_index -> fun (s : sample) -> s.answer_rate
          | Strategy.Partial_index _ | Strategy.Index_all ->
              fun (s : sample) -> s.hit_rate
        in
        let samples = List.rev counters.samples_rev in
        let voting = List.filter (fun (s : sample) -> s.queries > 0) samples in
        let mean = function
          | [] -> 1.
          | l ->
              List.fold_left (fun acc s -> acc +. rate s) 0. l
              /. float_of_int (List.length l)
        in
        let pre, dip, time_to_recover =
          match Pdht_fault.Injector.first_fault_time inj with
          | None ->
              let pre = mean voting in
              (pre, pre, Some 0.)
          | Some fault_time ->
              let before = List.filter (fun s -> s.time <= fault_time) voting in
              let after = List.filter (fun s -> s.time > fault_time) voting in
              (* Steady state, not whole history: the index starts empty,
                 so early buckets would drag the baseline below what the
                 fault actually disrupts.  Use the later half of the
                 pre-fault buckets. *)
              let before =
                let n = List.length before in
                List.filteri (fun i _ -> i >= n / 2) before
              in
              let pre = if before = [] then 1. else mean before in
              let dip =
                List.fold_left (fun acc s -> Float.min acc (rate s))
                  (if after = [] then pre else Float.infinity)
                  after
              in
              let rec recovered_at = function
                | [] -> None
                | s :: rest ->
                    if rate s >= 0.95 *. pre then Some (s.time -. fault_time)
                    else recovered_at rest
              in
              (pre, dip, recovered_at after)
        in
        Some
          {
            crashes = c "fault.crashes";
            recoveries = c "fault.recoveries";
            entries_lost = c "fault.entries_lost";
            content_lost = c "fault.content_lost";
            repair_passes = c "fault.repair_passes";
            repair_messages = c "fault.repair_messages";
            repaired_items = c "fault.repaired_items";
            repaired_entries = c "fault.repaired_entries";
            pre_fault_rate = pre;
            dip_rate = dip;
            time_to_recover;
          }
  in
  {
    scenario_name = scenario.Scenario.name;
    strategy;
    duration = scenario.Scenario.duration;
    active_members;
    key_ttl = Pdht.key_ttl pdht;
    queries = counters.queries;
    answered;
    from_index = counters.from_index;
    from_broadcast = counters.from_broadcast;
    failed = counters.failed;
    total_messages;
    messages_by_category = Metrics.snapshot metrics;
    messages_per_second = float_of_int total_messages /. scenario.Scenario.duration;
    avg_messages_per_query =
      (if counters.queries = 0 then 0.
       else float_of_int total_messages /. float_of_int counters.queries);
    hit_rate =
      (if counters.queries = 0 then 0.
       else float_of_int counters.from_index /. float_of_int counters.queries);
    indexed_keys_final = (if uses_dht then Pdht.indexed_key_count pdht ~now else 0);
    query_cost_p50 = cost_percentile 0.5;
    query_cost_p95 = cost_percentile 0.95;
    query_cost_p99 = cost_percentile 0.99;
    c_s_indx_model = solution.Pdht_model.Index_policy.c_s_indx;
    c_s_indx_measured = hist_mean "index.search_cost";
    c_s_unstr_model = solution.Pdht_model.Index_policy.c_s_unstr;
    c_s_unstr_measured = hist_mean "broadcast.reach";
    histograms;
    net = net_summary;
    fault = fault_summary;
    policy = Option.map Cost.summary selector;
    timeline = Option.map (fun (tl, _) -> Pdht_obs.Timeline.summary tl) timeline;
    samples = List.rev counters.samples_rev;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s / %s: %d queries in %.0fs, %d answered (%.1f%% index, %.1f%% broadcast, %d \
     failed)@,members=%d keyTtl=%g indexed=%d@,messages: total=%d (%.1f/s, %.1f/query)@,"
    r.scenario_name (Strategy.label r.strategy) r.queries r.duration r.answered
    (100. *. float_of_int r.from_index /. float_of_int (max 1 r.queries))
    (100. *. float_of_int r.from_broadcast /. float_of_int (max 1 r.queries))
    r.failed r.active_members r.key_ttl r.indexed_keys_final r.total_messages
    r.messages_per_second r.avg_messages_per_query;
  Format.fprintf ppf "  per-query cost p50/p95/p99: %.0f / %.0f / %.0f@," r.query_cost_p50
    r.query_cost_p95 r.query_cost_p99;
  (* Measured-vs-model search costs: Eq. 7 (cSIndx) and Eq. 6 (cSUnstr). *)
  Format.fprintf ppf
    "  cSIndx  measured %.1f vs model %.1f@,  cSUnstr measured %.1f vs model %.1f@,"
    r.c_s_indx_measured r.c_s_indx_model r.c_s_unstr_measured r.c_s_unstr_model;
  (match r.net with
  | None -> ()
  | Some n ->
      Format.fprintf ppf
        "  net: sent=%d dropped=%d retried=%d timed_out=%d latency p50/p95/p99 = \
         %.4f / %.4f / %.4f s@,"
        n.messages_sent n.messages_dropped n.messages_retried n.messages_timed_out
        n.latency_p50 n.latency_p95 n.latency_p99);
  (match r.fault with
  | None -> ()
  | Some f ->
      Format.fprintf ppf
        "  fault: crashes=%d recoveries=%d entries_lost=%d content_lost=%d@,  repair: \
         passes=%d messages=%d items=%d entries=%d@,  service rate: pre-fault %.3f, dip \
         %.3f, recovered %s@,"
        f.crashes f.recoveries f.entries_lost f.content_lost f.repair_passes
        f.repair_messages f.repaired_items f.repaired_entries f.pre_fault_rate
        f.dip_rate
        (match f.time_to_recover with
        | Some t -> Printf.sprintf "after %.0fs" t
        | None -> "never"));
  (match r.policy with
  | None -> ()
  | Some p ->
      Format.fprintf ppf
        "  policy: %s retunes=%d observed=%d admitted=%d rejected=%d target=%s \
         estFQry=%g threshold=%g@,"
        p.Psel.policy p.Psel.retunes p.Psel.observed_queries p.Psel.admitted_inserts
        p.Psel.rejected_inserts
        (if p.Psel.target_keys < 0 then "all" else string_of_int p.Psel.target_keys)
        p.Psel.est_f_qry p.Psel.threshold);
  (match r.timeline with
  | None -> ()
  | Some tl -> Format.fprintf ppf "  %a@," Pdht_obs.Timeline.pp tl);
  List.iter
    (fun (cat, n) ->
      if n > 0 then Format.fprintf ppf "  %-20s %d@," (Metrics.category_label cat) n)
    r.messages_by_category;
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "  %-28s %a@," name Histogram.pp_summary s)
    r.histograms;
  Format.fprintf ppf "@]"
