module Scenario = Pdht_work.Scenario
module Pool = Pdht_runner.Pool

(* Every System-level experiment below is one [Run_spec.t list] handed
   to [Runner.run_all ?jobs]; the row builders only reshape reports.
   Experiments whose rows need every report to exist treat a failed
   task as fatal ([Run_result.reports_exn]); [replicate_seeds] instead
   reports failures per spec. *)
let run_specs ?jobs specs = Run_result.reports_exn (Runner.run_all ?jobs specs)

type face_off_row = {
  f_qry : float;
  sim_index_all : float;
  sim_no_index : float;
  sim_partial : float;
  model_index_all : float;
  model_no_index : float;
  model_partial : float;
  sim_hit_rate : float;
  model_p_indexed_ttl : float;
}

let face_off ?jobs ?(options = System.default_options) ~scenario ~frequencies () =
  let specs =
    List.concat_map
      (fun f_qry ->
        let scenario = { scenario with Scenario.f_qry } in
        let key_ttl = System.derive_key_ttl scenario options in
        let spec = Run_spec.make ~options scenario in
        (* All three strategies share the spec's (seed, task_id), so
           each frequency is a paired comparison on one workload. *)
        [ Run_spec.with_strategy Strategy.Index_all spec;
          Run_spec.with_strategy Strategy.No_index spec;
          Run_spec.with_strategy (Strategy.Partial_index { key_ttl }) spec ])
      frequencies
  in
  let reports = run_specs ?jobs specs in
  let rec rows frequencies reports =
    match (frequencies, reports) with
    | [], [] -> []
    | f_qry :: frequencies, all :: none :: partial :: reports ->
        let scenario = { scenario with Scenario.f_qry } in
        let params = System.model_params scenario options in
        let key_ttl = System.derive_key_ttl scenario options in
        let ttl_state = Pdht_model.Strategies.ttl_state params ~key_ttl in
        {
          f_qry;
          sim_index_all = all.System.messages_per_second;
          sim_no_index = none.System.messages_per_second;
          sim_partial = partial.System.messages_per_second;
          model_index_all =
            (Pdht_model.Strategies.index_all params).Pdht_model.Strategies.total;
          model_no_index =
            (Pdht_model.Strategies.no_index params).Pdht_model.Strategies.total;
          model_partial =
            (Pdht_model.Strategies.partial_selection params ~key_ttl)
              .Pdht_model.Strategies.total;
          sim_hit_rate = partial.System.hit_rate;
          model_p_indexed_ttl = ttl_state.Pdht_model.Strategies.p_indexed_ttl;
        }
        :: rows frequencies reports
    | _ -> assert false
  in
  rows frequencies reports

type adaptivity_result = {
  shift_time : float;
  before_hit_rate : float;
  dip_hit_rate : float;
  after_hit_rate : float;
  recovery_seconds : float option;
  series : System.sample list;
}

let mean_hit_rate (samples : System.sample list) =
  match samples with
  | [] -> 0.
  | _ ->
      List.fold_left (fun acc (s : System.sample) -> acc +. s.System.hit_rate) 0. samples
      /. float_of_int (List.length samples)

let adaptivity ?jobs ?(options = System.default_options) ~scenario () =
  let shift_time =
    match scenario.Scenario.shift with
    | Scenario.Swap_halves_at t -> t
    | Scenario.Rotate { times = t :: _; _ } -> t
    | Scenario.Rotate { times = []; _ } | Scenario.No_shift ->
        invalid_arg "Experiment.adaptivity: scenario has no popularity shift"
  in
  let report =
    match run_specs ?jobs [ Run_spec.make ~options scenario ] with
    | [ r ] -> r
    | _ -> assert false
  in
  let samples = report.System.samples in
  let before = List.filter (fun s -> s.System.time <= shift_time) samples in
  let after = List.filter (fun s -> s.System.time > shift_time) samples in
  let before_hit_rate = mean_hit_rate before in
  (* Steady state after: the last quarter of the run. *)
  let tail_start = scenario.Scenario.duration -. (scenario.Scenario.duration -. shift_time) /. 4. in
  let after_hit_rate =
    mean_hit_rate (List.filter (fun s -> s.System.time >= tail_start) samples)
  in
  let dip_hit_rate =
    List.fold_left (fun acc (s : System.sample) -> Float.min acc s.System.hit_rate) 1. after
  in
  let recovery_threshold = 0.8 *. before_hit_rate in
  let recovery_seconds =
    let rec scan (samples : System.sample list) =
      match samples with
      | [] -> None
      | s :: rest ->
          if s.System.hit_rate >= recovery_threshold then
            Some (s.System.time -. shift_time)
          else scan rest
    in
    scan after
  in
  { shift_time; before_hit_rate; dip_hit_rate; after_hit_rate; recovery_seconds;
    series = samples }

type search_ablation_row = {
  graph : string;
  mechanism : string;
  mean_messages : float;
  success_rate : float;
  empirical_dup : float;
}

let search_ablation ?jobs ~seed ~peers ~repl ~trials () =
  if trials < 1 then invalid_arg "Experiment.search_ablation: need >= 1 trial";
  (* Shared, read-only fixture: topology and placement come from the
     base seed so every mechanism searches the same network. *)
  let rng = Pdht_util.Rng.create ~seed in
  let random = Pdht_overlay.Topology.random_regularish rng ~peers ~degree:4 in
  let replication = Pdht_overlay.Replication.create ~peers in
  let items = 100 in
  for item = 0 to items - 1 do
    Pdht_overlay.Replication.place replication rng ~item ~repl
  done;
  (* The second fixture: a power-law overlay over the same placement,
     grown by preferential attachment with 4 links per arriving peer,
     about the random graph's mean degree of 8. *)
  let power_law = Pdht_overlay.Topology.barabasi_albert rng ~peers ~attach:4 in
  let online _ = true in
  let run_mechanism task_id (graph, topology, mechanism) =
    (* Each mechanism draws its trials from its own derived stream, so
       the tasks are order- and domain-independent. *)
    let rng = Pdht_util.Rng.of_stream ~seed ~stream:task_id in
    let messages = ref 0 in
    let successes = ref 0 in
    let reached = ref 0 in
    for _ = 1 to trials do
      let item = Pdht_util.Rng.int rng items in
      let source = Pdht_util.Rng.int rng peers in
      let holds p = Pdht_overlay.Replication.holds replication ~peer:p ~item in
      match mechanism with
      | "flooding" ->
          let r = Pdht_overlay.Flood.search topology ~online ~holds ~source ~ttl:8 in
          messages := !messages + r.Pdht_overlay.Flood.messages;
          reached := !reached + r.Pdht_overlay.Flood.peers_reached;
          if r.Pdht_overlay.Flood.found_at <> None then incr successes
      | "expanding-ring" ->
          let r =
            Pdht_overlay.Expanding_ring.search topology ~online ~holds ~source
              ~initial_ttl:1 ~growth:2 ~max_ttl:8
          in
          messages := !messages + r.Pdht_overlay.Expanding_ring.messages;
          (* Rings revisit inner peers; count the final coverage as a
             flood of the last TTL would reach. *)
          reached := !reached + 1;
          if r.Pdht_overlay.Expanding_ring.found_at <> None then incr successes
      | _ ->
          let r =
            Pdht_overlay.Random_walk.search topology rng ~online
              ~holders:(Pdht_overlay.Replication.replicas replication ~item)
              ~source ~walkers:16 ~max_steps:(2 * peers) ~check_every:4
          in
          messages := !messages + r.Pdht_overlay.Random_walk.messages;
          reached := !reached + r.Pdht_overlay.Random_walk.distinct_visited;
          if r.Pdht_overlay.Random_walk.found_at <> None then incr successes
    done;
    {
      graph;
      mechanism;
      mean_messages = float_of_int !messages /. float_of_int trials;
      success_rate = float_of_int !successes /. float_of_int trials;
      empirical_dup =
        (if !reached = 0 || String.equal mechanism "expanding-ring" then Float.nan
         else float_of_int !messages /. float_of_int !reached);
    }
  in
  Pool.map_list ?jobs ~f:run_mechanism
    (List.concat_map
       (fun (graph, topology) ->
         List.map
           (fun mechanism -> (graph, topology, mechanism))
           [ "flooding"; "expanding-ring"; "random-walks" ])
       [ ("random", random); ("power-law", power_law) ])

type backend_ablation_row = {
  backend : string;
  mean_lookup_messages : float;
  mean_hops : float;
  model_expectation : float;
  success_rate : float;
}

let backend_ablation ?jobs ~seed ~members ~trials ~offline_fraction () =
  if trials < 1 then invalid_arg "Experiment.backend_ablation: need >= 1 trial";
  if offline_fraction < 0. || offline_fraction >= 1. then
    invalid_arg "Experiment.backend_ablation: offline_fraction in [0,1)";
  let run backend label =
    (* Every backend re-creates the RNG from the same seed: a paired
       comparison on identical outage patterns and key draws. *)
    let rng = Pdht_util.Rng.create ~seed in
    (* leaf_size 4 gives P-Grid its natural replica groups; singleton
       leaves cannot survive churn (Chord has no equivalent knob — its
       fault tolerance comes from successor responsibility). *)
    let dht = Pdht_dht.Dht.create rng ~backend ~members ~leaf_size:4 () in
    let offline = Array.init members (fun _ -> Pdht_util.Rng.unit_float rng < offline_fraction) in
    let online p = not offline.(p) in
    let messages = ref 0 in
    let hops = ref 0 in
    let successes = ref 0 in
    let attempted = ref 0 in
    for _ = 1 to trials do
      let source = Pdht_util.Rng.int rng members in
      if online source then begin
        incr attempted;
        let key = Pdht_util.Bitkey.random rng in
        let o = Pdht_dht.Dht.lookup dht rng ~online ~source ~key in
        messages := !messages + o.Pdht_dht.Dht.messages;
        hops := !hops + o.Pdht_dht.Dht.hops;
        if o.Pdht_dht.Dht.responsible <> None then incr successes
      end
    done;
    let attempted_f = float_of_int (max 1 !attempted) in
    {
      backend = label;
      mean_lookup_messages = float_of_int !messages /. attempted_f;
      mean_hops = float_of_int !hops /. attempted_f;
      model_expectation = Pdht_model.Cost.search_index ~num_active_peers:members;
      success_rate = float_of_int !successes /. attempted_f;
    }
  in
  Pool.map_list ?jobs
    ~f:(fun _ backend -> run backend (Pdht_dht.Dht.backend_label backend))
    [ Pdht_dht.Dht.Chord_backend; Pdht_dht.Dht.Pgrid_backend;
      Pdht_dht.Dht.Kademlia_backend; Pdht_dht.Dht.Pastry_backend ]

type churn_row = {
  availability : float;
  hit_rate : float;
  answer_rate : float;
  messages_per_second : float;
  indexed_keys : int;
}

let churn_sensitivity ?jobs ?(options = System.default_options) ~scenario ~availabilities
    () =
  let spec_of availability =
    if availability <= 0. || availability > 1. then
      invalid_arg "Experiment.churn_sensitivity: availability outside (0,1]";
    let scenario =
      {
        scenario with
        Scenario.churn =
          (if availability >= 1. then Scenario.No_churn
           else
             let mean_uptime = 600. in
             (* availability = up / (up + down)  =>  down = up (1-a)/a *)
             let mean_downtime = mean_uptime *. (1. -. availability) /. availability in
             Scenario.Exponential_sessions
               { mean_uptime; mean_downtime; initially_online_fraction = availability });
      }
    in
    let key_ttl = System.derive_key_ttl scenario options in
    Run_spec.make ~options
      ~tag:(Printf.sprintf "%s avail=%g" scenario.Scenario.name availability)
      ~strategy:(Strategy.Partial_index { key_ttl })
      scenario
  in
  let reports = run_specs ?jobs (List.map spec_of availabilities) in
  List.map2
    (fun availability report ->
      {
        availability;
        hit_rate = report.System.hit_rate;
        answer_rate =
          float_of_int report.System.answered /. float_of_int (max 1 report.System.queries);
        messages_per_second = report.System.messages_per_second;
        indexed_keys = report.System.indexed_keys_final;
      })
    availabilities reports

type churn_routing_row = {
  mean_session : float;
  arm : string;
  attempted : int;
  success_rate : float;
  mean_hops : float;
  stale_route_rate : float;
  maintenance_messages : int;
  crtn : float;
}

(* E26: sustained-churn routing race — living vs frozen k-buckets.

   A raw-Kademlia experiment in the style of [backend_ablation]: no
   PDHT layer, so routing quality is isolated from index behaviour.
   Per decade of mean session length, three arms replay the same
   paired-seed table build, churn trajectory and workload:

   - [baseline]: no churn, frozen tables — the success ceiling;
   - [live]: heavy-tailed (Weibull shape 0.6) session churn against
     living k-buckets, maintained at the paper's one probe per peer
     per second plus a periodic bucket-refresh sweep; every probe
     ladder is counted;
   - [frozen]: the same churn against the static tables, with a probe
     budget allotted tick by tick from the live arm's *measured* total
     — equal maintenance spend, so the race compares disciplines, not
     budgets.

   Maintenance totals divided by (members x duration) give the
   per-peer-per-second routing upkeep rate — the empirical cRtn the
   analytical model only assumes (paper Section 3.3.1). *)
let churn_routing ?jobs ~seed ~members ~duration ~mean_sessions () =
  if members < 8 then invalid_arg "Experiment.churn_routing: need >= 8 members";
  if not (duration > 0. && Float.is_finite duration) then
    invalid_arg "Experiment.churn_routing: duration must be positive";
  let module K = Pdht_dht.Kademlia in
  let module S = Pdht_dist.Session in
  let ticks = int_of_float (Float.ceil duration) in
  let lookups_per_tick = max 1 (members / 50) in
  let refresh_every = 30 in
  let session_spec mean_session =
    {
      S.up = S.Weibull { shape = 0.6 };
      down = S.Weibull { shape = 0.6 };
      mean_uptime = mean_session;
      mean_downtime = mean_session /. 2.;
      initially_online_fraction = 2. /. 3.;
    }
  in
  let run_decade idx mean_session =
    if not (mean_session > 0. && Float.is_finite mean_session) then
      invalid_arg "Experiment.churn_routing: mean sessions must be positive";
    let spec = session_spec mean_session in
    (* Per-decade deterministic sub-seeds: every arm rebuilds the same
       table and replays the same churn trajectory and query stream. *)
    let sub role = Pdht_util.Rng.derive_seed ~seed ~stream:((idx * 8) + role) in
    (* [churned = false] -> the no-churn baseline (no maintenance);
       [budget = None]  -> living tables at 1 probe/peer/s;
       [budget = Some total] -> frozen tables on that equalised spend. *)
    let run_arm ~arm ~churned ~budget =
      let build_rng = Pdht_util.Rng.create ~seed:(sub 0) in
      let churn_rng = Pdht_util.Rng.create ~seed:(sub 1) in
      (* Sources and keys come from [work_rng] only, so arms that
         disagree on routing state still replay the identical query
         sequence. *)
      let work_rng = Pdht_util.Rng.create ~seed:(sub 2) in
      let maint_rng = Pdht_util.Rng.create ~seed:(sub 3) in
      let dht = K.create build_rng ~members ~bucket_size:8 () in
      if churned && budget = None then K.enable_live_routing dht;
      let online_now = Array.make members true in
      let next_toggle = Array.make members Float.infinity in
      let draw_session p =
        if online_now.(p) then S.draw churn_rng spec.S.up ~mean:spec.S.mean_uptime
        else S.draw churn_rng spec.S.down ~mean:spec.S.mean_downtime
      in
      if churned then
        for p = 0 to members - 1 do
          online_now.(p) <-
            Pdht_util.Rng.bernoulli churn_rng ~p:spec.S.initially_online_fraction;
          next_toggle.(p) <- draw_session p
        done;
      let online p = online_now.(p) in
      let attempted = ref 0 and successes = ref 0 and hops = ref 0 in
      let maintenance = ref 0 in
      for tick = 0 to ticks - 1 do
        let now = float_of_int (tick + 1) in
        if churned then
          for p = 0 to members - 1 do
            while next_toggle.(p) <= now do
              let due = next_toggle.(p) in
              online_now.(p) <- not online_now.(p);
              next_toggle.(p) <- due +. draw_session p
            done
          done;
        (match budget with
        | None ->
            if churned then begin
              for p = 0 to members - 1 do
                if online_now.(p) then
                  maintenance :=
                    !maintenance + K.probe_and_repair dht maint_rng ~online ~peer:p ~probes:1
              done;
              if (tick + 1) mod refresh_every = 0 then
                maintenance := !maintenance + K.refresh_sweep dht maint_rng ~online
            end
        | Some total ->
            (* Spend the equalised total linearly: by the end of tick k
               the arm has sent (k+1)/ticks of it, one probe at a time
               round-robin over the online members. *)
            let due = total * (tick + 1) / ticks in
            let owed = ref (due - !maintenance) in
            let p = ref 0 and scanned = ref 0 in
            while !owed > 0 && !scanned < 4 * members do
              if online_now.(!p) then begin
                let sent = K.probe_and_repair dht maint_rng ~online ~peer:!p ~probes:1 in
                maintenance := !maintenance + sent;
                owed := !owed - sent
              end;
              incr scanned;
              p := (!p + 1) mod members
            done);
        for _ = 1 to lookups_per_tick do
          let source = Pdht_util.Rng.int work_rng members in
          let key = Pdht_util.Bitkey.random work_rng in
          if online_now.(source) then begin
            incr attempted;
            let o = K.lookup dht ~online ~source ~key in
            hops := !hops + o.K.hops;
            if o.K.responsible <> None then incr successes
          end
        done
      done;
      let contacts, dead = K.contact_stats dht in
      let attempted_f = float_of_int (max 1 !attempted) in
      {
        mean_session;
        arm;
        attempted = !attempted;
        success_rate = float_of_int !successes /. attempted_f;
        mean_hops = float_of_int !hops /. attempted_f;
        stale_route_rate = float_of_int dead /. float_of_int (max 1 contacts);
        maintenance_messages = !maintenance;
        crtn = float_of_int !maintenance /. (float_of_int members *. duration);
      }
    in
    let baseline = run_arm ~arm:"baseline" ~churned:false ~budget:None in
    let live = run_arm ~arm:"live" ~churned:true ~budget:None in
    let frozen =
      run_arm ~arm:"frozen" ~churned:true ~budget:(Some live.maintenance_messages)
    in
    [ baseline; live; frozen ]
  in
  List.concat (Pool.map_list ?jobs ~f:run_decade mean_sessions)

type workload_row = {
  workload : string;
  hit_rate : float;
  messages_per_second : float;
  indexed_fraction : float;
}

let workload_mix ?jobs ?(options = System.default_options) ~scenario () =
  let keys = scenario.Scenario.keys in
  let variants =
    [
      ("uniform", Scenario.Uniform);
      ("zipf(0.8)", Scenario.Zipf 0.8);
      ("zipf(1.2)", Scenario.Zipf 1.2);
      ( "hot-cold(5%,90%)",
        Scenario.Hot_cold { hot = max 1 (keys / 20); hot_mass = 0.9 } );
    ]
  in
  let spec_of (workload, distribution) =
    let scenario = { scenario with Scenario.distribution } in
    let key_ttl = System.derive_key_ttl scenario options in
    Run_spec.make ~options
      ~tag:(scenario.Scenario.name ^ "/" ^ workload)
      ~strategy:(Strategy.Partial_index { key_ttl })
      scenario
  in
  let reports = run_specs ?jobs (List.map spec_of variants) in
  List.map2
    (fun (workload, _) report ->
      {
        workload;
        hit_rate = report.System.hit_rate;
        messages_per_second = report.System.messages_per_second;
        indexed_fraction =
          float_of_int report.System.indexed_keys_final /. float_of_int keys;
      })
    variants reports

type replication_stats = {
  runs : int;
  mean_messages_per_second : float;
  sd_messages_per_second : float;
  mean_hit_rate : float;
  sd_hit_rate : float;
  failures : (string * string) list;
}

let replicate_seeds ?jobs ?(options = System.default_options) ~scenario ~strategy ~seeds
    () =
  if seeds = [] then invalid_arg "Experiment.replicate_seeds: no seeds";
  let specs =
    Run_spec.over_seeds seeds (Run_spec.make ~options ~strategy scenario)
  in
  let results = Runner.run_all ?jobs specs in
  let reports =
    List.filter_map (fun (_, outcome) -> Result.to_option outcome) results
  in
  let msgs = Array.of_list (List.map (fun r -> r.System.messages_per_second) reports) in
  let hits = Array.of_list (List.map (fun r -> r.System.hit_rate) reports) in
  {
    runs = List.length reports;
    mean_messages_per_second = Pdht_util.Stats.mean msgs;
    sd_messages_per_second = Pdht_util.Stats.stddev msgs;
    mean_hit_rate = Pdht_util.Stats.mean hits;
    sd_hit_rate = Pdht_util.Stats.stddev hits;
    failures = Run_result.failures results;
  }

type backend_system_row = {
  backend_name : string;
  hit_rate : float;
  messages_per_second : float;
  answer_rate : float;
  index_messages : int;
  replica_flood_messages : int;
}

let backend_face_off ?jobs ?(options = System.default_options) ~scenario () =
  let backends =
    [ Pdht_dht.Dht.Chord_backend; Pdht_dht.Dht.Pgrid_backend;
      Pdht_dht.Dht.Kademlia_backend; Pdht_dht.Dht.Pastry_backend ]
  in
  let spec_of backend =
    let options = { options with System.backend } in
    let key_ttl = System.derive_key_ttl scenario options in
    Run_spec.make ~options
      ~tag:(scenario.Scenario.name ^ "/" ^ Pdht_dht.Dht.backend_label backend)
      ~strategy:(Strategy.Partial_index { key_ttl })
      scenario
  in
  let reports = run_specs ?jobs (List.map spec_of backends) in
  List.map2
    (fun backend report ->
      {
        backend_name = Pdht_dht.Dht.backend_label backend;
        hit_rate = report.System.hit_rate;
        messages_per_second = report.System.messages_per_second;
        answer_rate =
          float_of_int report.System.answered /. float_of_int (max 1 report.System.queries);
        index_messages =
          List.assoc Pdht_sim.Metrics.Query_index report.System.messages_by_category;
        replica_flood_messages =
          List.assoc Pdht_sim.Metrics.Replica_flood report.System.messages_by_category;
      })
    backends reports

type diurnal_result = {
  busy_indexed_mean : float;
  calm_indexed_mean : float;
  busy_hit_rate : float;
  calm_hit_rate : float;
  series : System.sample list;
}

let diurnal ?jobs ?(options = System.default_options) ~scenario ~calm_f_qry ~period () =
  let scenario =
    {
      scenario with
      Scenario.rate = Scenario.Diurnal { calm_f_qry; period; busy_fraction = 0.5 };
    }
  in
  (* Derive the TTL from the geometric mean of the two rates so neither
     phase dominates the choice. *)
  let mid_rate = sqrt (scenario.Scenario.f_qry *. calm_f_qry) in
  let ttl_scenario = { scenario with Scenario.f_qry = mid_rate; rate = Scenario.Steady } in
  let key_ttl = System.derive_key_ttl ttl_scenario options in
  let report =
    match
      run_specs ?jobs
        [ Run_spec.make ~options ~strategy:(Strategy.Partial_index { key_ttl }) scenario ]
    with
    | [ r ] -> r
    | _ -> assert false
  in
  let phase_of (s : System.sample) =
    let p = Float.rem s.System.time period /. period in
    if p < 0.5 then `Busy else `Calm
  in
  (* Skip the first period as warm-up. *)
  let steady =
    List.filter (fun (s : System.sample) -> s.System.time > period) report.System.samples
  in
  let busy = List.filter (fun s -> phase_of s = `Busy) steady in
  let calm = List.filter (fun s -> phase_of s = `Calm) steady in
  let mean f xs =
    match xs with
    | [] -> 0.
    | _ -> List.fold_left (fun acc x -> acc +. f x) 0. xs /. float_of_int (List.length xs)
  in
  {
    busy_indexed_mean = mean (fun (s : System.sample) -> float_of_int s.System.indexed_keys) busy;
    calm_indexed_mean = mean (fun (s : System.sample) -> float_of_int s.System.indexed_keys) calm;
    busy_hit_rate = mean (fun (s : System.sample) -> s.System.hit_rate) busy;
    calm_hit_rate = mean (fun (s : System.sample) -> s.System.hit_rate) calm;
    series = report.System.samples;
  }

type policy_race_row = {
  policy_label : string;
  hit_rate : float;
  messages_per_second : float;
  post_shift_cost : float;
  post_shift_hit_rate : float;
  rejected_inserts : int;
  indexed_keys_final : int;
}

(* E23: race selection policies on one workload.  Every policy gets the
   same (scenario, seed), so the comparison is paired; the post-shift
   window isolates how fast each policy re-learns the new demand.  The
   per-second message total over that window is the empirical analogue
   of the paper's Eq. 17 total cost (maintenance + index search +
   broadcast search), which is exactly what the selection policy is
   trying to minimise. *)
let policy_race ?jobs ?(options = System.default_options) ~scenario ~policies () =
  if policies = [] then invalid_arg "Experiment.policy_race: no policies";
  let shift_time =
    match scenario.Scenario.shift with
    | Scenario.Swap_halves_at t -> t
    | Scenario.Rotate { times = t :: _; _ } -> t
    | Scenario.Rotate { times = []; _ } | Scenario.No_shift -> 0.
  in
  let spec_of policy =
    let options = { options with System.selection_policy = policy } in
    let key_ttl = System.derive_key_ttl scenario options in
    Run_spec.make ~options
      ~tag:(scenario.Scenario.name ^ "/policy-" ^ Pdht_policy.Selector.label policy)
      ~strategy:(Strategy.Partial_index { key_ttl })
      scenario
  in
  let reports = run_specs ?jobs (List.map spec_of policies) in
  List.map2
    (fun policy report ->
      let post =
        List.filter (fun (s : System.sample) -> s.System.time > shift_time)
          report.System.samples
      in
      let post_seconds =
        match post with
        | [] -> 0.
        | _ -> scenario.Scenario.duration -. shift_time
      in
      let post_messages =
        List.fold_left (fun acc (s : System.sample) -> acc + s.System.messages) 0 post
      in
      (* Query-weighted hit rate: idle buckets should not vote. *)
      let post_queries =
        List.fold_left (fun acc (s : System.sample) -> acc + s.System.queries) 0 post
      in
      let post_hits =
        List.fold_left
          (fun acc (s : System.sample) ->
            acc +. (s.System.hit_rate *. float_of_int s.System.queries))
          0. post
      in
      {
        policy_label = Pdht_policy.Selector.label policy;
        hit_rate = report.System.hit_rate;
        messages_per_second = report.System.messages_per_second;
        post_shift_cost =
          (if post_seconds > 0. then float_of_int post_messages /. post_seconds else 0.);
        post_shift_hit_rate =
          (if post_queries > 0 then post_hits /. float_of_int post_queries else 0.);
        rejected_inserts =
          (match report.System.policy with
          | Some s -> s.Pdht_policy.Selector.rejected_inserts
          | None -> 0);
        indexed_keys_final = report.System.indexed_keys_final;
      })
    policies reports

type ttl_tuning_row = {
  label : string;
  key_ttl_final : float;
  messages_per_second : float;
  hit_rate : float;
}

let ttl_tuning ?jobs ?(options = System.default_options) ~scenario ~fixed_ttls () =
  let fixed_spec ttl =
    Run_spec.make ~options
      ~tag:(Printf.sprintf "%s keyTtl=%g" scenario.Scenario.name ttl)
      ~strategy:(Strategy.Partial_index { key_ttl = ttl })
      scenario
  in
  let adaptive_spec =
    let options =
      {
        options with
        System.selection_policy = Pdht_policy.Selector.Ttl Pdht_policy.Selector.Adaptive;
      }
    in
    let key_ttl = System.derive_key_ttl scenario options in
    Run_spec.make ~options
      ~tag:(scenario.Scenario.name ^ "/adaptive-ttl")
      ~strategy:(Strategy.Partial_index { key_ttl })
      scenario
  in
  let labels =
    List.map (fun ttl -> Printf.sprintf "fixed keyTtl=%g" ttl) fixed_ttls
    @ [ "adaptive" ]
  in
  let reports =
    run_specs ?jobs (List.map fixed_spec fixed_ttls @ [ adaptive_spec ])
  in
  List.map2
    (fun label report ->
      {
        label;
        key_ttl_final = report.System.key_ttl;
        messages_per_second = report.System.messages_per_second;
        hit_rate = report.System.hit_rate;
      })
    labels reports

(* Representation-equivalence battery (scale discipline, DESIGN.md
   sect. 13).  A fixed set of small same-seed runs chosen so that every
   flat/SoA data-structure path introduced by the million-peer refactor
   is on some arm's hot path: all four DHT backends (Kademlia's trie
   k-NN and scratch lookup, P-Grid/Chord/Pastry over the shared
   storage), churn (routing forget/rebuild, replication remove_peer,
   storage expiry under pressure), a small-cache arm (the
   soonest-expiry victim, lowest slot among ties), the pure broadcast
   path (CSR topology walks/floods) and the Index_all path
   (forever-TTL storage).  The rendered reports are pinned as a golden
   file before any representation changes; byte-identity of the
   battery is the proof that a refactor was purely
   representational. *)
let representation_battery ?jobs () =
  let base =
    {
      (Scenario.with_scale Scenario.news_default ~peers:200 ~keys:300) with
      Scenario.duration = 240.;
    }
  in
  let churny name =
    {
      base with
      Scenario.name;
      churn =
        Scenario.Exponential_sessions
          {
            mean_uptime = 600.;
            mean_downtime = 120.;
            initially_online_fraction = 0.9;
          };
    }
  in
  let backend b = { System.default_options with System.backend = b } in
  let specs =
    [
      Run_spec.make ~tag:"pgrid-partial" base;
      Run_spec.make ~tag:"chord-partial"
        ~options:(backend Pdht_dht.Dht.Chord_backend)
        base;
      Run_spec.make ~tag:"kademlia-partial"
        ~options:(backend Pdht_dht.Dht.Kademlia_backend)
        base;
      Run_spec.make ~tag:"pastry-partial"
        ~options:(backend Pdht_dht.Dht.Pastry_backend)
        base;
      Run_spec.make ~tag:"pgrid-index-all" ~strategy:Strategy.Index_all base;
      Run_spec.make ~tag:"pgrid-no-index" ~strategy:Strategy.No_index base;
      Run_spec.make ~tag:"pgrid-churn" (churny "news-churn");
      Run_spec.make ~tag:"kademlia-churn"
        ~options:(backend Pdht_dht.Dht.Kademlia_backend)
        (churny "news-churn");
      Run_spec.make ~tag:"pgrid-small-cache" ~options:(System.Options.make ~stor:10 ()) base;
    ]
  in
  let reports = run_specs ?jobs specs in
  List.map2 (fun spec report -> (spec.Run_spec.tag, report)) specs reports

let render_reports rows =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (tag, report) ->
      Buffer.add_string buf ("=== " ^ tag ^ " ===\n");
      Buffer.add_string buf (Format.asprintf "%a@." System.pp_report report))
    rows;
  Buffer.contents buf

(* The configurations [System.run] builds for benchmark/workload.ml's
   [cold-keys] and [scale-100k] (seed 1), sized the same way. *)
let setup_shapes () =
  let news ~duration =
    { Scenario.news_default with Scenario.num_peers = 1_000; keys = 2_000; duration; seed = 1 }
  in
  List.map
    (fun (name, scenario, options) ->
      let strategy = Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options } in
      ( name,
        Config.make ~backend:options.System.backend ~num_peers:scenario.Scenario.num_peers
          ~active_members:(System.plan_active_members scenario options strategy)
          ~keys:scenario.Scenario.keys ~repl:options.System.repl ~stor:options.System.stor
          ~strategy () ))
    [
      ( "cold-keys",
        { (news ~duration:500.) with Scenario.keys = 20_000; distribution = Scenario.Uniform },
        System.Options.make ~repl:20 ~stor:100 () );
      ( "scale-100k",
        Scenario.with_scale (news ~duration:40.) ~peers:100_000 ~keys:2_000,
        System.Options.make ~repl:200 ~stor:100 () );
    ]

(* Digests of what [Pdht.create] builds at each shape: every key id,
   every content replica row, the overlay's adjacency and the
   generator's next draw. *)
let render_setup_state () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, config) ->
      let rng = Pdht_util.Rng.create ~seed:1 in
      let p = Pdht.create rng config in
      let digest f =
        let b = Buffer.create (1 lsl 16) in
        f (fun i ->
            Buffer.add_string b (string_of_int i);
            Buffer.add_char b ' ');
        Digest.to_hex (Digest.string (Buffer.contents b))
      in
      let keys = config.Config.keys and peers = config.Config.num_peers in
      let topology = Pdht.topology p in
      let row add a =
        add (Array.length a);
        Array.iter add a
      in
      Printf.bprintf buf "=== %s peers=%d members=%d keys=%d repl=%d ===\n" name peers
        config.Config.active_members keys config.Config.repl;
      Printf.bprintf buf "key_ids  %s\n"
        (digest (fun add ->
             for i = 0 to keys - 1 do
               add (Pdht_util.Bitkey.to_int (Pdht.key_of_index p i))
             done));
      Printf.bprintf buf "replicas %s\n"
        (digest (fun add ->
             for key_index = 0 to keys - 1 do
               row add (Pdht.content_replicas p ~key_index)
             done));
      Printf.bprintf buf "topology %s edges=%d\n"
        (digest (fun add ->
             for peer = 0 to peers - 1 do
               row add (Pdht_overlay.Topology.neighbors topology peer)
             done))
        (Pdht_overlay.Topology.edge_count topology);
      Printf.bprintf buf "next     %Ld\n" (Pdht_util.Rng.bits64 rng))
    (setup_shapes ());
  Buffer.contents buf
