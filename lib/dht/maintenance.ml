let log2 x = Float.log x /. Float.log 2.

let probes_per_peer_per_second ~env ~members =
  if members < 1 then invalid_arg "Maintenance.probes_per_peer_per_second";
  env *. log2 (float_of_int (max 2 members))

let env_from_trace ~maintenance_rate ~members =
  if members < 2 then invalid_arg "Maintenance.env_from_trace: need >= 2 members";
  maintenance_rate /. log2 (float_of_int members)

let attach ?obs ?refresh_every engine ~dht ~rng ~online ~metrics ~env ~interval =
  if not (interval > 0.) then invalid_arg "Maintenance.attach: interval must be positive";
  let members = Dht.members dht in
  let budget = probes_per_peer_per_second ~env ~members *. interval in
  let whole = int_of_float (Float.floor budget) in
  let frac = budget -. Float.floor budget in
  let per_tick =
    match obs with
    | None -> None
    | Some (obs : Pdht_obs.Context.t) ->
        Some
          (Pdht_obs.Registry.histogram obs.Pdht_obs.Context.registry
             "maintenance.messages_per_tick")
  in
  let tick engine =
    let sent_this_tick = ref 0 in
    for peer = 0 to members - 1 do
      if online peer then begin
        let probes = whole + (if Pdht_util.Rng.bernoulli rng ~p:frac then 1 else 0) in
        let sent = Dht.probe_and_repair dht rng ~online ~peer ~probes in
        sent_this_tick := !sent_this_tick + sent;
        Pdht_sim.Metrics.charge metrics Pdht_sim.Metrics.Maintenance sent
      end
    done;
    match obs with
    | None -> ()
    | Some obs ->
        (match per_tick with
        | Some hist -> Pdht_obs.Histogram.record_int hist !sent_this_tick
        | None -> ());
        let tracer = obs.Pdht_obs.Context.tracer in
        if Pdht_obs.Tracer.active tracer Pdht_obs.Event.Maintenance then begin
          (* Each maintenance tick is a causal root of its own (never
             query-sampled): its probes answer to no query. *)
          let span =
            match Pdht_obs.Tracer.root_span tracer with
            | Some s -> Pdht_obs.Span.id s
            | None -> -1
          in
          Pdht_obs.Tracer.emit tracer
            (Pdht_obs.Event.make
               ~time:(Pdht_sim.Engine.now engine)
               ~messages:!sent_this_tick ~span Pdht_obs.Event.Maintenance)
        end
  in
  Pdht_sim.Engine.schedule_periodic engine ~first:interval ~every:interval tick;
  match refresh_every with
  | None -> ()
  | Some every ->
      if not (every > 0.) then
        invalid_arg "Maintenance.attach: refresh interval must be positive";
      let refreshes =
        match obs with
        | None -> None
        | Some (obs : Pdht_obs.Context.t) ->
            Some
              (Pdht_obs.Registry.counter obs.Pdht_obs.Context.registry
                 "maintenance.refresh_messages")
      in
      Pdht_sim.Engine.schedule_periodic engine ~first:every ~every (fun _engine ->
          let sent = Dht.refresh_sweep dht rng ~online in
          Pdht_sim.Metrics.charge metrics Pdht_sim.Metrics.Maintenance sent;
          match refreshes with
          | Some c -> Pdht_obs.Registry.incr c sent
          | None -> ())
