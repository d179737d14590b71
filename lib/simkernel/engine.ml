type instruments = {
  events_counter : Pdht_obs.Registry.counter;
  depth_gauge : Pdht_obs.Registry.gauge;
  time_gauge : Pdht_obs.Registry.gauge;
  throughput : Pdht_obs.Histogram.t;
  sample_every : int;
  mutable since_sample : int;
  mutable last_wall : float;
  mutable last_sim : float;
}

type t = {
  queue : handler Event_queue.t;
  mutable now : float;
  mutable events_processed : int;
  mutable instruments : instruments option;
}

and handler = t -> unit

exception Handler_failed of { time : float; label : string; exn : exn }

(* Registered once at module load so [Printexc.to_string] — and with it
   every failure message the runner records — carries the simulation
   time and handler label instead of an anonymous exception. *)
let () =
  Printexc.register_printer (function
    | Handler_failed { time; label; exn } ->
        Some
          (Printf.sprintf "event handler %S failed at t=%g: %s" label time
             (Printexc.to_string exn))
    | _ -> None)

let labelled label handler t =
  try handler t with
  | Handler_failed _ as e -> raise e
  | exn -> raise (Handler_failed { time = t.now; label; exn })

let create () =
  { queue = Event_queue.create (); now = 0.; events_processed = 0; instruments = None }

let now t = t.now

let schedule_at t ~time handler =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.add t.queue ~time handler

let schedule t ~delay handler =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) handler

let schedule_periodic t ~first ~every handler =
  if not (every > 0.) then invalid_arg "Engine.schedule_periodic: period must be positive";
  (* Tick k fires at [first + k * every], computed fresh each tick
     rather than accumulated with [+. every]: repeated addition drifts
     by one ulp per tick, which over a multi-day horizon shifts
     maintenance and sampling phases relative to each other.  The
     product form keeps tick N exact to one rounding no matter how
     large N gets.  Monotonicity holds because [first + k *. every] is
     nondecreasing in k and the engine is at tick k's time when tick
     k+1 is scheduled. *)
  let rec tick k engine =
    handler engine;
    schedule_at engine ~time:(first +. (float_of_int (k + 1) *. every)) (tick (k + 1))
  in
  schedule_at t ~time:first (tick 0)

let instrument ?(sample_every = 4096) t registry =
  if sample_every < 1 then invalid_arg "Engine.instrument: sample_every must be >= 1";
  let instruments =
    {
      events_counter = Pdht_obs.Registry.counter registry "engine.events_processed";
      depth_gauge = Pdht_obs.Registry.gauge registry "engine.queue_depth";
      time_gauge = Pdht_obs.Registry.gauge registry "engine.sim_time";
      throughput = Pdht_obs.Registry.histogram registry "engine.sim_seconds_per_wall_second";
      sample_every;
      since_sample = 0;
      last_wall = Unix.gettimeofday ();
      last_sim = t.now;
    }
  in
  t.instruments <- Some instruments

let sample ins t =
  Pdht_obs.Registry.set_gauge ins.depth_gauge (float_of_int (Event_queue.size t.queue));
  Pdht_obs.Registry.set_gauge ins.time_gauge t.now;
  let wall = Unix.gettimeofday () in
  let wall_delta = wall -. ins.last_wall in
  let sim_delta = t.now -. ins.last_sim in
  (* Sub-microsecond wall deltas are clock noise; skip the sample
     rather than record a garbage rate. *)
  if wall_delta > 1e-6 && sim_delta >= 0. then
    Pdht_obs.Histogram.record ins.throughput (sim_delta /. wall_delta);
  ins.last_wall <- wall;
  ins.last_sim <- t.now

let run t ~until =
  (* Allocation-free dispatch loop: [min_time]/[pop_min] touch the
     queue's flat arrays directly, so steady-state cost per event is the
     handler's own work plus heap bookkeeping — no options or tuples. *)
  let rec loop () =
    if not (Event_queue.is_empty t.queue) then begin
      let time = Event_queue.min_time t.queue in
      if time <= until then begin
        let handler = Event_queue.pop_min t.queue in
        t.now <- time;
        handler t;
        t.events_processed <- t.events_processed + 1;
        (match t.instruments with
        | Some ins ->
            Pdht_obs.Registry.incr ins.events_counter 1;
            ins.since_sample <- ins.since_sample + 1;
            if ins.since_sample >= ins.sample_every then begin
              ins.since_sample <- 0;
              sample ins t
            end
        | None -> ());
        loop ()
      end
    end
  in
  (* One try frame around the whole loop (not one per event — that
     would cost a trap per dispatch): [t.now] is already the failing
     event's time when the exception escapes, so the context is exact.
     Handlers wrapped with [labelled] arrive pre-annotated and pass
     through; anonymous handlers get the generic label. *)
  (try loop () with
  | Handler_failed _ as e -> raise e
  | exn -> raise (Handler_failed { time = t.now; label = "event"; exn }));
  match t.instruments with Some ins -> sample ins t | None -> ()

let emit_snapshots t ~every ~tracer =
  schedule_periodic t ~first:every ~every (fun engine ->
      if Pdht_obs.Tracer.active tracer Pdht_obs.Event.Engine then
        Pdht_obs.Tracer.emit tracer
          (Pdht_obs.Event.make ~time:engine.now ~messages:engine.events_processed
             ~hops:(Event_queue.size engine.queue) Pdht_obs.Event.Engine);
      (* Flush the JSONL channels behind the sinks on every snapshot
         tick (even when the Engine category is filtered out), so an
         interrupted or crashed run leaves usable trace files. *)
      Pdht_obs.Tracer.flush tracer)
