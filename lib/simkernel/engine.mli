(** Discrete-event simulation engine.

    A thin deterministic scheduler: handlers are closures over whatever
    simulation state the caller owns.  Time is in seconds; the paper's
    "round" is one second (Section 2, footnote 1). *)

type t

exception Handler_failed of { time : float; label : string; exn : exn }
(** An event handler raised during {!run}.  [time] is the simulated
    instant of the failing event and [label] the handler's tag —
    ["event"] unless the handler was wrapped with {!labelled}.  A
    printer is registered, so [Printexc.to_string] (and therefore the
    runner's recorded failure messages) includes both. *)

val labelled : string -> (t -> unit) -> t -> unit
(** [labelled tag handler] is [handler] with failures annotated as
    [Handler_failed] carrying [tag] and the failure time.  Already
    annotated exceptions pass through unchanged. *)

val create : unit -> t

val now : t -> float
(** Current simulated time; 0. before the first event fires. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Run a handler [delay] seconds from [now].  Requires [delay >= 0.] *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Run a handler at absolute [time] (>= [now]). *)

val schedule_periodic : t -> first:float -> every:float -> (t -> unit) -> unit
(** Starting at absolute time [first], run the handler every [every]
    seconds forever (until the run's time horizon cuts it off).
    Tick [k] fires at exactly [first +. float k *. every] — times are
    recomputed from the tick index, not accumulated, so long horizons
    do not drift by an ulp per tick.  Requires [every > 0.]. *)

val run : t -> until:float -> unit
(** Process events in time order until the queue is empty or the next
    event is strictly after [until].  [now] ends at the time of the
    last processed event (or is left unchanged when nothing fired).
    Can be called again to continue a paused simulation.

    A handler exception aborts the run and escapes as
    {!Handler_failed} with the failing event's time attached (one
    [try] frame around the whole loop, so per-event dispatch stays
    allocation- and trap-free). *)

val instrument : ?sample_every:int -> t -> Pdht_obs.Registry.t -> unit
(** Register the engine's own telemetry in [registry] and keep it
    current while [run] executes:

    - ["engine.events_processed"] (counter) — handlers executed;
    - ["engine.queue_depth"] (gauge) — pending events, refreshed every
      [sample_every] (default 4096) handlers and at the end of [run];
    - ["engine.sim_time"] (gauge) — simulated now;
    - ["engine.sim_seconds_per_wall_second"] (histogram) — simulated
      seconds advanced per wall-clock second between refreshes, the
      run's throughput profile.

    Instrumentation costs one branch per event plus the periodic
    refresh; an un-instrumented engine pays only the branch. *)

val emit_snapshots : t -> every:float -> tracer:Pdht_obs.Tracer.t -> unit
(** Schedule a periodic [Engine]-category trace event every [every]
    simulated seconds carrying [messages] = events processed so far and
    [hops] = queue depth, then run the tracer's registered flushers
    ({!Pdht_obs.Tracer.add_flusher}) so JSONL channels stay usable if
    the run is interrupted.  The trace event is skipped while the
    tracer is disabled or filters out [Engine] events; flushers run on
    every tick regardless. *)
