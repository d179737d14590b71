(** Event emitter with category filtering and pluggable sinks.

    Disabled by default so that instrumented hot paths pay one branch
    when tracing is off.  Call sites that would allocate to build an
    event should guard with {!active}:

    {[
      if Tracer.active tracer Event.Dht_lookup then
        Tracer.emit tracer (Event.make ~time ... Event.Dht_lookup)
    ]} *)

type t

val create : ?enabled:bool -> unit -> t
(** No sinks, no filter (all categories pass). *)

val enable : t -> unit
val enabled : t -> bool

val set_filter : t -> Event.category list option -> unit
(** [Some cats] passes only those categories; [None] passes all. *)

val add_sink : t -> Sink.t -> unit
(** Sinks run in registration order on every emitted event. *)

val active : t -> Event.category -> bool
(** Would an event of this category reach at least one sink? *)

val emit : t -> Event.t -> unit
(** No-op when disabled, filtered out, or sink-less. *)

val events_emitted : t -> int
(** Events that reached the sinks since creation. *)

(** {2 Spans and sampling}

    The tracer owns the run's {!Span.allocator}, so span ids are handed
    out sequentially in emission order on the run's single simulation
    thread — deterministic for a given (scenario, options, trace
    config), independent of [-j]. *)

val set_sampling : t -> int -> unit
(** Keep 1 in [every] sampled operations (queries and updates); default
    1 (trace everything).  Raises [Invalid_argument] when [every < 1]. *)

val sample_root : t -> Span.t option
(** Root span for the next top-level operation, or [None] when tracing
    is off (disabled or sink-less) or this operation is sampled out.
    Ticks the deterministic 1-in-N sampling counter only while tracing
    is on, so enabling tracing never perturbs an untraced run. *)

val root_span : t -> Span.t option
(** Unsampled root span (maintenance ticks, fault actions, repair
    passes); [None] only when tracing is off. *)

val child_span : t -> parent:int -> Span.t
(** Allocate a child of the span with id [parent].  Only call when a
    traced ancestor span is in hand — allocation is unconditional. *)

(** {2 Flushers}

    Channels feeding JSONL sinks register a flush action here; the
    engine's periodic snapshot hook calls {!flush} so interrupted runs
    leave usable (non-truncated) trace and metrics files. *)

val add_flusher : t -> (unit -> unit) -> unit
val has_flushers : t -> bool

val flush : t -> unit
(** Run all registered flushers in registration order. *)
