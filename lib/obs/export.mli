(** Serialize registry snapshots as JSON Lines or CSV.

    JSONL schema, one object per instrument per line:
    {v
    {"type":"counter","name":"messages.query-index","run":R,"time":T,"value":N}
    {"type":"gauge","name":"engine.queue_depth",...,"value":F}
    {"type":"histogram","name":"dht.hops.p-grid",...,"count":N,"mean":F,
     "p50":F,"p90":F,"p95":F,"p99":F,"max":F}
    v}
    [run] and [time] are optional labels stamped on every line so
    snapshot streams from periodic emission stay self-describing;
    [node] adds a ["node_id"] member so per-process emissions (the
    multi-process driver writes one JSONL file per node) remain
    attributable after merging.

    CSV schema: [name,type,value,count,mean,p50,p90,p95,p99,max]; for
    counters and gauges the histogram columns are empty. *)

val to_file :
  ?run:string -> ?time:float -> ?node:int -> path:string -> Registry.snapshot -> unit
(** Create/truncate [path] and write the snapshot; format chosen by
    extension ([.csv] for CSV, JSONL otherwise). *)

val validate_jsonl_file : path:string -> (int, string) result
(** Parse every non-empty line of [path]; [Ok n] gives the number of
    valid lines, [Error] names the first offending line.  Lines that
    look like trace events (member ["cat"]) must additionally decode
    through {!Event.of_json} with consistent span/parent ids, and
    timeline lines (member ["tl"]) must match the {!Timeline} window
    schema.  Used by the CI smoke script so the emitted telemetry is
    checked with the same parser that tests use. *)
