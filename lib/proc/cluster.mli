(** Multi-process conductor: run a {!Pdht_core.System} scenario with
    the index state sharded across [nodes] worker processes on one box.

    The conductor keeps the whole protocol brain — workloads, routing,
    selection, accounting — and hands {!Pdht_core.System.run} one
    {!Pdht_core.Pdht.transport}: each of its per-member store operations
    and every DHT hop / broadcast edge becomes a {!Pdht_wire.Wire} frame
    ([Get], [Insert], [Probe], [Lookup], [Gossip]) to the worker owning
    the target member ([member mod nodes]); the census behind the index
    size is one [Census] frame per worker, whose [Keys] bitmaps the
    conductor ORs together.  Workers answer strictly in
    order and the loopback link is reliable, so the cluster's report is
    field-for-field the same-seed simulator report.  Each
    conductor->worker call runs the {!Pdht_net.Config.call} retry
    ladder of {!Pdht_net.Config.default} ([rpc_timeout]/[rpc_retries]/
    [backoff]) against absolute wall-clock deadlines; the deadlines
    exist to fail fast when a worker dies rather than to model loss. *)

type config = {
  nodes : int;            (** worker process count, >= 1 *)
  exe : string;           (** executable spawned as
                              [exe node --connect PORT --node-id K] *)
  obs_dir : string option;
      (** when set: workers write [node-K.jsonl] here and the conductor
          writes [merged.jsonl] (run registry + summed worker
          counters) *)
}

val default_config : nodes:int -> exe:string -> config
(** No [obs_dir]. *)

val run :
  ?obs:Pdht_obs.Context.t ->
  config ->
  Pdht_work.Scenario.t ->
  Pdht_core.Strategy.t ->
  Pdht_core.System.options ->
  Pdht_core.System.report
(** Spawn the workers, run the scenario through them, merge worker
    counters, shut the workers down, and return the report.
    @raise Invalid_argument when [options.net] is set (a simulated
    network model and a real transport are mutually exclusive) or
    [nodes < 1].
    @raise Failure when a worker dies, misbehaves, or an RPC exhausts
    its retry budget; spawned processes are killed before the exception
    escapes.  A [Keys] bitmap that is not [ceil (keys / 8)] bytes long
    fails the run, naming the node.  Worker death is detected eagerly —
    a [waitpid] ([WNOHANG]) probe runs on every broken send, closed
    connection and retry — and the message names the node id, its exit
    status and the kind of the last frame sent to it, rather than
    letting the retry ladder grind against a dead process.  [SIGPIPE]
    is ignored for the calling process so such writes surface as
    [EPIPE]. *)
