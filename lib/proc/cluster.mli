(** Multi-process conductor: run a {!Pdht_core.System} scenario with
    the index state sharded across [nodes] worker processes on one box.

    The conductor keeps the whole protocol brain — workloads, routing,
    selection, accounting — and hands {!Pdht_core.System.run} one
    {!Pdht_core.Pdht.transport}: each of its per-member store operations
    and every DHT hop / broadcast edge becomes a {!Pdht_wire.Wire} frame
    ([Get], [Insert], [Probe], [Lookup], [Gossip]) to the worker owning
    the target member ([member mod nodes]); the census behind the index
    size is one [Census] frame per worker, whose [Keys] bitmaps the
    conductor ORs together; and the replica probe after a miss at the
    responsible member is one [Find] round ({!first_holder}).  Workers answer strictly in order and the
    loopback link is reliable, so the cluster's report is
    field-for-field the same-seed simulator report.

    Each connection is a pipeline.  [Lookup] and [Insert] frames, whose
    [Ack] carries nothing, and one-way [Gossip] are posted without
    waiting; the conductor waits only for replies that carry data
    ([Entry], [Found], a [Probe]'s count, [Keys], [Counters]).  So a
    query waits on the workers once when the responsible member holds
    its key, and twice when the replica probe follows.  Every wait on a
    worker first takes, in order, the answers to the frames posted to it
    before, checking each against the oldest frame it has yet to
    answer; at most 256 frames are posted to a worker between waits.
    A wait runs the {!Pdht_net.Config.call} retry ladder of
    {!Pdht_net.Config.default} ([rpc_timeout]/[rpc_retries]/[backoff])
    against absolute wall-clock deadlines, and no frame is ever resent;
    the deadlines exist to fail fast when a worker dies or stalls,
    rather than to model loss. *)

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

val first_holder :
  nodes:int ->
  expect:(int -> Pdht_wire.Wire.msg -> unit) ->
  await_all:(int list -> Pdht_wire.Wire.msg list) ->
  peers:int array ->
  count:int ->
  key_index:int ->
  now:float ->
  ttl:float ->
  (int * int) option
(** The replica probe of {!run}'s transport, over [nodes] workers where
    worker [m mod nodes] owns member [m]: the same answer and the same
    store effects as {!Pdht_core.Pdht.store_ops}'s sequential
    [first_holder] over [peers.(0 .. count - 1)].  [expect k frame]
    posts a request to worker [k], its answer checked at the next wait
    on [k]; [await_all ks] waits once on every worker of [ks] and
    returns, in order, the answer to the last request posted to each.
    - One read-only [Find] goes to each worker owning candidates, and
      one [await_all] takes their [Found]s; the lowest position found
      wins.
    - Then, without waiting, the winner's worker gets a refreshing
      [Get].
    Returns the winner's position in [peers] and its value.
    @raise Failure when a [Found] names no position of its [Find]. *)

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
    @raise Failure when a worker dies or misbehaves — an answer that is
    missing, out of order, of the wrong kind, or an [Ack] with
    [ok = false], each naming the node and the frame kind and rid — or
    when a wait exhausts the retry ladder (naming the node and the
    oldest frame it has not answered); spawned processes are killed
    before the exception escapes.  A [Keys] bitmap that is not [ceil (keys / 8)] bytes long
    fails the run, naming the node.  Worker death is detected eagerly —
    a [waitpid] ([WNOHANG]) probe runs on every broken write, closed
    connection and retry — and the message names the node id, its exit
    status and the kind of the last frame sent to it, rather than
    letting the retry ladder grind against a dead process.  [SIGPIPE]
    is ignored for the calling process so such writes surface as
    [EPIPE]. *)
