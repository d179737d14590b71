(** One fully-described simulation run: scenario + strategy + options +
    a human-readable tag.

    The spec is the unit of work {!Runner.run_all} schedules.  It
    replaces the per-experiment plumbing of seeds and option records:
    every experiment builds a [Run_spec.t list] and hands it to the
    runner, whether it executes on one domain or eight.

    {b Seeding.}  The seed a run actually uses is {!run_seed}: a
    splitmix64 derivation from [(scenario.seed, task_id)] (see
    {!Pdht_util.Rng.derive_seed}).  It depends only on the spec itself —
    never on batch position or worker count — which is what makes
    parallel and sequential execution byte-identical.  Specs sharing a
    [(seed, task_id)] pair see identical randomness: experiments that
    compare strategies or backends on a common workload (common random
    numbers) deliberately leave [task_id] at its default [0], while
    batches that want decorrelated replicas of one scenario give each
    spec its own [task_id] instead of inventing seed arithmetic. *)

type t = {
  tag : string;          (** label for reports, errors and logs *)
  scenario : Pdht_work.Scenario.t;
  strategy : Strategy.t;
  options : System.options;
  task_id : int;         (** RNG stream selector, see {!run_seed} *)
}

val make :
  ?tag:string ->
  ?strategy:Strategy.t ->
  ?options:System.options ->
  ?task_id:int ->
  Pdht_work.Scenario.t ->
  t
(** [tag] defaults to ["<scenario name>/<strategy label>"]; [strategy]
    to [Partial_index] with a NaN TTL, which {!System.run} resolves to
    the model-derived one, so the default spec runs the paper's partial
    strategy without the caller pre-computing a TTL; [options] to
    {!System.default_options}; [task_id] to [0]. *)

val run_seed : t -> int
(** The seed {!Runner} substitutes into the scenario before running:
    [Rng.derive_seed ~seed:scenario.seed ~stream:task_id]. *)

val with_strategy : Strategy.t -> t -> t
(** Replaces the strategy and refreshes a defaulted tag; build other
    variants with record update. *)

val over_seeds : int list -> t -> t list
(** One spec per seed, tagged ["<tag> seed=<n>"] — the replication
    batch shape. *)
