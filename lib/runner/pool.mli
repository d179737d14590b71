(** Domain-based worker pool for batches of independent tasks.

    The pool runs a fixed function over an indexed batch of inputs on
    [jobs] domains and hands the results back in input order, so callers
    observe exactly the sequence a plain [List.map] would have produced.
    Determinism is the caller's half of the contract: each task must
    derive all of its randomness from its own index (see
    {!Pdht_util.Rng.of_stream}) and touch no shared mutable state, and
    then [run ~jobs:1] and [run ~jobs:n] are indistinguishable.

    With [jobs = 1] (or a single-element batch) everything executes
    inline on the calling domain — no spawning, so the sequential path
    stays exactly as debuggable as before the pool existed.

    The effective worker count is the minimum of [jobs], the batch size,
    and the hardware's recommended domain count.  Requesting [-j 8] on a single-core machine
    therefore runs inline rather than thrashing: in OCaml 5 every minor
    collection is a stop-the-world barrier across all domains, so
    oversubscribed domains do not merely fail to help — they actively
    stall each other.  Because task results are deterministic in the
    task index, the clamp changes scheduling only, never output.

    When the pool does go parallel, the calling domain works too
    ([workers - 1] domains are spawned), and each worker accumulates
    its results in a private buffer that the coordinator merges after
    the joins — workers share nothing but an atomic claim counter, so
    there is no false sharing on a common results array. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], clamped to at least 1:
    leave one core for the coordinating domain, but never refuse to
    work on a single-core machine. *)

val try_map : ?jobs:int -> f:(int -> 'a -> 'b) -> 'a array -> ('b, exn) result array
(** [try_map ?jobs ~f tasks] applies [f index task] to every task and
    returns the outcomes in input order.  A task that raises is captured
    as [Error exn] in its slot; the other tasks still run to completion,
    so one bad run in a batch never aborts its siblings.  [jobs]
    defaults to {!default_jobs} and is additionally clamped to the batch
    size.
    @raise Invalid_argument when [jobs < 1]. *)

val map_list : ?jobs:int -> f:(int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!try_map} over a list, but re-raises the first (lowest-index)
    captured exception after the whole batch has finished. *)
