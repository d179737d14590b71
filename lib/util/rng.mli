(** Deterministic pseudo-random number generation.

    All randomness in the PDHT code base flows through this module so
    that every experiment is exactly reproducible from a single integer
    seed.  The generator is xoshiro256** seeded through splitmix64, a
    combination with good statistical quality and cheap state copying.

    States are explicit and mutable; use {!split} to derive independent
    streams for sub-components (e.g. one stream per simulated peer). *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed].
    Two generators created with the same seed produce the same
    sequence. *)

val copy : t -> t
(** [copy t] is an independent snapshot of [t]'s current state. *)

val split : t -> t
(** [split t] draws from [t] to create a statistically independent
    generator.  Advances [t]. *)

val derive_seed : seed:int -> stream:int -> int
(** [derive_seed ~seed ~stream] is a non-negative seed derived from the
    pair by splitmix64 mixing.  Stateless and deterministic: parallel
    task [stream] of a batch rooted at [seed] gets the same seed no
    matter which domain runs it or in what order — the basis of the
    runner's parallel/sequential parity guarantee.  Distinct streams of
    the same root seed give statistically independent generators. *)

val of_stream : seed:int -> stream:int -> t
(** [of_stream ~seed ~stream] is [create ~seed:(derive_seed ~seed ~stream)]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive.
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to
    [\[0,1\]]). *)

val exponential : t -> rate:float -> float
(** [exponential t ~rate] samples an exponential waiting time with the
    given rate (mean [1. /. rate]).  Requires [rate > 0.]. *)

