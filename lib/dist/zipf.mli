(** Zipf distribution over ranks [1..n].

    The paper assumes queries are Zipf distributed with parameter
    [alpha] (Eq. 3, after [Srip01], who measured alpha = 1.2 for
    Gnutella queries):

    {m prob(rank) = rank^{-alpha} / sum_{x=1}^{keys} x^{-alpha}}

    This module provides exact probabilities, cumulative mass, and an
    O(1) sampler (via Walker's alias method). *)

type t

val create : n:int -> alpha:float -> t
(** [create ~n ~alpha] over ranks [1..n].  Requires [n >= 1] and
    [alpha >= 0.] ([alpha = 0.] is the uniform distribution). *)

val n : t -> int

val prob : t -> int -> float
(** [prob t rank] for [rank] in [1..n] — paper Eq. 3.
    @raise Invalid_argument outside that range. *)

val mass_of_top : t -> int -> float
(** [mass_of_top t rank] is {m sum_{x=1}^{rank} prob(x)}: the
    probability that a query hits one of the [rank] most popular keys —
    the numerator of paper Eq. 5.  [mass_of_top t 0 = 0.] and
    [mass_of_top t n = 1.] (up to rounding).  O(1): prefix sums are
    precomputed.  (Workloads draw ranks through {!Discrete.zipf}.) *)

val expected_hit_prob_at_least_once : t -> rank:int -> trials:float -> float
(** Paper Eq. 4: probability that the key at [rank] is queried at least
    once in [trials] independent queries,
    {m 1 - (1 - prob_{rank})^{trials}}.  [trials] is a float because the
    paper sets it to [numPeers * fQry], which is fractional at
    low query rates.  Computed via [expm1]/[log1p] for accuracy at tiny
    probabilities. *)
