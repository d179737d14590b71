(** Generic finite discrete distributions over ranks [1..n].

    {!Zipf} covers the paper's default workload; this module adds the
    alternatives used in extension experiments (uniform queries, hot-set
    mixtures) behind one interface. *)

type t

val uniform : n:int -> t
(** Every rank equally likely. *)

val zipf : n:int -> alpha:float -> t
(** Wraps {!Zipf}. *)

val hot_cold : n:int -> hot:int -> hot_mass:float -> t
(** [hot_cold ~n ~hot ~hot_mass]: a fraction [hot_mass] of queries is
    uniform over the first [hot] ranks, the rest uniform over all
    remaining ranks.  Requires [1 <= hot < n], [0 <= hot_mass <= 1]. *)

val n : t -> int
val prob : t -> int -> float
val sample : t -> Pdht_util.Rng.t -> int
