(** Descriptive statistics used by the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean.  0. on an empty array. *)

val stddev : float array -> float
(** Square root of the unbiased sample variance (n-1 denominator); 0.
    for fewer than two samples. *)

val harmonic_generalized : n:int -> alpha:float -> float
(** [harmonic_generalized ~n ~alpha] is {m H_{n,alpha} = sum_{x=1}^{n}
    x^{-alpha}}, the normaliser of a Zipf distribution (paper Eq. 3
    denominator). *)
