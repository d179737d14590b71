(** Sensitivity of the selection algorithm to the keyTtl estimate
    (paper Section 5.1.1).

    "Analytical results show that an estimation error of +-50% of the
    ideal keyTtl decreases the savings only slightly."  This module
    regenerates that claim: it evaluates Eq. 17 with the TTL scaled
    around the 1/fMin baseline and reports how much of the baseline
    savings survive. *)

type row = {
  scale : float;           (** multiplier applied to the ideal keyTtl *)
  key_ttl : float;
  total_cost : float;      (** Eq. 17 at this TTL *)
  savings_vs_all : float;
  savings_vs_none : float;
  savings_drop_vs_ideal_ttl : float;
  (** baseline savings (vs the cheaper baseline strategy) minus this
      row's — positive means the mis-estimated TTL lost savings. *)
}

val run : Params.t -> scales:float list -> row list
(** Rows at each TTL multiplier, baseline = scale 1.0. *)

val default_scales : float list
(** [0.5; 0.75; 1.0; 1.5; 2.0] — the paper's +-50% window plus margin. *)

val best_ttl : Params.t -> candidates:float list -> float
(** The candidate TTL (in seconds) minimising Eq. 17. *)
