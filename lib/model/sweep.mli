(** Query-frequency sweeps: the series behind Figs. 1-4. *)

type point = {
  f_qry : float;            (** per-peer queries per second (x-axis) *)
  index_all : float;        (** Fig. 1 solid *)
  no_index : float;         (** Fig. 1 dashed stars *)
  partial_ideal : float;    (** Fig. 1 dashed squares *)
  partial_selection : float;(** Fig. 4 input *)
  savings_ideal_vs_all : float;      (** Fig. 2 solid *)
  savings_ideal_vs_none : float;     (** Fig. 2 dashed *)
  savings_selection_vs_all : float;  (** Fig. 4 solid *)
  savings_selection_vs_none : float; (** Fig. 4 dashed *)
  index_fraction : float;   (** Fig. 3 solid: maxRank / keys *)
  p_indexed : float;        (** Fig. 3 dashed: Eq. 5 *)
  max_rank : int;
  key_ttl : float;          (** the 1/fMin TTL used for the selection row *)
  ttl_index_fraction : float; (** Eq. 15 / keys *)
  p_indexed_ttl : float;    (** Eq. 14 *)
}

val point : Params.t -> point
(** Evaluate every strategy at the parameter set's own [f_qry]. *)

val default_run : Params.t -> point list
(** {!run} over the paper's eight frequencies. *)
