(** Index-selection policies.

    The paper's Section 5 answers "what should the partial index hold?"
    with one mechanism: a global key TTL, reset on every query, so keys
    queried less often than once per keyTtl fall out.  A {!spec} names
    either that rule ([Ttl _]: model-derived, fixed or adaptive TTL, all
    on the global-TTL code path with no selector) or [Cost_optimal],
    which installs the {!Cost_optimal} selector: it re-solves the
    Eq. 1-2 fixed point online from the estimated live fQry and admits
    exactly the keys whose estimated query rate clears the resulting
    fMin threshold.  The selector draws no randomness, so simulation
    reports remain pure functions of (scenario, strategy, options). *)

(** The paper's TTL axis. *)
type ttl_mode =
  | Model_derived  (** keyTtl = 1/fMin from the analytical model *)
  | Fixed of float (** explicit keyTtl in seconds *)
  | Adaptive       (** the self-tuning Section 5.1.1 controller *)

(** What drives index selection for a run. *)
type spec = Ttl of ttl_mode | Cost_optimal

val default : spec
(** [Ttl Model_derived] — the paper's behaviour. *)

val equal : spec -> spec -> bool
val label : spec -> string
(** Short display name: ["ttl"], ["ttl:300"], ["ttl:adaptive"],
    ["cost"]. *)

val to_string : spec -> string
(** Round-trips with {!of_string} (same output as {!label}). *)

val of_string : string -> (spec, string) result
(** CLI grammar: [ttl] (model-derived), [ttl:SECS] (fixed, positive),
    [ttl:adaptive], [cost]. *)

val validate : spec -> (spec, string) result
(** Reject non-positive fixed TTLs. *)

(** What the selector is told about a key. *)
type event =
  | Queried   (** a query for the key *)
  | Inserted  (** an index insertion was admitted *)
  | Rejected  (** an index insertion was declined *)

(** Reporting snapshot, folded into the run report. *)
type summary = {
  policy : string;         (** {!label} of the spec *)
  retunes : int;           (** completed {!Cost_optimal.retune} passes *)
  observed_queries : int;  (** [Queried] events seen *)
  admitted_inserts : int;  (** [Inserted] events seen *)
  rejected_inserts : int;  (** [Rejected] events seen *)
  target_keys : int;       (** current admission-set size; -1 = unbounded *)
  est_f_qry : float;       (** estimated per-peer query rate, 1/s *)
  threshold : float;       (** admission rate threshold, queries/s;
                               0. while warming up *)
}

module Cost_optimal : sig
  type t

  val create :
    params:Pdht_model.Params.t -> base_ttl:float -> retune_every:float -> t
  (** [params] is the analytical-model view of the scenario (for the
      online Eq. 1-2 re-solve), [base_ttl] the TTL the run starts with
      (used until the first retune), and [retune_every] the refit
      period the caller drives {!retune} at.  @raise Invalid_argument
      on a non-finite or non-positive [base_ttl] or a non-positive
      [retune_every]. *)

  val observe : t -> now:float -> key_index:int -> event -> unit
  (** Feed one key event; called on the query hot path. *)

  val admit : t -> now:float -> key_index:int -> bool
  (** Should a freshly resolved key be (re)inserted into the index? *)

  val ttl_for : t -> now:float -> key_index:int -> float
  (** Expiration lease for an insertion or query-hit refresh of the
      key, in seconds (always positive). *)

  val retune : t -> now:float -> unit
  (** Periodic refit from the observation window. *)

  val summary : t -> summary
end
