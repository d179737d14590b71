(** Message accounting.

    The paper's single cost metric is the number of messages sent per
    second (Section 3: "As is a standard practice in P2P systems we
    consider the number of messages as the main cost").  Every simulated
    subsystem charges messages here, tagged by category, so experiment
    output can be broken down exactly like the model's cost terms.

    The ledger is the observability registry itself: each category is
    the counter ["messages.<category-label>"], so exported counters and
    report totals cannot disagree. *)

type category =
  | Query_unstructured  (** flooding / random-walk search traffic (cSUnstr) *)
  | Query_index         (** DHT lookup traffic (cSIndx) *)
  | Replica_flood       (** replica-subnetwork flooding on index search (Eq. 16 term) *)
  | Index_insert        (** inserting a resolved key into the index *)
  | Maintenance         (** routing-table probe traffic (cRtn) *)
  | Update_gossip       (** replica update rumor spreading (cUpd) *)
  | Other

val category_label : category -> string
val all_categories : category list

type t

val create : Pdht_obs.Registry.t -> t
(** Find or create the per-category counters in the registry.  Counts
    start from zero even when the registry already holds messages (a
    caller sharing one context across runs): {!count} subtracts each
    counter's reading at [create]. *)

val charge : t -> category -> int -> unit
(** Count [n] messages in [category].
    @raise Invalid_argument on a negative count. *)

val counter_name : category -> string
(** The registry counter behind a category. *)

val count : t -> category -> int
val total : t -> int

val snapshot : t -> (category * int) list
(** All categories with their current counts. *)
