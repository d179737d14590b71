(** The three indexing strategies the paper compares.

    [Partial_index] is the paper's contribution (Section 5's selection
    algorithm); the other two are its baselines (Eq. 11 and Eq. 12). *)

type t =
  | Index_all
      (** every key proactively indexed and kept consistent — a
          traditional DHT *)
  | No_index
      (** no DHT; every query broadcast into the unstructured network *)
  | Partial_index of { key_ttl : float }
      (** the query-adaptive PDHT: keys enter the index on demand and
          expire after [key_ttl] seconds without a query *)

val is_partial : t -> bool
val label : t -> string
