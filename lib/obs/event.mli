(** Typed trace events.

    One flat record covers every instrumentation point in the simulator:
    the category says which subsystem spoke, and the numeric fields are
    interpreted per category (documented on {!category}).  Flat rather
    than per-category payloads so sinks, filters and the JSONL codec
    stay trivial and allocation per event stays at one record. *)

type category =
  | Query         (** one end-to-end PDHT query; [messages] = total cost *)
  | Dht_lookup    (** one structured-overlay routing; [hops], [messages],
                      [detail] = backend label (or ["contact"] for the
                      entry-point hop of a query) *)
  | Replica_flood (** one flood over a key's replica subnetwork;
                      [messages] = flood cost *)
  | Broadcast     (** one unstructured search; [messages] = reach *)
  | Index_insert  (** key installed into the partial index *)
  | Ttl_reset     (** a stored key's expiry pushed out by a query hit *)
  | Gossip        (** one rumor spread; [hops] = rounds *)
  | Maintenance   (** one maintenance tick; [messages] = probes sent *)
  | Churn         (** one session transition; [detail] = "online"/"offline" *)
  | Engine        (** periodic engine snapshot; [messages] = events
                      processed so far, [hops] = event-queue depth *)
  | Net           (** one network message or RPC attempt; [peer] = source,
                      [key_index] = destination peer, [hops] = attempt
                      number (RPCs), [outcome] = [Completed] delivered /
                      [Dropped] lost, [detail] = "send"/"rpc"/"timeout" *)
  | Fault         (** one fault-injection action on a peer; [detail] =
                      "crash"/"recover" *)

type outcome = Hit | Miss | Found | Not_found | Completed | Dropped

type t = {
  time : float;     (** simulated seconds *)
  category : category;
  peer : int;       (** acting peer; -1 when not applicable *)
  key_index : int;  (** workload key; -1 when not applicable *)
  hops : int;       (** category-specific, see above; 0 default *)
  messages : int;   (** messages this event accounts for; 0 default *)
  outcome : outcome;
  detail : string;  (** category-specific label; "" default *)
  span : int;       (** this event's own span id ({!Span}); -1 untraced *)
  parent : int;     (** causing span's id; -1 for roots and untraced *)
}

val make :
  ?peer:int ->
  ?key_index:int ->
  ?hops:int ->
  ?messages:int ->
  ?outcome:outcome ->
  ?detail:string ->
  ?span:int ->
  ?parent:int ->
  time:float ->
  category ->
  t
(** Defaults: [peer = -1], [key_index = -1], [hops = 0], [messages = 0],
    [outcome = Completed], [detail = ""], [span = -1], [parent = -1]. *)

val all_categories : category list
val category_label : category -> string
val category_of_label : string -> category option

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; missing optional fields take their [make]
    defaults. *)
