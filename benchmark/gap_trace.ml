(* Self time per layer from the typed events the program already emits.

   During the run the sink only stamps each event with the monotonic
   clock and keeps the stamp and the event's layer in memory; all
   attribution happens after the run, outside the measured wall.

   Events fire when a step completes, one thread runs them in order,
   and [Pdht.query] emits each child step before its parent.  So the
   interval from the previous event's stamp to an event's stamp is the
   self time of the step that event closes, and is charged to that
   event's layer.  Three intervals are charged elsewhere:
   - the first one of the run (building the system) goes to setup;
   - the one after an [Engine] snapshot holds the periodic sampler that
     runs at the same simulated instant, so it goes to the simulation
     kernel with the snapshot itself;
   - the tail from the last event to the end of the run (the report)
     goes to the kernel too.
   Consecutive [Query] events also give each query's wall latency. *)

module Event = Pdht_obs.Event
module Tracer = Pdht_obs.Tracer

type slot =
  | Setup
  | Lookup
  | Store_hit
  | Insert
  | Replica_flood
  | Broadcast
  | Maintenance
  | Net
  | Churn
  | Query
  | Kernel

let index = function
  | Setup -> 0
  | Lookup -> 1
  | Store_hit -> 2
  | Insert -> 3
  | Replica_flood -> 4
  | Broadcast -> 5
  | Maintenance -> 6
  | Net -> 7
  | Churn -> 8
  | Query -> 9
  | Kernel -> 10

let slots = index Kernel + 1

(* [Engine] snapshots get their own code so the post-pass can find the
   sampler interval after them; they are charged to the kernel. *)
let engine_code = slots

let code_of_category = function
  | Event.Dht_lookup -> index Lookup
  | Event.Ttl_reset -> index Store_hit
  | Event.Index_insert -> index Insert
  | Event.Replica_flood -> index Replica_flood
  | Event.Broadcast -> index Broadcast
  | Event.Maintenance -> index Maintenance
  | Event.Net -> index Net
  | Event.Churn -> index Churn
  | Event.Query -> index Query
  | Event.Gossip | Event.Fault -> index Kernel
  | Event.Engine -> engine_code

(* Stamp and layer code packed into one int per event (the stamp is
   nanoseconds of CLOCK_MONOTONIC, far below 2^58), in a bigarray the
   garbage collector never scans. *)
type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type recorder = { mutable events : buffer; mutable n : int; mutable flood_messages : int }

let buffer n : buffer = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type t = {
  wall_ns : int;
  self : int array;  (** self ns, indexed by {!index}; [Kernel] includes the tail *)
  counts : int array;  (** events of each slot's categories *)
  replica_flood_messages : int;
  negative_gaps : int;
  query_wall_us : float array;  (** sorted per-query wall latencies *)
}

let sink r (e : Event.t) =
  let n = r.n in
  if n = Bigarray.Array1.dim r.events then begin
    let bigger = buffer (2 * n) in
    Bigarray.Array1.blit r.events (Bigarray.Array1.sub bigger 0 n);
    r.events <- bigger
  end;
  let code = code_of_category e.Event.category in
  Bigarray.Array1.unsafe_set r.events n ((Timing.now_ns () lsl 4) lor code);
  r.n <- n + 1;
  if code = index Replica_flood then r.flood_messages <- r.flood_messages + e.Event.messages

let attribute r ~t0 ~t1 =
  let self = Array.make slots 0 in
  let counts = Array.make slots 0 in
  let kernel = index Kernel in
  let negative = ref 0 in
  let query_gaps = ref [] and last_query = ref (-1) in
  let last = ref t0 and last_code = ref (-1) in
  for i = 0 to r.n - 1 do
    let t = r.events.{i} lsr 4 and code = r.events.{i} land 15 in
    let own = if code = engine_code then kernel else code in
    let slot =
      if i = 0 then index Setup else if !last_code = engine_code then kernel else own
    in
    if t < !last then incr negative;
    self.(slot) <- self.(slot) + (t - !last);
    counts.(own) <- counts.(own) + 1;
    if own = index Query then begin
      if !last_query >= 0 then
        query_gaps := (float_of_int (t - !last_query) *. 1e-3) :: !query_gaps;
      last_query := t
    end;
    last := t;
    last_code := code
  done;
  self.(kernel) <- self.(kernel) + (t1 - !last);
  let query_wall_us = Array.of_list !query_gaps in
  Array.sort Float.compare query_wall_us;
  {
    wall_ns = t1 - t0;
    self;
    counts;
    replica_flood_messages = r.flood_messages;
    negative_gaps = !negative;
    query_wall_us;
  }

(* Traced runs reuse the largest buffer so far: after a warm-up run the
   sink neither grows it nor touches fresh pages. *)
let reused = ref (buffer 65536)

(* Run [f] with a context whose tracer sends every event to the
   recorder; returns [f]'s value, the context and the attribution. *)
let traced f =
  let r = { events = !reused; n = 0; flood_messages = 0 } in
  let tracer = Tracer.create ~enabled:true () in
  Tracer.add_sink tracer (fun e -> sink r e);
  let obs = Pdht_obs.Context.create ~tracer () in
  let t0 = Timing.now_ns () in
  let v = f obs in
  let t1 = Timing.now_ns () in
  reused := r.events;
  (v, obs, attribute r ~t0 ~t1)

let self_ns t slot = t.self.(index slot)
let count t slot = t.counts.(index slot)

(* Everything charged to a named layer; the kernel slot is the
   unattributed rest. *)
let attributed_ns t = Array.fold_left ( + ) 0 t.self - self_ns t Kernel
