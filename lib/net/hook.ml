module Rng = Pdht_util.Rng
module Obs = Pdht_obs.Context
module Registry = Pdht_obs.Registry
module Tracer = Pdht_obs.Tracer
module Event = Pdht_obs.Event

(* The operation's two clocks in an all-float record, which OCaml
   stores flat: advancing the clock writes a double in place instead of
   boxing a fresh one per leg. *)
type clock = {
  mutable elapsed : float; (* virtual seconds into the current operation *)
  mutable op_start : float; (* simulated time the operation began *)
}

type t = {
  rng : Rng.t;
  link : Link_model.t;
  config : Config.t;
  partitions : bool; (* any partition window: only then is [now] asked *)
  (* [net.*] instruments, resolved once per run instead of one registry
     hash probe per message. *)
  c_sent : Registry.counter;
  c_dropped : Registry.counter;
  c_retried : Registry.counter;
  c_timed_out : Registry.counter;
  latency_hist : Pdht_obs.Histogram.t;
  tracer : Tracer.t;
  clock : clock;
  (* The RPC in flight, read by [attempt]: one rung of the ladder,
     built once per hook so an RPC passes {!Config.call} no fresh
     closure. *)
  mutable src : int;
  mutable dst : int;
  mutable parent : int option;
  mutable attempt : attempt:int -> timeout:float -> unit option;
}

let begin_op t ~now =
  t.clock.elapsed <- 0.;
  t.clock.op_start <- now

let elapsed t = t.clock.elapsed
let now t = t.clock.op_start +. t.clock.elapsed

(* Each traced network message or RPC attempt gets its own child span
   under [parent] (the enclosing lookup / wave / contact span), so the
   offline analyzer can attribute retry ladders to the query that paid
   for them.  Span allocation only happens when the event is actually
   emitted, keeping untraced runs allocation-free.  A message with no
   parent belongs to an unsampled operation and is not emitted at all:
   that is what makes --trace-sample bound trace volume. *)
let trace t ?(parent = -1) ~src ~dst ~attempt ~dropped ~detail () =
  if parent >= 0 && Tracer.active t.tracer Event.Net then begin
    let span = Pdht_obs.Span.id (Tracer.child_span t.tracer ~parent) in
    Tracer.emit t.tracer
      (Event.make ~time:(now t) ~peer:src ~key_index:dst ~hops:attempt
         ~outcome:(if dropped then Event.Dropped else Event.Completed)
         ~detail ~span ~parent Event.Net)
  end

(* The send-time fate of one message: an active partition or the loss
   coin, asking for the virtual time only when a partition window
   exists. *)
let drops t ~src ~dst =
  (t.partitions && Link_model.partitioned t.link ~src ~dst ~now:(now t))
  || Link_model.lost t.link t.rng

let cast ?span:parent t ~src ~dst =
  Registry.incr t.c_sent 1;
  if drops t ~src ~dst then begin
    Registry.incr t.c_dropped 1;
    trace t ?parent ~src ~dst ~attempt:0 ~dropped:true ~detail:"send" ();
    false
  end
  else true

(* One request/response leg: send-time drop decision, then a latency
   sample only when the leg survives (stream economy: a zero-loss
   constant-latency config draws nothing at all). *)
let leg t ~src ~dst =
  Registry.incr t.c_sent 1;
  if drops t ~src ~dst then begin
    Registry.incr t.c_dropped 1;
    false
  end
  else begin
    t.clock.elapsed <- t.clock.elapsed +. Link_model.sample_latency t.link t.rng;
    true
  end

(* One rung of the ladder for the RPC stashed in [t]. *)
let attempt_once t ~attempt ~timeout =
  let src = t.src and dst = t.dst and parent = t.parent in
  if attempt > 0 then Registry.incr t.c_retried 1;
  let before = t.clock.elapsed in
  if leg t ~src ~dst && leg t ~src:dst ~dst:src then begin
    trace t ?parent ~src ~dst ~attempt ~dropped:false ~detail:"rpc" ();
    Some ()
  end
  else begin
    (* A lost leg costs the attempt's full timeout; any latency the
       surviving first leg charged is subsumed by it. *)
    t.clock.elapsed <- before +. timeout;
    trace t ?parent ~src ~dst ~attempt ~dropped:true ~detail:"rpc" ();
    None
  end

let create ?obs ~rng config =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let r = obs.Obs.registry in
  let link = Link_model.create config in
  let t =
    {
      rng;
      link;
      config = Link_model.config link;
      partitions = config.Config.partitions <> [];
      c_sent = Registry.counter r "net.messages_sent";
      c_dropped = Registry.counter r "net.messages_dropped";
      c_retried = Registry.counter r "net.messages_retried";
      c_timed_out = Registry.counter r "net.messages_timed_out";
      (* Milliseconds, not seconds: the histogram's geometric buckets
         start at 1, so every sub-second sample would collapse into the
         single [0,1) bucket and the quantiles would degenerate to 0.5. *)
      latency_hist = Registry.histogram r "net.query_latency_ms";
      tracer = obs.Obs.tracer;
      clock = { elapsed = 0.; op_start = 0. };
      src = 0;
      dst = 0;
      parent = None;
      attempt = (fun ~attempt:_ ~timeout:_ -> None);
    }
  in
  (* Two-argument closure, so the ladder applies it in one call. *)
  t.attempt <- (fun ~attempt ~timeout -> attempt_once t ~attempt ~timeout);
  t

let rpc ?span:parent t ~src ~dst =
  t.src <- src;
  t.dst <- dst;
  t.parent <- parent;
  match Config.call t.config t.attempt with
  | Some () -> true
  | None ->
      Registry.incr t.c_timed_out 1;
      trace t ?parent ~src ~dst ~attempt:t.config.Config.rpc_retries ~dropped:true
        ~detail:"timeout" ();
      false

let advance_rounds t n =
  if n < 0 then invalid_arg "Hook.advance_rounds: negative rounds";
  for _ = 1 to n do
    t.clock.elapsed <- t.clock.elapsed +. Link_model.sample_latency t.link t.rng
  done

let record_latency t = Pdht_obs.Histogram.record t.latency_hist (t.clock.elapsed *. 1000.)
