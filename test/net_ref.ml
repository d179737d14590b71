(* Verbatim copies of the network model's per-message path as it was
   before the allocation-free RPC ladder: [Config.call] with its
   per-attempt closure and [**] on every rung, [Link_model] and [Hook]
   with the boxed virtual clock.  test_net's "hook matches the
   reference" drives [Hook] and [Net_ref.Hook] with the same configs,
   seeds and operations and requires equal returns, clocks, [net.*]
   counters and next RNG draw after every step.  Only the module
   paths are adapted (the copies read the library's [Config] types);
   do not edit them to follow the library. *)

module Rng = Pdht_util.Rng

module Config = struct
  include Pdht_net.Config

  let timeout_for t ~attempt = t.rpc_timeout *. (t.backoff ** float_of_int attempt)

  let call t attempt =
    let rec go k =
      match attempt ~attempt:k ~timeout:(timeout_for t ~attempt:k) with
      | Some _ as reply -> reply
      | None -> if k < t.rpc_retries then go (k + 1) else None
    in
    go 0
end

module Link_model = struct
  type compiled_partition = {
    side_a : int array; (* sorted *)
    side_b : int array; (* sorted *)
    from_time : float;
    until_time : float;
  }

  type t = {
    config : Config.t;
    parts : compiled_partition array;
    loss : float;
  }

  let sorted_copy a =
    let c = Array.copy a in
    Array.sort compare c;
    c

  let create config =
    match Config.validate config with
    | Error msg -> invalid_arg ("Link_model.create: " ^ msg)
    | Ok config ->
        let parts =
          Array.of_list
            (List.map
               (fun (p : Config.partition) ->
                 {
                   side_a = sorted_copy p.Config.group_a;
                   side_b = sorted_copy p.Config.group_b;
                   from_time = p.Config.from_time;
                   until_time = p.Config.until_time;
                 })
               config.Config.partitions)
        in
        { config; parts; loss = config.Config.loss }

  let config t = t.config

  let mem_sorted a x =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length a && a.(!lo) = x

  let two_pi = 2. *. Float.pi

  let sample_latency t rng =
    match t.config.Config.latency with
    | Config.Constant s -> s
    | Config.Uniform { lo; hi } -> if hi > lo then lo +. Rng.float rng (hi -. lo) else lo
    | Config.Lognormal { mu; sigma } ->
        (* Box–Muller, single leg: two uniforms per sample keeps the draw
           count fixed (no cached second leg, whose lifetime would make
           the stream depend on call interleaving). *)
        let u1 = 1. -. Rng.unit_float rng (* (0, 1]: log stays finite *) in
        let u2 = Rng.unit_float rng in
        let z = sqrt (-2. *. log u1) *. cos (two_pi *. u2) in
        exp (mu +. (sigma *. z))

  let partitioned t ~src ~dst ~now =
    let n = Array.length t.parts in
    let rec check i =
      if i = n then false
      else
        let p = t.parts.(i) in
        if
          p.from_time <= now && now < p.until_time
          && ((mem_sorted p.side_a src && mem_sorted p.side_b dst)
             || (mem_sorted p.side_a dst && mem_sorted p.side_b src))
        then true
        else check (i + 1)
    in
    n > 0 && check 0

  let drops t rng ~src ~dst ~now =
    partitioned t ~src ~dst ~now || (t.loss > 0. && Rng.bernoulli rng ~p:t.loss)
end

module Hook = struct
  module Obs = Pdht_obs.Context
  module Registry = Pdht_obs.Registry
  module Tracer = Pdht_obs.Tracer
  module Event = Pdht_obs.Event

  type t = {
    rng : Rng.t;
    link : Link_model.t;
    (* [net.*] instruments, resolved once per run instead of one registry
       hash probe per message. *)
    c_sent : Registry.counter;
    c_dropped : Registry.counter;
    c_retried : Registry.counter;
    c_timed_out : Registry.counter;
    latency_hist : Pdht_obs.Histogram.t;
    tracer : Tracer.t;
    mutable clock : float; (* virtual seconds into the current operation *)
    mutable op_start : float; (* simulated time the operation began *)
  }

  let create ?obs ~rng config =
    let obs = match obs with Some o -> o | None -> Obs.create () in
    let r = obs.Obs.registry in
    {
      rng;
      link = Link_model.create config;
      c_sent = Registry.counter r "net.messages_sent";
      c_dropped = Registry.counter r "net.messages_dropped";
      c_retried = Registry.counter r "net.messages_retried";
      c_timed_out = Registry.counter r "net.messages_timed_out";
      (* Milliseconds, not seconds: the histogram's geometric buckets
         start at 1, so every sub-second sample would collapse into the
         single [0,1) bucket and the quantiles would degenerate to 0.5. *)
      latency_hist = Registry.histogram r "net.query_latency_ms";
      tracer = obs.Obs.tracer;
      clock = 0.;
      op_start = 0.;
    }

  let begin_op t ~now =
    t.clock <- 0.;
    t.op_start <- now

  let elapsed t = t.clock
  let now t = t.op_start +. t.clock

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

  let cast ?span:parent t ~src ~dst =
    Registry.incr t.c_sent 1;
    if Link_model.drops t.link t.rng ~src ~dst ~now:(now t) then begin
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
    if Link_model.drops t.link t.rng ~src ~dst ~now:(now t) then begin
      Registry.incr t.c_dropped 1;
      false
    end
    else begin
      t.clock <- t.clock +. Link_model.sample_latency t.link t.rng;
      true
    end

  let rpc ?span:parent t ~src ~dst =
    let reply =
      Config.call (Link_model.config t.link) (fun ~attempt ~timeout ->
          if attempt > 0 then Registry.incr t.c_retried 1;
          let before = t.clock in
          if leg t ~src ~dst && leg t ~src:dst ~dst:src then begin
            trace t ?parent ~src ~dst ~attempt ~dropped:false ~detail:"rpc" ();
            Some ()
          end
          else begin
            (* A lost leg costs the attempt's full timeout; any latency the
               surviving first leg charged is subsumed by it. *)
            t.clock <- before +. timeout;
            trace t ?parent ~src ~dst ~attempt ~dropped:true ~detail:"rpc" ();
            None
          end)
    in
    match reply with
    | Some () -> true
    | None ->
        Registry.incr t.c_timed_out 1;
        trace t ?parent ~src ~dst ~attempt:(Link_model.config t.link).Config.rpc_retries
          ~dropped:true ~detail:"timeout" ();
        false

  let advance_rounds t n =
    if n < 0 then invalid_arg "Hook.advance_rounds: negative rounds";
    for _ = 1 to n do
      t.clock <- t.clock +. Link_model.sample_latency t.link t.rng
    done

  let record_latency t = Pdht_obs.Histogram.record t.latency_hist (t.clock *. 1000.)
end
