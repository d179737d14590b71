module Rng = Pdht_util.Rng
module Bitkey = Pdht_util.Bitkey
module Metrics = Pdht_sim.Metrics
module Obs = Pdht_obs.Context
module Registry = Pdht_obs.Registry
module Histogram = Pdht_obs.Histogram
module Tracer = Pdht_obs.Tracer
module Event = Pdht_obs.Event
module Span = Pdht_obs.Span
module Topology = Pdht_overlay.Topology
module Replication = Pdht_overlay.Replication
module Unstructured_search = Pdht_overlay.Unstructured_search
module Dht = Pdht_dht.Dht
module Storage = Pdht_dht.Storage
module Replica_net = Pdht_gossip.Replica_net
module Rumor = Pdht_gossip.Rumor
module Net_hook = Pdht_net.Hook
module Psel = Pdht_policy.Selector

(* TTL standing in for "never expires" in the baseline index; large but
   far from Float.max_float so [now +. ttl] stays finite. *)
let forever = 1e15

(* Index-store access, keyed by workload key index rather than raw
   bitkey so a remote implementation can rebuild keys from the key
   count alone.  The default (no [?transport] at {!create}) reads and
   writes the in-process [Storage.t] array; the multi-process driver's
   transport carries closures that cross the wire to whichever worker
   owns [peer]'s shard. *)
type store_ops = {
  get_and_refresh : peer:int -> key_index:int -> now:float -> ttl:float -> int option;
  first_holder :
    peers:int array -> count:int -> key_index:int -> now:float -> ttl:float -> (int * int) option;
  put : peer:int -> key_index:int -> value:int -> now:float -> ttl:float -> unit;
  peek : peer:int -> key_index:int -> now:float -> (int * float) option;
  clear : peer:int -> now:float -> int;
  live_count : peer:int -> now:float -> int;
  census : now:float -> Bytes.t;
}

(* Every store, in-process or in a worker, is keyed by
   [Bitkey.of_int key_index], so a live entry's key is its own bit. *)
module Census = struct
  let bitmap_bytes ~keys = (keys + 7) / 8

  let of_stores ~keys ~now stores =
    let bits = Bytes.make (bitmap_bytes ~keys) '\000' in
    Array.iter
      (fun store ->
        Storage.iter_live store ~now (fun key ->
            let i = Bitkey.to_int key in
            Bytes.set bits (i lsr 3)
              (Char.chr (Char.code (Bytes.get bits (i lsr 3)) lor (1 lsl (i land 7))))))
      stores;
    bits

  let count bits =
    let n = ref 0 in
    Bytes.iter
      (fun c ->
        let b = Char.code c in
        let b = b - ((b lsr 1) land 0x55) in
        let b = (b land 0x33) + ((b lsr 2) land 0x33) in
        n := !n + ((b + (b lsr 4)) land 0x0f))
      bits;
    !n
end

type transport = {
  store : store_ops;
  rpc : span:int option -> src:int -> dst:int -> bool;
  cast : span:int option -> src:int -> dst:int -> bool;
}

(* Pre-resolved observability instruments: hot paths must not pay a
   registry hash lookup per query. *)
type instruments = {
  backend_label : string;
  hops_hist : Histogram.t;          (* dht.hops.<backend> *)
  lookup_msgs_hist : Histogram.t;   (* dht.lookup_messages.<backend> *)
  query_cost_hist : Histogram.t;    (* query.cost *)
  index_cost_hist : Histogram.t;    (* index.search_cost *)
  broadcast_hist : Histogram.t;     (* broadcast.reach *)
  gossip_rounds_hist : Histogram.t; (* gossip.rounds *)
  c_lookup_failed : Registry.counter;
  c_index_hit : Registry.counter;
  c_index_miss : Registry.counter;
  c_ttl_reset : Registry.counter;
  c_index_insert : Registry.counter;
  c_broadcast : Registry.counter;
  c_broadcast_found : Registry.counter;
  c_gossip_spreads : Registry.counter;
}

type t = {
  rng : Rng.t;
  config : Config.t;
  bitkeys : Bitkey.t array; (* key_index -> DHT key *)
  dht : Dht.t;
  topology : Topology.t;
  content : Replication.t;
  unstructured : Unstructured_search.t;
  store : store_ops; (* how the index stores are reached (local/remote) *)
  replica_nets : (int, Replica_net.t) Hashtbl.t; (* key_index -> subnet *)
  mutable candidates : int array; (* a replica probe's online members, in order *)
  metrics : Metrics.t;
  obs : Obs.t;
  ins : instruments;
  (* Delivery hooks, if any.  Built once (no per-query allocation) and
     passed as the [?deliver] hooks: [net_rpc] per DHT forward hop and
     entry contact, [net_cast] per broadcast message.  Two sources:
     the simulator's network model ([net] set) or a real transport
     ([net] stays [None]; each hook materialises one wire frame). *)
  net : Net_hook.t option;
  net_rpc : (span:int option -> src:int -> dst:int -> bool) option;
  net_cast : (span:int option -> src:int -> dst:int -> bool) option;
  mutable online : int -> bool;
  mutable key_ttl : float;
  (* Cost-optimal selector, if installed.  [None] (the default, and the
     paper's behaviour) admits every resolved key and leases [key_ttl],
     so TTL-policy runs keep the exact pre-policy code path. *)
  mutable selector : Psel.Cost_optimal.t option;
}

let key_of_index t i =
  if i < 0 || i >= t.config.Config.keys then invalid_arg "Pdht.key_of_index: out of range";
  t.bitkeys.(i)

let metrics t = t.metrics
let set_online t f = t.online <- f
let key_ttl t = t.key_ttl

let set_key_ttl t ttl =
  if not (ttl > 0.) then invalid_arg "Pdht.set_key_ttl: ttl must be positive";
  t.key_ttl <- ttl

let set_selector t sel = t.selector <- Some sel

(* Expiration lease for an insertion or query-hit refresh of a key. *)
let lease t ~now ~key_index =
  match t.selector with
  | None -> t.key_ttl
  | Some sel -> Psel.Cost_optimal.ttl_for sel ~now ~key_index

let replica_net t key_index =
  match Hashtbl.find_opt t.replica_nets key_index with
  | Some net -> net
  | None ->
      let group =
        Dht.replica_group t.dht ~repl:t.config.Config.repl t.bitkeys.(key_index)
      in
      let net = Replica_net.build t.rng ~replicas:group ~chords:1 in
      Hashtbl.replace t.replica_nets key_index net;
      net

let content_replicas t ~key_index =
  Replication.replicas t.content ~item:key_index

let dht t = t.dht
let topology t = t.topology

let initial_ttl config =
  match config.Config.strategy with
  | Strategy.Partial_index { key_ttl } ->
      if not (key_ttl > 0.) then invalid_arg "Pdht.create: key_ttl must be positive";
      key_ttl
  | Strategy.Index_all | Strategy.No_index -> forever

let make_instruments (obs : Obs.t) ~backend =
  let r = obs.Obs.registry in
  let backend_label = Dht.backend_label backend in
  {
    backend_label;
    hops_hist = Registry.histogram r ("dht.hops." ^ backend_label);
    lookup_msgs_hist = Registry.histogram r ("dht.lookup_messages." ^ backend_label);
    query_cost_hist = Registry.histogram r "query.cost";
    index_cost_hist = Registry.histogram r "index.search_cost";
    broadcast_hist = Registry.histogram r "broadcast.reach";
    gossip_rounds_hist = Registry.histogram r "gossip.rounds";
    c_lookup_failed = Registry.counter r "dht.lookup_failures";
    c_index_hit = Registry.counter r "index.hit";
    c_index_miss = Registry.counter r "index.miss";
    c_ttl_reset = Registry.counter r "index.ttl_reset";
    c_index_insert = Registry.counter r "index.insert";
    c_broadcast = Registry.counter r "broadcast.searches";
    c_broadcast_found = Registry.counter r "broadcast.found";
    c_gossip_spreads = Registry.counter r "gossip.spreads";
  }

(* Default store implementation: the in-process [Storage.t] array the
   simulator owns, keyed by key index like a worker's shard.  Built over
   the array directly (not [t]) so it can be assembled before the
   record. *)
let local_store_ops ~stores ~keys =
  let key = Bitkey.of_int in
  {
    get_and_refresh =
      (fun ~peer ~key_index ~now ~ttl ->
        Storage.get_and_refresh stores.(peer) ~key:(key key_index) ~now ~ttl);
    first_holder =
      (fun ~peers ~count ~key_index ~now ~ttl ->
        (* A loop, not a local recursive function: a closure per probe
           would be the only allocation of a probe that misses. *)
        let key = key key_index in
        let i = ref 0 and hit = ref None in
        while !i < count do
          match Storage.get_and_refresh stores.(peers.(!i)) ~key ~now ~ttl with
          | Some value ->
              hit := Some (!i, value);
              i := count
          | None -> incr i
        done;
        !hit);
    put =
      (fun ~peer ~key_index ~value ~now ~ttl ->
        Storage.put stores.(peer) ~key:(key key_index) ~value ~now ~ttl);
    peek = (fun ~peer ~key_index ~now -> Storage.peek stores.(peer) ~key:(key key_index) ~now);
    clear = (fun ~peer ~now -> Storage.clear stores.(peer) ~now);
    live_count = (fun ~peer ~now -> Storage.live_count stores.(peer) ~now);
    census = (fun ~now -> Census.of_stores ~keys ~now stores);
  }

let create ?obs ?net ?transport rng config =
  let net_rpc, net_cast =
    match (net, transport) with
    | Some _, Some _ ->
        invalid_arg "Pdht.create: a network model and a transport are mutually exclusive"
    | Some h, None ->
        ( Some (fun ~span ~src ~dst -> Net_hook.rpc ?span h ~src ~dst),
          Some (fun ~span ~src ~dst -> Net_hook.cast ?span h ~src ~dst) )
    | None, Some tr -> (Some tr.rpc, Some tr.cast)
    | None, None -> (None, None)
  in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let keys = config.Config.keys in
  let bitkeys = Array.init keys Pdht_util.Hashing.key_id in
  let dht =
    Dht.create rng ~backend:config.Config.backend ~members:config.Config.active_members
      ~leaf_size:config.Config.repl ()
  in
  let topology =
    Topology.random_regularish rng ~peers:config.Config.num_peers
      ~degree:Config.overlay_degree
  in
  let content = Replication.create ~peers:config.Config.num_peers in
  for key_index = 0 to keys - 1 do
    Replication.place content rng ~item:key_index ~repl:config.Config.repl
  done;
  let unstructured =
    Unstructured_search.create ~topology ~replication:content
      ~strategy:(Config.default_search ~num_peers:config.Config.num_peers)
  in
  let store =
    match transport with
    | Some tr -> tr.store
    | None ->
        (* One store per active member; value = provider peer. *)
        let stores =
          Array.init config.Config.active_members (fun _ ->
              Storage.create ~capacity:config.Config.stor ())
        in
        local_store_ops ~stores ~keys
  in
  let t =
    {
      rng;
      config;
      bitkeys;
      dht;
      topology;
      content;
      unstructured;
      store;
      replica_nets = Hashtbl.create (min keys 4096);
      candidates = Array.make config.Config.repl 0;
      metrics = Metrics.create obs.Obs.registry;
      obs;
      ins = make_instruments obs ~backend:config.Config.backend;
      net;
      net_rpc;
      net_cast;
      online = (fun _ -> true);
      key_ttl = initial_ttl config;
      selector = None;
    }
  in
  (* The index-everything baseline starts with the full index in place:
     every key on every member of its replica group. *)
  (match config.Config.strategy with
  | Strategy.Index_all ->
      for key_index = 0 to keys - 1 do
        (* Materialise the replica subnetwork up front: the baseline
           gossips updates and anti-entropy over it from the start. *)
        let net = replica_net t key_index in
        let group = Replica_net.replicas net in
        let provider =
          match content_replicas t ~key_index with
          | [||] -> 0
          | reps -> reps.(0)
        in
        Array.iter
          (fun member ->
            t.store.put ~peer:member ~key_index ~value:provider ~now:0. ~ttl:forever)
          group
      done
  | Strategy.No_index | Strategy.Partial_index _ -> ());
  t

type answer_source = From_index | From_broadcast | Not_found

type query_result = {
  source : answer_source;
  provider : int option;
  index_messages : int;
  replica_flood_messages : int;
  broadcast_messages : int;
  insert_messages : int;
}

let total_messages r =
  r.index_messages + r.replica_flood_messages + r.broadcast_messages + r.insert_messages

let empty_result = {
  source = Not_found;
  provider = None;
  index_messages = 0;
  replica_flood_messages = 0;
  broadcast_messages = 0;
  insert_messages = 0;
}

(* Causal-span plumbing for the per-operation event tree.  Span ids are
   plain ints (-1 = none): [child_id] allocates a fresh child of
   [parent] only when the enclosing operation was sampled, so untraced
   operations pay a single comparison.  [child_time] is the timestamp
   child events carry: under the network model the operation's virtual
   clock has advanced past the engine's [now] by the time the step
   completes. *)
let child_id t ~parent =
  if parent < 0 then -1 else Span.id (Tracer.child_span t.obs.Obs.tracer ~parent)

let opt_span span = if span < 0 then None else Some span

let child_time t ~now =
  match t.net with Some h -> Net_hook.now h | None -> now

(* Pick a DHT entry point for a peer: itself when it is an online
   member, otherwise a random online member it knows (one contact
   message).  Returns the entry member, or [-1] when none is reachable;
   unboxed so the per-query path builds no option/tuple.  The contact
   cost is recoverable as [entry_contact]: zero exactly when the peer is
   its own entry (a drawn candidate is always online while the peer in
   that branch is offline or not a member, so they never collide). *)
let entry_point t peer =
  let members = t.config.Config.active_members in
  if peer < members && t.online peer then peer
  else begin
    let attempts = min 32 (2 * members) in
    let rec pick i =
      if i = attempts then -1
      else
        let cand = Rng.int t.rng members in
        if t.online cand then cand else pick (i + 1)
    in
    pick 0
  end

let entry_contact ~peer entry = if entry = peer then 0 else 1

(* Under the network model the contact message to a remote entry point
   is itself an RPC: when its retry budget fails, the peer cannot reach
   the index at all this query and the caller sees [-1], degrading
   exactly like "no online member found".  The contact is a traced step
   of its own — a [Dht_lookup] child with [detail = "contact"] whose
   message count (1, or 0 on failure) matches the [entry_contact]
   charge; the RPC's per-attempt events parent under it. *)
let reach_entry t ~now ~parent ~peer entry =
  if entry < 0 || entry = peer then entry
  else begin
    let span = child_id t ~parent in
    let ok =
      match t.net_rpc with
      | None -> true
      | Some rpc -> rpc ~span:(opt_span span) ~src:peer ~dst:entry
    in
    let tracer = t.obs.Obs.tracer in
    if span >= 0 && Tracer.active tracer Event.Dht_lookup then
      Tracer.emit tracer
        (Event.make ~time:(child_time t ~now) ~peer
           ~messages:(if ok then 1 else 0)
           ~outcome:(if ok then Event.Found else Event.Not_found)
           ~detail:"contact" ~span ~parent Event.Dht_lookup);
    if ok then entry else -1
  end

(* Per-backend lookup telemetry: hop/message histograms feed the
   measured-vs-model cSIndx comparison in {!System.report}.  [span] is
   the lookup's own pre-allocated span id (the routing RPCs already
   parented under it), [parent] its enclosing operation node. *)
let record_lookup t ~now ~peer ~key_index ~span ~parent lookup =
  Histogram.record_int t.ins.hops_hist lookup.Dht.hops;
  Histogram.record_int t.ins.lookup_msgs_hist lookup.Dht.messages;
  (match lookup.Dht.responsible with
  | None -> Registry.incr t.ins.c_lookup_failed 1
  | Some _ -> ());
  let tracer = t.obs.Obs.tracer in
  if span >= 0 && Tracer.active tracer Event.Dht_lookup then
    Tracer.emit tracer
      (Event.make ~time:now ~peer ~key_index ~hops:lookup.Dht.hops
         ~messages:lookup.Dht.messages
         ~outcome:
           (if lookup.Dht.responsible = None then Event.Not_found else Event.Found)
         ~detail:t.ins.backend_label ~span ~parent Event.Dht_lookup)

(* A TTL reset's span id, or -1 when it is not traced. *)
let ttl_reset_span t ~parent =
  if parent >= 0 && Tracer.active t.obs.Obs.tracer Event.Ttl_reset then child_id t ~parent
  else -1

let emit_ttl_reset t ~now ~peer ~key_index ~parent ~span =
  if span >= 0 then
    Tracer.emit t.obs.Obs.tracer
      (Event.make ~time:now ~peer ~key_index ~span ~parent Event.Ttl_reset)

let record_ttl_reset t ~now ~peer ~key_index ~parent =
  Registry.incr t.ins.c_ttl_reset 1;
  emit_ttl_reset t ~now ~peer ~key_index ~parent ~span:(ttl_reset_span t ~parent)

(* Search the index for a key: DHT routing to a responsible peer, local
   cache check there, replica-subnetwork flood on a local miss
   (Section 5.1 / Eq. 16).  TTL refresh on hits is the selection
   algorithm's "reset on query".  Returns
   (provider option, index_messages, flood_messages). *)
let index_search t ~now ~entry ~key_index ~parent =
  let key = t.bitkeys.(key_index) in
  let lookup_span = child_id t ~parent in
  let lookup =
    Dht.lookup ?span:(opt_span lookup_span) ?deliver:t.net_rpc t.dht t.rng
      ~online:t.online ~source:entry ~key
  in
  record_lookup t ~now:(child_time t ~now) ~peer:entry ~key_index ~span:lookup_span
    ~parent lookup;
  let index_messages = lookup.Dht.messages in
  let result =
    match lookup.Dht.responsible with
    | None -> (None, index_messages, 0)
    | Some responsible -> (
        match
          t.store.get_and_refresh ~peer:responsible ~key_index ~now
            ~ttl:(lease t ~now ~key_index)
        with
        | Some provider ->
            record_ttl_reset t ~now:(child_time t ~now) ~peer:responsible ~key_index
              ~parent;
            (Some provider, index_messages, 0)
        | None ->
            (* Local miss: ask the other replicas. *)
            let net = replica_net t key_index in
            let flood = Replica_net.flood net ~online:t.online ~from_peer:responsible in
            let flood_messages = flood.Replica_net.messages in
            let tracer = t.obs.Obs.tracer in
            (* The flood event is emitted after the store probes below,
               and a probe hit's TTL reset after the flood event, so a
               gap-attributing reader books the flood and the probes to
               the flood.  Span ids are taken where the events used to
               be emitted (the flood's before the probes, the reset's at
               the hit), so ids and sibling order stay as they were. *)
            let flood_span =
              if parent >= 0 && Tracer.active tracer Event.Replica_flood then
                child_id t ~parent
              else -1
            in
            (* The online members other than [responsible], in group
               order, go to the store in one call, which refreshes the
               first live holder.  One lease serves the whole probe:
               [lease] (through [Cost_optimal.ttl_for] and
               [Freq.live_rate]) is a pure read, so it is the same for
               every member. *)
            let members = Replica_net.replicas net in
            let len = Array.length members in
            if Array.length t.candidates < len then t.candidates <- Array.make len 0;
            let count = ref 0 in
            for i = 0 to len - 1 do
              let member = members.(i) in
              if member <> responsible && t.online member then begin
                t.candidates.(!count) <- member;
                incr count
              end
            done;
            let found = ref (-1) and holder = ref (-1) and reset_span = ref (-1) in
            (match
               t.store.first_holder ~peers:t.candidates ~count:!count ~key_index ~now
                 ~ttl:(lease t ~now ~key_index)
             with
            | Some (pos, provider) ->
                Registry.incr t.ins.c_ttl_reset 1;
                reset_span := ttl_reset_span t ~parent;
                holder := t.candidates.(pos);
                found := provider
            | None -> ());
            if flood_span >= 0 then
              Tracer.emit tracer
                (Event.make ~time:(child_time t ~now) ~peer:responsible ~key_index
                   ~messages:flood_messages ~span:flood_span ~parent Event.Replica_flood);
            emit_ttl_reset t ~now:(child_time t ~now) ~peer:!holder ~key_index ~parent
              ~span:!reset_span;
            ((if !found < 0 then None else Some !found), index_messages, flood_messages))
  in
  let provider, index_messages, flood_messages = result in
  Histogram.record_int t.ins.index_cost_hist (index_messages + flood_messages);
  Registry.incr
    (match provider with None -> t.ins.c_index_miss | Some _ -> t.ins.c_index_hit)
    1;
  result

(* Install a freshly resolved key on every online member of its replica
   group: one DHT routing to reach the group, then dissemination inside
   the subnetwork (counted as flood traffic).  In the trace the insert
   is an interior [Index_insert] node under [parent]: its message count
   is the sum of its own [Dht_lookup] / [Replica_flood] leaves, so
   per-tree leaf sums stay exact. *)
let index_insert_admitted t ~now ~entry ~key_index ~provider ~parent =
  let key = t.bitkeys.(key_index) in
  let insert_span = child_id t ~parent in
  let lookup_span = child_id t ~parent:insert_span in
  let lookup =
    Dht.lookup ?span:(opt_span lookup_span) ?deliver:t.net_rpc t.dht t.rng
      ~online:t.online ~source:entry ~key
  in
  record_lookup t ~now:(child_time t ~now) ~peer:entry ~key_index ~span:lookup_span
    ~parent:insert_span lookup;
  Registry.incr t.ins.c_index_insert 1;
  let tracer = t.obs.Obs.tracer in
  let messages =
    match lookup.Dht.responsible with
    | None -> lookup.Dht.messages
    | Some responsible ->
        let net = replica_net t key_index in
        let flood = Replica_net.flood net ~online:t.online ~from_peer:responsible in
        if insert_span >= 0 && Tracer.active tracer Event.Replica_flood then
          Tracer.emit tracer
            (Event.make ~time:(child_time t ~now) ~peer:responsible ~key_index
               ~messages:flood.Replica_net.messages
               ~span:(child_id t ~parent:insert_span) ~parent:insert_span
               Event.Replica_flood);
        Array.iter
          (fun member ->
            if t.online member then
              t.store.put ~peer:member ~key_index ~value:provider ~now
                ~ttl:(lease t ~now ~key_index))
          (Replica_net.replicas net);
        lookup.Dht.messages + flood.Replica_net.messages
  in
  if insert_span >= 0 && Tracer.active tracer Event.Index_insert then
    Tracer.emit tracer
      (Event.make ~time:(child_time t ~now) ~peer:entry ~key_index ~messages
         ~span:insert_span ~parent Event.Index_insert);
  messages

(* Consulted once per would-be re-insertion; the selector records its
   own verdict. *)
let admits t ~now ~key_index =
  match t.selector with
  | None -> true
  | Some sel ->
      let ok = Psel.Cost_optimal.admit sel ~now ~key_index in
      Psel.Cost_optimal.observe sel ~now ~key_index
        (if ok then Psel.Inserted else Psel.Rejected);
      ok

let index_insert t ~now ~entry ~key_index ~provider ~parent =
  if not (admits t ~now ~key_index) then
    (* The selector declines the key: no routing, no flood, no
       insertion.  The query's answer already came from the broadcast,
       so rejection costs nothing now and saves the whole insert (and
       its maintenance tail) for keys judged not worth indexing. *)
    0
  else index_insert_admitted t ~now ~entry ~key_index ~provider ~parent

let broadcast_search t ~now ~peer ~key_index ~parent =
  let bcast_span = child_id t ~parent in
  let outcome =
    Unstructured_search.search ?span:(opt_span bcast_span) ?deliver:t.net_cast
      t.unstructured t.rng ~online:t.online ~source:peer ~item:key_index
  in
  (* A broadcast advances in synchronous waves; its wall-clock cost is
     one per-hop latency per wave, not per message. *)
  (match t.net with
  | Some h -> Net_hook.advance_rounds h outcome.Unstructured_search.rounds
  | None -> ());
  let provider = outcome.Unstructured_search.provider in
  let messages = outcome.Unstructured_search.messages in
  Histogram.record_int t.ins.broadcast_hist messages;
  Registry.incr t.ins.c_broadcast 1;
  (match provider with
  | Some _ -> Registry.incr t.ins.c_broadcast_found 1
  | None -> ());
  let tracer = t.obs.Obs.tracer in
  if bcast_span >= 0 && Tracer.active tracer Event.Broadcast then
    Tracer.emit tracer
      (Event.make ~time:(child_time t ~now) ~peer ~key_index ~messages
         ~outcome:(if provider = None then Event.Not_found else Event.Found)
         ~span:bcast_span ~parent Event.Broadcast);
  (provider, messages)

let charge t result =
  Metrics.charge t.metrics Metrics.Query_index result.index_messages;
  Metrics.charge t.metrics Metrics.Replica_flood result.replica_flood_messages;
  Metrics.charge t.metrics Metrics.Query_unstructured result.broadcast_messages;
  Metrics.charge t.metrics Metrics.Index_insert result.insert_messages

let query t ~now ~peer ~key_index =
  if key_index < 0 || key_index >= t.config.Config.keys then
    invalid_arg "Pdht.query: key_index out of range";
  if not (t.online peer) then empty_result
  else begin
    (match t.net with Some h -> Net_hook.begin_op h ~now | None -> ());
    (* Root span for the query's causal tree, or -1 when this query is
       sampled out (or tracing is off): every traced step below parents
       under it, directly or through an interior node. *)
    let root =
      match Tracer.sample_root t.obs.Obs.tracer with
      | Some s -> Span.id s
      | None -> -1
    in
    (* Broadcast-search the unstructured overlay on top of [r]; a found
       key is re-inserted through [entry] unless it is [-1]. *)
    let broadcast r ~entry =
      let provider, broadcast_messages =
        broadcast_search t ~now ~peer ~key_index ~parent:root
      in
      match provider with
      | None -> { r with broadcast_messages }
      | Some p ->
          let insert_messages =
            if entry < 0 then 0
            else index_insert t ~now ~entry ~key_index ~provider:p ~parent:root
          in
          { r with source = From_broadcast; provider; broadcast_messages; insert_messages }
    in
    let result =
      match t.config.Config.strategy with
      | Strategy.No_index -> broadcast empty_result ~entry:(-1)
      | (Strategy.Index_all | Strategy.Partial_index _) as strategy -> (
          let partial = Strategy.is_partial strategy in
          let entry = reach_entry t ~now ~parent:root ~peer (entry_point t peer) in
          if entry < 0 then
            (* The baseline indexes everything, so with the index out of
               reach there is nothing else to ask.  The PDHT degrades to
               broadcast, but cannot re-insert what it finds. *)
            if partial then broadcast empty_result ~entry:(-1) else empty_result
          else
            let provider, index_messages, replica_flood_messages =
              index_search t ~now ~entry ~key_index ~parent:root
            in
            let r =
              {
                empty_result with
                index_messages = index_messages + entry_contact ~peer entry;
                replica_flood_messages;
              }
            in
            match provider with
            | Some _ -> { r with source = From_index; provider }
            (* An index miss is final for the baseline; the PDHT falls
               back to broadcast and re-inserts what it finds. *)
            | None -> if partial then broadcast r ~entry else r)
    in
    charge t result;
    (match t.net with Some h -> Net_hook.record_latency h | None -> ());
    Histogram.record_int t.ins.query_cost_hist (total_messages result);
    let tracer = t.obs.Obs.tracer in
    if root >= 0 && Tracer.active tracer Event.Query then
      Tracer.emit tracer
        (Event.make ~time:now ~peer ~key_index ~messages:(total_messages result)
           ~outcome:
             (match result.source with
             | From_index -> Event.Hit
             | From_broadcast -> Event.Found
             | Not_found -> Event.Not_found)
           ~span:root Event.Query);
    result
  end

let update_key t rng ~now ~key_index =
  if key_index < 0 || key_index >= t.config.Config.keys then
    invalid_arg "Pdht.update_key: key_index out of range";
  match t.config.Config.strategy with
  | Strategy.No_index | Strategy.Partial_index _ -> 0
  | Strategy.Index_all ->
      (* Route the new value to a responsible peer, then rumor-spread it
         through the replica subnetwork (Eq. 9's push/pull gossip).  In
         the trace an update is its own rooted tree: a [Gossip] root
         whose message count is the whole update's cost, with the
         contact, the routing lookup and a [detail = "spread"] gossip
         leaf as children. *)
      let issuer = Rng.int rng t.config.Config.num_peers in
      (match t.net with Some h -> Net_hook.begin_op h ~now | None -> ());
      let tracer = t.obs.Obs.tracer in
      let root =
        match Tracer.sample_root tracer with Some s -> Span.id s | None -> -1
      in
      let emit_root ~peer ~messages ~outcome =
        if root >= 0 && Tracer.active tracer Event.Gossip then
          Tracer.emit tracer
            (Event.make ~time:now ~peer ~key_index ~messages ~outcome ~span:root
               Event.Gossip)
      in
      let entry = reach_entry t ~now ~parent:root ~peer:issuer (entry_point t issuer) in
      if entry < 0 then begin
        (* Nothing was sent, so nothing is charged. *)
        emit_root ~peer:issuer ~messages:0 ~outcome:Event.Not_found;
        0
      end
      else begin
        let lookup_span = child_id t ~parent:root in
        let lookup =
          Dht.lookup ?span:(opt_span lookup_span) ?deliver:t.net_rpc t.dht t.rng
            ~online:t.online ~source:entry ~key:t.bitkeys.(key_index)
        in
        record_lookup t ~now:(child_time t ~now) ~peer:entry ~key_index ~span:lookup_span
          ~parent:root lookup;
        let routed = entry_contact ~peer:issuer entry + lookup.Dht.messages in
        match lookup.Dht.responsible with
        | None ->
            Metrics.charge t.metrics Metrics.Update_gossip routed;
            emit_root ~peer:issuer ~messages:routed ~outcome:Event.Not_found;
            routed
        | Some resp ->
            let provider =
              match content_replicas t ~key_index with
              | [||] -> 0
              | reps -> reps.(0)
            in
            let net = replica_net t key_index in
            let spread =
              Rumor.spread rng ~net ~online:t.online ~origin_peer:resp ~push_fanout:2
                ~max_rounds:32
            in
            Array.iter
              (fun member ->
                if t.online member then
                  t.store.put ~peer:member ~key_index ~value:provider ~now ~ttl:forever)
              (Replica_net.replicas net);
            Histogram.record_int t.ins.gossip_rounds_hist spread.Rumor.rounds;
            Registry.incr t.ins.c_gossip_spreads 1;
            if root >= 0 && Tracer.active tracer Event.Gossip then
              Tracer.emit tracer
                (Event.make ~time:(child_time t ~now) ~peer:resp ~key_index
                   ~hops:spread.Rumor.rounds ~messages:spread.Rumor.messages
                   ~detail:"spread" ~span:(child_id t ~parent:root) ~parent:root
                   Event.Gossip);
            let messages = routed + spread.Rumor.messages in
            Metrics.charge t.metrics Metrics.Update_gossip messages;
            emit_root ~peer:resp ~messages ~outcome:Event.Found;
            messages
      end

let rejoin_sync t rng ~now ~peer =
  match t.config.Config.strategy with
  | Strategy.No_index | Strategy.Partial_index _ -> 0
  | Strategy.Index_all ->
      if peer >= t.config.Config.active_members || not (t.online peer) then 0
      else begin
        ignore now;
        (* One pull per replica subnetwork this member participates in:
           contact a random fellow replica for missed updates. *)
        let messages = ref 0 in
        Hashtbl.iter
          (fun _key_index net ->
            if Replica_net.member_of_peer net peer <> None then begin
              let _answered, cost =
                Rumor.pull_missed_updates rng ~net ~online:t.online ~rejoining_peer:peer
              in
              messages := !messages + cost
            end)
          t.replica_nets;
        Metrics.charge t.metrics Metrics.Update_gossip !messages;
        !messages
      end

let indexed_key_count t ~now = Census.count (t.store.census ~now)

(* Crash-stop consequences inside the PDHT state.  The caller (the
   fault injector's actions, wired by {!System}) owns the liveness
   predicate; this only destroys state.  Returns
   (live index entries lost, content items lost). *)
let crash_peer t ~peer ~now =
  if peer < 0 || peer >= t.config.Config.num_peers then
    invalid_arg "Pdht.crash_peer: bad peer";
  let entries_lost =
    if peer < t.config.Config.active_members then begin
      Dht.forget_routes t.dht ~peer;
      t.store.clear ~peer ~now
    end
    else 0
  in
  let content_lost = Replication.remove_peer t.content ~peer in
  (entries_lost, content_lost)

(* Rejoin-empty: a member rebuilds routing state via its backend's join
   protocol (charged to maintenance); its index cache stays empty until
   repair or organic re-insertion refills it.  Non-members carry no
   routing or index state, so their recovery is free. *)
let recover_peer t rng ~peer =
  if peer < 0 || peer >= t.config.Config.num_peers then
    invalid_arg "Pdht.recover_peer: bad peer";
  if peer < t.config.Config.active_members then begin
    let messages = Dht.rebuild_routes t.dht rng ~online:t.online ~peer in
    Metrics.charge t.metrics Metrics.Maintenance messages;
    messages
  end
  else 0

(* One anti-entropy pass (the scheduled half of self-healing; the
   organic half is [index_insert] on the query path).

   Content: any item whose online replica count fell below
   [ceil (min_fraction * repl)] is topped back up to [repl] online
   holders, copying from a surviving replica (2 messages per new copy:
   request + data).  Needs at least one online source.

   Index: for every key whose replica subnetwork is materialised, if
   some online group member still caches the key, copy it (with its
   remaining TTL — repair must not extend a key's life, or it would
   fight the paper's selection algorithm) to the online members that
   lost it.  One probe message per member scanned, one per copy.

   Returns (messages, content items repaired, index entries copied);
   messages are charged to [Maintenance].  [span] is the repair root
   span id from the fault injector (when tracing): the pass's summary
   [Maintenance] event parents under it. *)
let repair_pass ?span t rng ~now ~min_fraction =
  if not (min_fraction > 0. && min_fraction <= 1.) then
    invalid_arg "Pdht.repair_pass: min_fraction must be in (0, 1]";
  let repl = t.config.Config.repl in
  let num_peers = t.config.Config.num_peers in
  let threshold = int_of_float (Float.ceil (min_fraction *. float_of_int repl)) in
  let messages = ref 0 in
  let repaired_items = ref 0 in
  let repaired_entries = ref 0 in
  for key_index = 0 to t.config.Config.keys - 1 do
    let reps = Replication.replicas t.content ~item:key_index in
    let live = Array.fold_left (fun n p -> if t.online p then n + 1 else n) 0 reps in
    if live >= 1 && live < threshold then begin
      let want = repl - live in
      let fresh = ref [] in
      let found = ref 0 in
      let attempts = ref ((20 * want) + 50) (* random-candidate probe budget *) in
      while !found < want && !attempts > 0 do
        decr attempts;
        let cand = Rng.int rng num_peers in
        if
          t.online cand
          && (not (Replication.holds t.content ~peer:cand ~item:key_index))
          && not (List.mem cand !fresh)
        then begin
          fresh := cand :: !fresh;
          incr found
        end
      done;
      match !fresh with
      | [] -> ()
      | fresh ->
          let merged = Array.append reps (Array.of_list fresh) in
          Replication.place_on t.content ~item:key_index ~replicas:merged;
          messages := !messages + (2 * List.length fresh);
          incr repaired_items
    end
  done;
  (match t.config.Config.strategy with
  | Strategy.No_index -> ()
  | Strategy.Index_all | Strategy.Partial_index _ ->
      for key_index = 0 to t.config.Config.keys - 1 do
        match Hashtbl.find_opt t.replica_nets key_index with
        | None -> () (* never queried: nothing to repair *)
        | Some net ->
            let group = Replica_net.replicas net in
            (* Find a surviving online holder and its entry; every
               probe is a message. *)
            let rec find i =
              if i = Array.length group then None
              else
                let member = group.(i) in
                if not (t.online member) then find (i + 1)
                else begin
                  incr messages;
                  match t.store.peek ~peer:member ~key_index ~now with
                  | Some (provider, expiry) -> Some (member, provider, expiry -. now)
                  | None -> find (i + 1)
                end
            in
            match find 0 with
            | None -> ()
            | Some (holder, provider, remaining) ->
                Array.iter
                  (fun member ->
                    if
                      member <> holder && t.online member
                      && t.store.peek ~peer:member ~key_index ~now = None
                    then begin
                      t.store.put ~peer:member ~key_index ~value:provider ~now
                        ~ttl:remaining;
                      incr messages;
                      incr repaired_entries
                    end)
                  group
      done);
  Metrics.charge t.metrics Metrics.Maintenance !messages;
  let tracer = t.obs.Obs.tracer in
  if Tracer.active tracer Event.Maintenance then begin
    let parent = match span with Some s -> s | None -> -1 in
    Tracer.emit tracer
      (Event.make ~time:now ~messages:!messages ~detail:"repair"
         ~span:(child_id t ~parent) ~parent Event.Maintenance)
  end;
  (!messages, !repaired_items, !repaired_entries)

let store_live_count t ~now ~peer =
  if peer < 0 || peer >= t.config.Config.active_members then
    invalid_arg "Pdht.store_live_count: not a member";
  t.store.live_count ~peer ~now

let index_hit_probe t ~now ~key_index =
  let key = t.bitkeys.(key_index) in
  match Dht.responsible t.dht ~online:t.online key with
  | None -> false
  | Some responsible ->
      let group = Dht.replica_group t.dht ~repl:t.config.Config.repl key in
      let live member = t.store.peek ~peer:member ~key_index ~now <> None in
      live responsible || Array.exists (fun member -> t.online member && live member) group
