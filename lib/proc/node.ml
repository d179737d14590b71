module Wire = Pdht_wire.Wire
module Storage = Pdht_dht.Storage
module Registry = Pdht_obs.Registry
module Export = Pdht_obs.Export
module Census = Pdht_core.Pdht.Census

type shard = {
  node_id : int;
  nodes : int;
  keys : int;
  stores : int Storage.t option array;  (* member -> store iff owned *)
  owned : int Storage.t array;  (* the [Some] stores, for the census *)
}

let build_shard ~node_id ~nodes ~members ~keys ~stor =
  (* The same store construction and keying by key index as
     [Pdht.create], so a sharded run is state-for-state the in-process
     run, split by member. *)
  let stores =
    Array.init members (fun m ->
        if m mod nodes = node_id then
          Some (Storage.create ~capacity:stor ())
        else None)
  in
  let owned = Array.of_list (List.filter_map Fun.id (Array.to_list stores)) in
  { node_id; nodes; keys; stores; owned }

let store shard ~peer =
  match shard.stores.(peer) with
  | Some s -> s
  | None ->
      failwith
        (Printf.sprintf "node %d: not the owner of member %d" shard.node_id peer)

let key shard ~key_index =
  if key_index < 0 || key_index >= shard.keys then
    failwith (Printf.sprintf "node %d: key index %d out of range" shard.node_id key_index);
  Pdht_util.Bitkey.of_int key_index

let serve ?obs_out ~node_id conn =
  let registry = Registry.create () in
  let counter name = Registry.counter registry name in
  let frames_in = counter "proc.frames_in"
  and frames_out = counter "proc.frames_out"
  and hops = counter "proc.hops"
  and casts = counter "proc.casts"
  and gets = counter "proc.gets"
  and puts = counter "proc.puts"
  and probes = counter "proc.probes" in
  let reply msg =
    Registry.incr frames_out 1;
    Frame_io.send conn msg
  in
  reply (Wire.Hello { node_id });
  let shard =
    match Frame_io.recv conn with
    | Ok (Wire.Setup { nodes; members; keys; stor; eviction; seed = _ }) -> (
        Registry.incr frames_in 1;
        (* Setup.eviction keeps its wire slot for benchmark/layers.ml;
           0 (soonest expiry) is the only code. *)
        if eviction <> 0 then
          failwith (Printf.sprintf "node %d: unknown eviction code %d" node_id eviction);
        build_shard ~node_id ~nodes ~members ~keys ~stor)
    | Ok msg ->
        failwith
          (Format.asprintf "node %d: expected Setup, got %a" node_id Wire.pp msg)
    | Error e ->
        failwith
          (Printf.sprintf "node %d: %s" node_id (Frame_io.recv_error_to_string e))
  in
  let flush_obs () =
    match obs_out with
    | Some path ->
        Export.to_file ~node:node_id ~path (Registry.snapshot registry)
    | None -> ()
  in
  let rec loop () =
    match Frame_io.recv conn with
    | Error Frame_io.Closed ->
        (* Conductor gone without [Bye]; keep whatever telemetry we
           have rather than losing the run's worth. *)
        flush_obs ()
    | Error e ->
        failwith
          (Printf.sprintf "node %d: %s" node_id (Frame_io.recv_error_to_string e))
    | Ok msg -> (
        Registry.incr frames_in 1;
        match msg with
        | Wire.Lookup { rid; span = _; src = _; dst = _; key = _ } ->
            (* The routing decision lives with the conductor; the hop is
               materialised here so it crosses a real socket. *)
            Registry.incr hops 1;
            reply (Wire.Ack { rid; ok = true; value = 0 });
            loop ()
        | Wire.Gossip _ ->
            Registry.incr casts 1;
            loop ()
        | Wire.Insert { rid; peer; key = key_index; value; now; ttl } ->
            Registry.incr puts 1;
            Storage.put (store shard ~peer) ~key:(key shard ~key_index) ~value ~now
              ~ttl;
            reply (Wire.Ack { rid; ok = true; value = 0 });
            loop ()
        | Wire.Get { rid; peer; key = key_index; refresh; now; ttl } ->
            Registry.incr gets 1;
            let s = store shard ~peer in
            let k = key shard ~key_index in
            let found =
              if refresh then
                Option.map
                  (fun v -> (v, now +. ttl))
                  (Storage.get_and_refresh s ~key:k ~now ~ttl)
              else Storage.peek s ~key:k ~now
            in
            (match found with
            | Some (value, expiry) -> reply (Wire.Entry { rid; ok = true; value; expiry })
            | None -> reply (Wire.Entry { rid; ok = false; value = 0; expiry = 0.0 }));
            loop ()
        | Wire.Probe { rid; op; peer; now } ->
            Registry.incr probes 1;
            let s = store shard ~peer in
            let value =
              match op with
              | Wire.Live_count -> Storage.live_count s ~now
              | Wire.Clear -> Storage.clear s
            in
            reply (Wire.Ack { rid; ok = true; value });
            loop ()
        | Wire.Census { rid; now } ->
            (* A whole-shard read: counted with the other whole-store
               operations. *)
            Registry.incr probes 1;
            let bits = Census.of_stores ~keys:shard.keys ~now shard.owned in
            reply (Wire.Keys { rid; bits = Bytes.unsafe_to_string bits });
            loop ()
        | Wire.Snapshot { rid } ->
            let counters =
              List.filter_map
                (fun (name, value) ->
                  match value with
                  | Registry.Counter_v n -> Some (name, n)
                  | _ -> None)
                (Registry.snapshot registry)
            in
            reply (Wire.Counters { rid; node_id; counters });
            loop ()
        | Wire.Bye -> flush_obs ()
        | Wire.Hello _ | Wire.Setup _ | Wire.Ack _ | Wire.Entry _ | Wire.Keys _
        | Wire.Counters _ ->
            failwith
              (Format.asprintf "node %d: unexpected frame %a" node_id Wire.pp msg))
  in
  loop ()

let run ?obs_out ~port ~node_id () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let conn =
    try
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Frame_io.of_fd fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  Fun.protect
    ~finally:(fun () -> Frame_io.close conn)
    (fun () -> serve ?obs_out ~node_id conn)
