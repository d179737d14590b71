module Wire = Pdht_wire.Wire
module System = Pdht_core.System
module Pdht = Pdht_core.Pdht
module Scenario = Pdht_work.Scenario
module Registry = Pdht_obs.Registry
module Export = Pdht_obs.Export

type config = { nodes : int; exe : string; obs_dir : string option }

let default_config ~nodes ~exe = { nodes; exe; obs_dir = None }

(* Wall-clock deadlines for conductor->worker calls: the network
   model's default ladder. *)
let ladder = Pdht_net.Config.default

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Cluster.run: %s is not a directory" dir)

let node_obs_path dir k = Filename.concat dir (Printf.sprintf "node-%d.jsonl" k)

(* One conductor->worker RPC identifier space for the whole run, so a
   stale reply (from a timed-out attempt the worker answered late) can
   never be mistaken for the current call's. *)
let next_rid = ref 0

let rid_of = function
  | Wire.Ack { rid; _ } | Wire.Entry { rid; _ } | Wire.Keys { rid; _ } | Wire.Counters { rid; _ }
    ->
      Some rid
  | _ -> None

let frame_kind = function
  | Wire.Hello _ -> "Hello"
  | Wire.Setup _ -> "Setup"
  | Wire.Lookup _ -> "Lookup"
  | Wire.Insert _ -> "Insert"
  | Wire.Gossip _ -> "Gossip"
  | Wire.Get _ -> "Get"
  | Wire.Probe _ -> "Probe"
  | Wire.Ack _ -> "Ack"
  | Wire.Entry _ -> "Entry"
  | Wire.Snapshot _ -> "Snapshot"
  | Wire.Counters _ -> "Counters"
  | Wire.Bye -> "Bye"
  | Wire.Census _ -> "Census"
  | Wire.Keys _ -> "Keys"

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with status %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s

let spawn config ~port k =
  let base =
    [ config.exe; "node"; "--connect"; string_of_int port;
      "--node-id"; string_of_int k ]
  in
  let argv =
    match config.obs_dir with
    | Some dir -> base @ [ "--obs-out"; node_obs_path dir k ]
    | None -> base
  in
  Unix.create_process config.exe (Array.of_list argv) Unix.stdin Unix.stdout
    Unix.stderr

let accept_deadline = 30.0

let accept_workers lsock ~nodes =
  let conns = Array.make nodes None in
  for _ = 1 to nodes do
    let deadline = Unix.gettimeofday () +. accept_deadline in
    (match Unix.select [ lsock ] [] [] accept_deadline with
    | [], _, _ -> failwith "cluster: timed out waiting for workers to connect"
    | _ -> ());
    let fd, _ = Unix.accept lsock in
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    let conn = Frame_io.of_fd fd in
    match Frame_io.recv ~deadline conn with
    | Ok (Wire.Hello { node_id })
      when node_id >= 0 && node_id < nodes && conns.(node_id) = None ->
        conns.(node_id) <- Some conn
    | Ok msg ->
        failwith (Format.asprintf "cluster: expected a fresh Hello, got %a" Wire.pp msg)
    | Error e ->
        failwith ("cluster: during handshake: " ^ Frame_io.recv_error_to_string e)
  done;
  Array.map Option.get conns

let run ?obs config scenario strategy (options : System.options) =
  if config.nodes < 1 then invalid_arg "Cluster.run: nodes must be >= 1";
  (match options.System.net with
  | Some _ ->
      invalid_arg "Cluster.run: a network model and a real transport are mutually exclusive"
  | None -> ());
  Option.iter ensure_dir config.obs_dir;
  let obs = match obs with Some o -> o | None -> Pdht_obs.Context.create () in
  let members = System.plan_active_members scenario options strategy in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock config.nodes;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  (* A write into a dead worker's socket must surface as EPIPE, not
     kill the conductor. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let pids = Array.init config.nodes (spawn config ~port) in
  let conns = ref [||] in
  let reaped = Array.make config.nodes false in
  let last_frame = Array.make config.nodes "none" in
  (* Fail fast with the worker's fate — node id, exit status, the last
     frame we sent it — instead of burning the whole RPC retry ladder
     against a dead process. *)
  let check_dead k =
    if not reaped.(k) then
      match Unix.waitpid [ Unix.WNOHANG ] pids.(k) with
      | 0, _ -> ()
      | _, status ->
          reaped.(k) <- true;
          failwith
            (Printf.sprintf "cluster: node %d %s (last frame sent: %s)" k
               (status_to_string status) last_frame.(k))
      | exception Unix.Unix_error _ -> ()
  in
  let cleanup () =
    Array.iter Frame_io.close !conns;
    Array.iteri
      (fun k pid ->
        if not reaped.(k) then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          reaped.(k) <- true
        end)
      pids
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  conns := accept_workers lsock ~nodes:config.nodes;
  Unix.close lsock;
  let conn k = !conns.(k) in
  let send_to k frame =
    last_frame.(k) <- frame_kind frame;
    try Frame_io.send (conn k) frame
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      check_dead k;
      failwith
        (Printf.sprintf "cluster: node %d dropped its connection (last frame sent: %s)"
           k last_frame.(k))
  in
  let owner m = m mod config.nodes in
  let setup =
    Wire.Setup
      {
        nodes = config.nodes;
        members;
        keys = scenario.Scenario.keys;
        stor = options.System.stor;
        eviction = 0;
        seed = scenario.Scenario.seed;
      }
  in
  Array.iteri (fun k _ -> send_to k setup) !conns;
  (* Synchronous request/reply with real deadlines: each attempt of the
     net retry ladder sends the frame and waits for its reply until an
     absolute wall-clock deadline. *)
  let call k make_frame =
    incr next_rid;
    let rid = !next_rid in
    let frame = make_frame rid in
    let c = conn k in
    let attempt ~attempt ~timeout =
      if attempt > 0 then check_dead k;
      send_to k frame;
      let deadline = Unix.gettimeofday () +. timeout in
      let rec await () =
        match Frame_io.recv ~deadline c with
        | Ok reply when rid_of reply = Some rid -> Some reply
        | Ok _ ->
            (* A late answer to an attempt we already gave up on. *)
            await ()
        | Error Frame_io.Timeout -> None
        | Error Frame_io.Closed ->
            (* The socket EOF can beat the worker's exit by a moment;
               give the death probe a short grace so the failure names
               the process's fate rather than just a dead socket. *)
            let rec probe tries =
              check_dead k;
              if tries > 0 then begin
                ignore (Unix.select [] [] [] 0.01);
                probe (tries - 1)
              end
            in
            probe 20;
            failwith
              (Printf.sprintf
                 "cluster: node %d closed its connection (last frame sent: %s)" k
                 last_frame.(k))
        | Error (Frame_io.Wire e) ->
            failwith
              (Printf.sprintf "cluster: corrupt frame from node %d: %s" k
                 (Wire.error_to_string e))
      in
      await ()
    in
    match Pdht_net.Config.call ladder attempt with
    | Some reply -> reply
    | None ->
        failwith
          (Printf.sprintf
             "cluster: rpc to node %d gave up after %d attempts (last frame sent: %s)" k
             (Pdht_net.Config.attempts ladder) last_frame.(k))
  in
  let unexpected want msg =
    failwith (Format.asprintf "cluster: expected %s, got %a" want Wire.pp msg)
  in
  let ack ~peer make_frame =
    match call (owner peer) make_frame with
    | Wire.Ack { ok; value; _ } -> (ok, value)
    | msg -> unexpected "Ack" msg
  in
  let get ~peer ~key_index ~refresh ~now ~ttl =
    match
      call (owner peer) (fun rid -> Wire.Get { rid; peer; key = key_index; refresh; now; ttl })
    with
    | Wire.Entry { ok; value; expiry; _ } -> if ok then Some (value, expiry) else None
    | msg -> unexpected "Entry" msg
  in
  let probe ~peer op ~now = snd (ack ~peer (fun rid -> Wire.Probe { rid; op; peer; now })) in
  (* One Census per worker; the index holds a key when any shard does. *)
  let census ~now =
    let keys = scenario.Scenario.keys in
    let want = Pdht.Census.bitmap_bytes ~keys in
    let bits = Bytes.make want '\000' in
    for k = 0 to config.nodes - 1 do
      match call k (fun rid -> Wire.Census { rid; now }) with
      | Wire.Keys { bits = shard; _ } ->
          if String.length shard <> want then
            failwith
              (Printf.sprintf
                 "cluster: node %d sent a %d-byte census bitmap; %d keys need %d bytes" k
                 (String.length shard) keys want);
          for i = 0 to want - 1 do
            Bytes.set bits i (Char.chr (Char.code (Bytes.get bits i) lor Char.code shard.[i]))
          done
      | msg -> unexpected "Keys" msg
    done;
    bits
  in
  let store : Pdht.store_ops =
    {
      get_and_refresh =
        (fun ~peer ~key_index ~now ~ttl ->
          Option.map fst (get ~peer ~key_index ~refresh:true ~now ~ttl));
      put =
        (fun ~peer ~key_index ~value ~now ~ttl ->
          ignore
            (ack ~peer (fun rid -> Wire.Insert { rid; peer; key = key_index; value; now; ttl })));
      peek =
        (fun ~peer ~key_index ~now -> get ~peer ~key_index ~refresh:false ~now ~ttl:0.0);
      clear = (fun ~peer -> probe ~peer Wire.Clear ~now:0.0);
      live_count = (fun ~peer ~now -> probe ~peer Wire.Live_count ~now);
      census;
    }
  in
  let span_id = function Some s -> s | None -> -1 in
  let rpc ~span ~src ~dst =
    fst
      (ack ~peer:dst (fun rid -> Wire.Lookup { rid; span = span_id span; src; dst; key = -1 }))
  in
  let cast ~span ~src ~dst =
    send_to (owner dst) (Wire.Gossip { span = span_id span; src; dst; key = -1 });
    true
  in
  let report =
    System.run ~obs ~transport:{ Pdht.store; rpc; cast } scenario strategy options
  in
  (* Merge worker counters only after the report is rendered from the
     conductor's registry: the merge can never perturb the
     sim-equivalence contract. *)
  let merged = Registry.create () in
  Registry.merge_into (Pdht_obs.Context.registry obs) ~into:merged;
  for k = 0 to config.nodes - 1 do
    match call k (fun rid -> Wire.Snapshot { rid }) with
    | Wire.Counters { counters; _ } ->
        List.iter
          (fun (name, value) -> Registry.incr (Registry.counter merged name) value)
          counters
    | msg -> unexpected "Counters" msg
  done;
  Option.iter
    (fun dir ->
      Export.to_file ~run:scenario.Scenario.name
        ~path:(Filename.concat dir "merged.jsonl")
        (Registry.snapshot merged))
    config.obs_dir;
  Array.iteri (fun k _ -> send_to k Wire.Bye) !conns;
  Array.iteri
    (fun k pid ->
      ignore (Unix.waitpid [] pid);
      reaped.(k) <- true)
    pids;
  report
