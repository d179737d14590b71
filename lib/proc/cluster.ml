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

(* One conductor->worker frame identifier space for the whole run. *)
let next_rid = ref 0

let fresh_rid () =
  incr next_rid;
  !next_rid

(* At most this many frames are posted to one worker between waits on
   it.  So at most this many Acks (23 bytes each, 6 KiB in all) queue up
   in its socket, far below a loopback socket buffer: a worker never
   blocks writing replies while the conductor is still writing
   requests. *)
let window = 256

(* A worker connection as a pipeline: frames are posted without waiting,
   and [pending] holds, oldest first, those the worker has yet to
   answer — a ring of [window] slots from [first]. *)
type link = {
  conn : Frame_io.t;
  pending : Wire.msg array;
  mutable first : int;
  mutable unanswered : int;
  mutable posted : int; (* frames posted since the last wait *)
  mutable reply : Wire.msg; (* the newest answer *)
}

let request_rid = function
  | Wire.Lookup { rid; _ } | Wire.Insert { rid; _ } | Wire.Get { rid; _ }
  | Wire.Probe { rid; _ } | Wire.Census { rid; _ } | Wire.Snapshot { rid }
  | Wire.Find { rid; _ } ->
      rid
  | _ -> -1

(* [Some ok] when [reply] answers [frame] ([ok = false] is an Ack's
   refusal), [None] when it answers something else. *)
let answer_to frame reply =
  match (frame, reply) with
  | (Wire.Lookup { rid; _ } | Wire.Insert { rid; _ } | Wire.Probe { rid; _ }), Wire.Ack a
    when a.rid = rid ->
      Some a.ok
  | Wire.Find { rid; _ }, Wire.Found f when f.rid = rid -> Some true
  | Wire.Get { rid; _ }, Wire.Entry e when e.rid = rid -> Some true
  | Wire.Census { rid; _ }, Wire.Keys r when r.rid = rid -> Some true
  | Wire.Snapshot { rid }, Wire.Counters c when c.rid = rid -> Some true
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
  | Wire.Find _ -> "Find"
  | Wire.Found _ -> "Found"

let describe frame = Printf.sprintf "%s rid %d" (frame_kind frame) (request_rid frame)

let first_holder ~nodes ~expect ~await_all ~peers ~count ~key_index ~now ~ttl =
  (* The candidate positions whose member worker [k] owns, in order. *)
  let at =
    Array.init nodes (fun k ->
        let l = ref [] in
        for i = count - 1 downto 0 do
          if peers.(i) mod nodes = k then l := i :: !l
        done;
        Array.of_list !l)
  in
  let asked = List.filter (fun k -> at.(k) <> [||]) (List.init nodes Fun.id) in
  List.iter
    (fun k ->
      let members = Array.map (fun i -> peers.(i)) at.(k) in
      expect k (Wire.Find { rid = fresh_rid (); key = key_index; now; peers = members }))
    asked;
  (* The first live holder is the lowest position any worker found. *)
  let winner = ref count and value = ref 0 in
  List.iter2
    (fun k reply ->
      match reply with
      | Wire.Found { pos; value = v; _ } when pos >= -1 && pos < Array.length at.(k) ->
          if pos >= 0 && at.(k).(pos) < !winner then begin
            winner := at.(k).(pos);
            value := v
          end
      | msg -> failwith (Format.asprintf "cluster: node %d answered a Find with %a" k Wire.pp msg))
    asked (await_all asked);
  if !winner = count then None
  else begin
    let peer = peers.(!winner) in
    expect (peer mod nodes)
      (Wire.Get { rid = fresh_rid (); peer; key = key_index; refresh = true; now; ttl });
    Some (!winner, !value)
  end

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
  let fail k fmt =
    Printf.ksprintf
      (fun what ->
        failwith
          (Printf.sprintf "cluster: node %d %s (last frame sent: %s)" k what last_frame.(k)))
      fmt
  in
  (* Fail fast with the worker's fate — node id, exit status, the last
     frame we sent it — instead of burning the whole RPC retry ladder
     against a dead process. *)
  let check_dead k =
    if not reaped.(k) then
      match Unix.waitpid [ Unix.WNOHANG ] pids.(k) with
      | 0, _ -> ()
      | _, status ->
          reaped.(k) <- true;
          fail k "%s" (status_to_string status)
      | exception Unix.Unix_error _ -> ()
  in
  (* The socket EOF or broken pipe can beat the worker's exit by a
     moment; give the death probe a short grace so the failure names the
     process's fate rather than just a dead socket. *)
  let gone k how =
    for _ = 1 to 20 do
      check_dead k;
      ignore (Unix.select [] [] [] 0.01)
    done;
    check_dead k;
    fail k "%s its connection" how
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
  let links =
    Array.map
      (fun conn ->
        { conn; pending = Array.make window Wire.Bye; first = 0; unanswered = 0; posted = 0;
          reply = Wire.Bye })
      !conns
  in
  let budget =
    List.fold_left ( +. ) 0.
      (List.init (Pdht_net.Config.attempts ladder) (fun attempt ->
           Pdht_net.Config.timeout_for ladder ~attempt))
  in
  (* The one wait on worker [k]: write everything posted to it and take
     its answers, each checked against the oldest unanswered frame,
     until none is left; the newest answer stays in [reply].  The wait
     runs the net retry ladder against absolute wall-clock deadlines,
     probing for the worker's death between attempts.  Nothing is
     resent: TCP already delivered every frame. *)
  let await k =
    let l = links.(k) in
    l.posted <- 0;
    let attempt ~attempt ~timeout =
      if attempt > 0 then check_dead k;
      let deadline = Unix.gettimeofday () +. timeout in
      let rec next () =
        if l.unanswered = 0 then
          match Frame_io.flush ~deadline l.conn with Ok () -> Some () | Error _ -> None
        else
          match Frame_io.recv ~deadline l.conn with
          | Ok reply -> (
              let frame = l.pending.(l.first) in
              match answer_to frame reply with
              | Some true ->
                  l.first <- (l.first + 1) mod window;
                  l.unanswered <- l.unanswered - 1;
                  l.reply <- reply;
                  next ()
              | Some false -> fail k "refused %s" (describe frame)
              | None ->
                  fail k "answered %s to %s" (Format.asprintf "%a" Wire.pp reply)
                    (describe frame))
          | Error Frame_io.Timeout -> None
          | Error Frame_io.Closed -> gone k "closed"
          | Error (Frame_io.Wire e) ->
              fail k "sent a corrupt frame: %s" (Wire.error_to_string e)
      in
      try next ()
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> gone k "dropped"
    in
    match Pdht_net.Config.call ladder attempt with
    | Some () -> ()
    | None when l.unanswered > 0 ->
        fail k "did not answer within %g s; oldest unanswered frame: %s" budget
          (describe l.pending.(l.first))
    | None -> fail k "did not read its frames within %g s" budget
  in
  let post k frame =
    let l = links.(k) in
    last_frame.(k) <- frame_kind frame;
    Frame_io.post l.conn frame;
    l.posted <- l.posted + 1;
    if l.posted = window then await k
  in
  (* Post a frame the worker answers; the answer is checked at the next
     wait on the worker. *)
  let expect k frame =
    let l = links.(k) in
    l.pending.((l.first + l.unanswered) mod window) <- frame;
    l.unanswered <- l.unanswered + 1;
    post k frame
  in
  let call k frame =
    expect k frame;
    await k;
    links.(k).reply
  in
  (* One wait on several workers: write what is posted to each of them
     first, as far as the sockets take it now, so that they all work at
     once; then take each one's answers. *)
  let await_all ks =
    List.iter
      (fun k ->
        try ignore (Frame_io.flush ~deadline:(Unix.gettimeofday ()) links.(k).conn)
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> gone k "dropped")
      ks;
    List.map
      (fun k ->
        await k;
        links.(k).reply)
      ks
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
  Array.iteri (fun k _ -> post k setup) links;
  let unexpected want msg =
    failwith (Format.asprintf "cluster: expected %s, got %a" want Wire.pp msg)
  in
  let get ~peer ~key_index ~refresh ~now ~ttl =
    match
      call (owner peer)
        (Wire.Get { rid = fresh_rid (); peer; key = key_index; refresh; now; ttl })
    with
    | Wire.Entry { ok; value; expiry; _ } -> if ok then Some (value, expiry) else None
    | msg -> unexpected "Entry" msg
  in
  let probe ~peer op ~now =
    match call (owner peer) (Wire.Probe { rid = fresh_rid (); op; peer; now }) with
    | Wire.Ack { value; _ } -> value
    | msg -> unexpected "Ack" msg
  in
  (* One Census per worker; the index holds a key when any shard does. *)
  let census ~now =
    let keys = scenario.Scenario.keys in
    let want = Pdht.Census.bitmap_bytes ~keys in
    let bits = Bytes.make want '\000' in
    for k = 0 to config.nodes - 1 do
      match call k (Wire.Census { rid = fresh_rid (); now }) with
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
  (* An Insert's or a Lookup's Ack carries nothing: both are posted, and
     a refusal fails the run at the next wait on the worker. *)
  let store : Pdht.store_ops =
    {
      get_and_refresh =
        (fun ~peer ~key_index ~now ~ttl ->
          Option.map fst (get ~peer ~key_index ~refresh:true ~now ~ttl));
      first_holder =
        (fun ~peers ~count ~key_index ~now ~ttl ->
          first_holder ~nodes:config.nodes ~expect ~await_all ~peers ~count ~key_index ~now
            ~ttl);
      put =
        (fun ~peer ~key_index ~value ~now ~ttl ->
          expect (owner peer)
            (Wire.Insert { rid = fresh_rid (); peer; key = key_index; value; now; ttl }));
      peek =
        (fun ~peer ~key_index ~now -> get ~peer ~key_index ~refresh:false ~now ~ttl:0.0);
      clear = (fun ~peer ~now -> probe ~peer Wire.Clear ~now);
      live_count = (fun ~peer ~now -> probe ~peer Wire.Live_count ~now);
      census;
    }
  in
  let span_id = function Some s -> s | None -> -1 in
  let rpc ~span ~src ~dst =
    expect (owner dst)
      (Wire.Lookup { rid = fresh_rid (); span = span_id span; src; dst; key = -1 });
    true
  in
  let cast ~span ~src ~dst =
    post (owner dst) (Wire.Gossip { span = span_id span; src; dst; key = -1 });
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
    match call k (Wire.Snapshot { rid = fresh_rid () }) with
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
  Array.iteri
    (fun k _ ->
      post k Wire.Bye;
      await k)
    links;
  Array.iteri
    (fun k pid ->
      ignore (Unix.waitpid [] pid);
      reaped.(k) <- true)
    pids;
  report
