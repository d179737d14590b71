(* Layer costs: the hot operation of each layer, called through its
   public interface on inputs shaped like the workloads, as time per
   operation (median and quartiles over the samples) plus minor words
   allocated per operation. *)

module Rng = Pdht_util.Rng
module Storage = Pdht_dht.Storage
module Dht = Pdht_dht.Dht
module Wire = Pdht_wire.Wire
module Frame_io = Pdht_proc.Frame_io

type cost = {
  name : string;  (** e.g. [dht.lookup_ns.pgrid-453] *)
  words_name : string;  (** e.g. [dht.lookup_words.pgrid-453] *)
  unit : string;  (** "ns", or "us" for the socket round trip *)
  summary : Stats.summary;
  minor_words : float;  (** per operation, median over the samples *)
}

type settings = { samples : int; sample_s : float }

let full = { samples = 7; sample_s = 0.02 }
let quick = { samples = 5; sample_s = 0.002 }

(* Time [op 0 .. op (n-1)] in batches sized so one sample lasts about
   [settings.sample_s]; every sample replays the same batch of inputs.
   [scale] converts ns to [unit]. *)
let measure ?(unit = "ns") ?(scale = 1.) ?(variant = "") settings layer op =
  let run_batch n =
    let t0 = Timing.now_ns () in
    for i = 0 to n - 1 do
      op i
    done;
    Timing.seconds_since t0
  in
  let rec calibrate n =
    if run_batch n >= settings.sample_s || n >= 1 lsl 24 then n else calibrate (2 * n)
  in
  let batch = calibrate 1 in
  let samples =
    List.init settings.samples (fun _ ->
        let w0 = Gc.minor_words () in
        let s = run_batch batch in
        let w1 = Gc.minor_words () in
        (s *. 1e9 /. float_of_int batch /. scale, (w1 -. w0) /. float_of_int batch))
  in
  {
    name = layer ^ "_" ^ unit ^ variant;
    words_name = layer ^ "_words" ^ variant;
    unit;
    summary = Stats.summarize (List.map fst samples);
    minor_words = Stats.median (List.map snd samples);
  }

let workload_key i =
  Pdht_util.Hashing.hash_to_key (Pdht_util.Hashing.combine [ "key"; string_of_int i ])

(* Operation [i]'s input from a precomputed table, so input generation
   stays out of the timed operation. *)
let inputs n f =
  let table = Array.init n f in
  fun i -> table.(i mod n)

let always_online _ = true

(* 1,024 pending events: the depth of a churn workload's queue, one
   session toggle per peer. *)
let event_queue settings =
  let module Q = Pdht_sim.Event_queue in
  let rng = Rng.create ~seed:1 in
  let q = Q.create () in
  for _ = 1 to 1024 do
    Q.add q ~time:(Rng.float rng 100.) ()
  done;
  let delay = inputs 4096 (fun _ -> Rng.float rng 100.) in
  measure settings "simkernel.event_queue_add_pop" (fun i ->
      let t = Q.min_time q in
      Q.pop_min q;
      Q.add q ~time:(t +. delay i) ())

(* A full 100-entry index cache, as every member's is in steady state. *)
let full_store () =
  let s = Storage.create ~capacity:100 () in
  for i = 0 to 99 do
    Storage.put s ~key:(workload_key i) ~value:i ~now:0. ~ttl:1e9
  done;
  s

let storage settings =
  let hit =
    let s = full_store () in
    let key = inputs 100 workload_key in
    measure settings "dht.storage_get_hit" (fun i ->
        ignore (Storage.get_and_refresh s ~key:(key i) ~now:1. ~ttl:1e9))
  in
  let put_evict =
    (* 1,000 keys cycling through 100 slots: every put misses and
       evicts the entry closest to expiry. *)
    let s = full_store () in
    let key = inputs 1_000 (fun i -> workload_key (100 + i)) in
    let now = ref 1. in
    measure settings "dht.storage_put_evict" (fun i ->
        now := !now +. 1e-3;
        Storage.put s ~key:(key i) ~value:0 ~now:!now ~ttl:100.)
  in
  let expire =
    let s = full_store () in
    measure settings "dht.storage_expire" (fun _ -> ignore (Storage.expire s ~now:1.))
  in
  [ hit; put_evict; expire ]

(* ".pgrid-453": the backend label without its dash, and the size. *)
let lookup_variant backend members =
  let label = String.concat "" (String.split_on_char '-' (Dht.backend_label backend)) in
  Printf.sprintf ".%s-%d" label members

let lookup_name backend members = "dht.lookup_ns" ^ lookup_variant backend members

(* The DHT [Pdht.create] builds for [members] at [repl], routing to the
   workload's keys from random members. *)
let lookup settings ~backend ~members ~repl =
  let rng = Rng.create ~seed:2 in
  let dht = Dht.create rng ~backend ~members ~leaf_size:repl () in
  let input = inputs 4096 (fun _ -> (Rng.int rng members, workload_key (Rng.int rng 2_000))) in
  measure ~variant:(lookup_variant backend members) settings "dht.lookup" (fun i ->
      let source, key = input i in
      ignore (Dht.lookup dht rng ~online:always_online ~source ~key))

let search_variant peers = Printf.sprintf ".%dk" (peers / 1000)
let search_name peers = "overlay.search_ns" ^ search_variant peers

(* The unstructured network [Pdht.create] builds: degree-4 topology,
   2,000 items at [repl] replicas, the default random-walk search. *)
let search settings ~peers ~repl =
  let module O = Pdht_overlay in
  let rng = Rng.create ~seed:3 in
  let topology = O.Topology.random_regularish rng ~peers ~degree:4 in
  let replication = O.Replication.create ~peers in
  for item = 0 to 1_999 do
    O.Replication.place replication rng ~item ~repl
  done;
  let us =
    O.Unstructured_search.create ~topology ~replication
      ~strategy:(Pdht_core.Config.default_search ~num_peers:peers)
  in
  let input = inputs 4096 (fun _ -> (Rng.int rng peers, Rng.int rng 2_000)) in
  measure ~variant:(search_variant peers) settings "overlay.search" (fun i ->
      let source, item = input i in
      ignore (O.Unstructured_search.search us rng ~online:always_online ~source ~item))

let flood_variant repl = Printf.sprintf ".r%d" repl
let flood_name repl = "gossip.replica_flood_ns" ^ flood_variant repl

let replica_flood settings ~repl =
  let rng = Rng.create ~seed:4 in
  let replicas = Array.init repl (fun i -> 7 * i) in
  let net = Pdht_gossip.Replica_net.build rng ~replicas ~chords:1 in
  measure ~variant:(flood_variant repl) settings "gossip.replica_flood" (fun i ->
      ignore
        (Pdht_gossip.Replica_net.flood net ~online:always_online
           ~from_peer:replicas.(i mod repl)))

(* The most frequent frame of the cluster workload. *)
let lookup_frame = Wire.Lookup { rid = 123_456; span = 42; src = 17; dst = 311; key = -1 }

let wire settings =
  let buf = Buffer.create 64 in
  let encode =
    measure settings "wire.encode" (fun _ ->
        Buffer.clear buf;
        Wire.encode buf lookup_frame)
  in
  let bytes = Wire.encode_bytes lookup_frame in
  let len = Bytes.length bytes in
  let decode =
    measure settings "wire.decode" (fun _ ->
        match Wire.decode bytes ~pos:0 ~len with
        | Ok _ -> ()
        | Error e -> failwith (Wire.error_to_string e))
  in
  [ encode; decode ]

(* Lookup -> Ack against [Node.serve] in a forked child over a
   socketpair: one frame each way through [Frame_io] and the kernel. *)
let rpc_roundtrip settings =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close parent_fd;
      (try Pdht_proc.Node.serve ~node_id:0 (Frame_io.of_fd child_fd) with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close child_fd;
      let conn = Frame_io.of_fd parent_fd in
      let recv what =
        match Frame_io.recv conn with
        | Ok m -> m
        | Error e -> failwith (what ^ ": " ^ Frame_io.recv_error_to_string e)
      in
      Fun.protect
        ~finally:(fun () ->
          (try Frame_io.send conn Wire.Bye with Unix.Unix_error _ -> ());
          Frame_io.close conn;
          ignore (Unix.waitpid [] pid))
        (fun () ->
          ignore (recv "hello");
          Frame_io.send conn
            (Wire.Setup { nodes = 1; members = 1; keys = 1; stor = 1; eviction = 0; seed = 0 });
          measure ~unit:"us" ~scale:1e3 settings "proc.rpc_roundtrip" (fun _ ->
              Frame_io.send conn lookup_frame;
              match recv "ack" with
              | Wire.Ack _ -> ()
              | m -> failwith (Format.asprintf "expected Ack, got %a" Wire.pp m)))

let obs settings =
  let r = Pdht_obs.Registry.create () in
  let c = Pdht_obs.Registry.counter r "bench.counter" in
  let h = Pdht_obs.Registry.histogram r "bench.histogram" in
  let v = inputs 1024 (fun i -> i * 37 mod 1000) in
  [
    measure settings "obs.counter_incr" (fun _ -> Pdht_obs.Registry.incr c 1);
    measure settings "obs.histogram_record" (fun i -> Pdht_obs.Histogram.record_int h (v i));
  ]

(* Every layer cost, in a fixed order.  DHT and overlay shapes are the
   workloads': 453 members at repl 20 (news-hot, lossy-churn,
   cluster-loopback), 1,000 at repl 20 (cold-keys), 6,000 at repl 200
   among 100,000 peers (scale-100k). *)
let all settings =
  List.concat
    [
      [ event_queue settings ];
      storage settings;
      [
        lookup settings ~backend:Dht.Pgrid_backend ~members:453 ~repl:20;
        lookup settings ~backend:Dht.Kademlia_backend ~members:453 ~repl:20;
        lookup settings ~backend:Dht.Pgrid_backend ~members:1_000 ~repl:20;
        lookup settings ~backend:Dht.Pgrid_backend ~members:6_000 ~repl:200;
        search settings ~peers:1_000 ~repl:20;
        search settings ~peers:100_000 ~repl:200;
        replica_flood settings ~repl:20;
        replica_flood settings ~repl:200;
      ];
      wire settings;
      [ rpc_roundtrip settings ];
      obs settings;
    ]

let median costs name =
  match List.find_opt (fun c -> c.name = name) costs with
  | Some c -> c.summary.Stats.median
  | None -> invalid_arg ("Layers.median: no cost named " ^ name)
