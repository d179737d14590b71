(* The benchmark's workloads: one scenario, its options and the mode
   that runs it.  Every workload runs the paper's Partial_index strategy
   with the model-derived TTL, because that is the system the paper
   optimises; the workloads differ in which layer carries the run. *)

module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Strategy = Pdht_core.Strategy
module Config = Pdht_core.Config
module Pdht = Pdht_core.Pdht

type mode =
  | Sim  (** [System.run] in this process *)
  | Cluster of int  (** [Cluster.run] with this many worker processes *)

type t = {
  name : string;
  scenario : Scenario.t;
  options : System.options;
  mode : mode;
}

(* The paper's news scenario at 1/20 scale: 1,000 peers, 2,000 keys,
   Zipf 1.2, one query per peer every 30 s, repl 20, stor 100, P-Grid. *)
let news ~seed ~duration =
  {
    Scenario.news_default with
    Scenario.name = "news";
    num_peers = 1_000;
    keys = 2_000;
    duration;
    seed;
  }

let news_options = System.Options.make ~repl:20 ~stor:100 ()

(* Constant 20 ms links, 5% loss, a 0.5 s first timeout and the default
   three retries with doubling backoff. *)
let lossy_net =
  {
    Pdht_net.Config.default with
    Pdht_net.Config.latency = Pdht_net.Config.Constant 0.02;
    loss = 0.05;
    rpc_timeout = 0.5;
  }

(* [scale] shrinks every workload's simulated duration (the smoke test
   runs at 1/50); population and key counts stay, so every layer still
   runs at its real shape. *)
let all ~seed ~scale =
  let dur d = d *. scale in
  [
    (* The paper's steady state, ~98% index hits: DHT lookup, store
       hits and maintenance carry the run. *)
    {
      name = "news-hot";
      scenario = news ~seed ~duration:(dur 7_200.);
      options = news_options;
      mode = Sim;
    };
    (* No skew over 20,000 keys: most queries miss and pay a random-walk
       broadcast plus a 20-replica insert into full caches. *)
    {
      name = "cold-keys";
      scenario =
        {
          (news ~seed ~duration:(dur 500.)) with
          Scenario.name = "cold";
          keys = 20_000;
          distribution = Scenario.Uniform;
        };
      options = news_options;
      mode = Sim;
    };
    (* The only workload through the net model's retry ladders, live
       Kademlia buckets and session churn. *)
    {
      name = "lossy-churn";
      scenario =
        {
          (news ~seed ~duration:(dur 4_500.)) with
          Scenario.name = "lossy";
          churn =
            Scenario.Exponential_sessions
              { mean_uptime = 600.; mean_downtime = 200.; initially_online_fraction = 0.75 };
        };
      options =
        System.Options.make ~repl:20 ~stor:100 ~backend:Pdht_dht.Dht.Kademlia_backend
          ~net:lossy_net ~bucket_refresh:60. ();
      mode = Sim;
    };
    (* 100,000 peers and 6,000 DHT members: a working set far beyond the
       CPU caches, where set-up and memory move. *)
    {
      name = "scale-100k";
      scenario =
        {
          (Scenario.with_scale (news ~seed ~duration:(dur 40.)) ~peers:100_000 ~keys:2_000)
          with
          Scenario.name = "scale";
        };
      options = System.Options.make ~repl:200 ~stor:100 ();
      mode = Sim;
    };
    (* news-hot's configuration through 2 worker processes over loopback
       TCP: the only workload through the wire codec, Frame_io and Node. *)
    {
      name = "cluster-loopback";
      scenario = news ~seed ~duration:(dur 120.);
      options = news_options;
      mode = Cluster 2;
    };
  ]

let names = List.map (fun w -> w.name) (all ~seed:1 ~scale:1.)

let find ~seed ~scale name = List.find_opt (fun w -> w.name = name) (all ~seed ~scale)

let strategy w =
  Strategy.Partial_index { key_ttl = System.derive_key_ttl w.scenario w.options }

let active_members w = System.plan_active_members w.scenario w.options (strategy w)

(* The configuration [System.run] builds for this workload, sized the
   same way. *)
let config w =
  let o = w.options in
  Config.make ~backend:o.System.backend ~eviction:o.System.eviction
    ~num_peers:w.scenario.Scenario.num_peers ~active_members:(active_members w)
    ~keys:w.scenario.Scenario.keys ~repl:o.System.repl ~stor:o.System.stor
    ~strategy:(strategy w) ()

let setup w config =
  Pdht.create (Pdht_util.Rng.create ~seed:w.scenario.Scenario.seed) config
