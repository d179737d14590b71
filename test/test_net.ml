(* Tests for the network subsystem (Pdht_net): config parsing and
   validation, link-model sampling and partitions, the synchronous
   query-path hook and its RPC timeout/retry/backoff ladder, and the
   system-level contracts — a zero-cost net reproduces the no-net
   report field for field, a lossy run matches its golden rendering,
   and net-enabled runs are byte-identical for any worker count
   (including under popularity shifts and diurnal rate profiles). *)

module Rng = Pdht_util.Rng
module Config = Pdht_net.Config
module Link_model = Pdht_net.Link_model
module Hook = Pdht_net.Hook
module Registry = Pdht_obs.Registry
module Histogram = Pdht_obs.Histogram
module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Strategy = Pdht_core.Strategy
module Runner = Pdht_core.Runner
module Run_spec = Pdht_core.Run_spec
module Run_result = Pdht_core.Run_result

let counter obs name =
  match Registry.counter_value_by_name (Pdht_obs.Context.registry obs) name with
  | Some v -> v
  | None -> 0

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  let ok c = Result.is_ok (Config.validate c) in
  Alcotest.(check bool) "default valid" true (ok Config.default);
  Alcotest.(check bool) "zero_cost valid" true (ok Config.zero_cost);
  let bad label c =
    Alcotest.(check bool) label false (ok c)
  in
  bad "loss > 1" { Config.default with Config.loss = 1.5 };
  bad "loss < 0" { Config.default with Config.loss = -0.1 };
  bad "negative constant latency"
    { Config.default with Config.latency = Config.Constant (-1.) };
  bad "uniform lo > hi"
    { Config.default with Config.latency = Config.Uniform { lo = 2.; hi = 1. } };
  bad "lognormal sigma < 0"
    { Config.default with Config.latency = Config.Lognormal { mu = 0.; sigma = -1. } };
  bad "zero timeout" { Config.default with Config.rpc_timeout = 0. };
  bad "negative retries" { Config.default with Config.rpc_retries = -1 };
  bad "backoff < 1" { Config.default with Config.backoff = 0.5 };
  bad "partition window reversed"
    {
      Config.default with
      Config.partitions =
        [ { Config.group_a = [| 0 |]; group_b = [| 1 |];
            from_time = 10.; until_time = 5. } ];
    };
  bad "partition negative peer"
    {
      Config.default with
      Config.partitions =
        [ { Config.group_a = [| -3 |]; group_b = [| 1 |];
            from_time = 0.; until_time = 5. } ];
    }

let test_latency_parse () =
  let check_ok spec expected =
    match Config.latency_of_string spec with
    | Ok l -> Alcotest.(check bool) spec true (l = expected)
    | Error msg -> Alcotest.failf "%s rejected: %s" spec msg
  in
  check_ok "0.05" (Config.Constant 0.05);
  check_ok "constant:0.1" (Config.Constant 0.1);
  check_ok "uniform:0.01:0.05" (Config.Uniform { lo = 0.01; hi = 0.05 });
  check_ok "lognormal:-3.0:0.5" (Config.Lognormal { mu = -3.0; sigma = 0.5 });
  List.iter
    (fun l ->
      match Config.latency_of_string (Config.latency_to_string l) with
      | Ok l' -> Alcotest.(check bool) "round trip" true (l = l')
      | Error msg -> Alcotest.failf "round trip rejected: %s" msg)
    [ Config.Constant 0.25; Config.Uniform { lo = 0.; hi = 1.5 };
      Config.Lognormal { mu = -3.; sigma = 0.6 } ];
  List.iter
    (fun spec ->
      Alcotest.(check bool) (spec ^ " rejected") true
        (Result.is_error (Config.latency_of_string spec)))
    [ "bogus"; "uniform:1"; "lognormal:0.1"; "constant:x"; "" ]

let test_timeout_backoff () =
  let c = { Config.default with Config.rpc_timeout = 1.0; backoff = 2.0 } in
  let timeout attempt = Config.timeout_for c ~attempt in
  Alcotest.check feq "attempt 0" 1. (timeout 0);
  Alcotest.check feq "attempt 1" 2. (timeout 1);
  Alcotest.check feq "attempt 2" 4. (timeout 2)

(* ------------------------------------------------------------------ *)
(* Link model *)

let test_constant_zero_loss_draws_nothing () =
  (* The stream-economy contract behind zero-cost equivalence: constant
     latency and zero loss must leave the RNG untouched. *)
  let lm =
    Link_model.create
      { Config.default with Config.latency = Config.Constant 0.05; loss = 0. }
  in
  let rng = Rng.create ~seed:1 in
  let probe = Rng.copy rng in
  Alcotest.check feq "constant sample" 0.05 (Link_model.sample_latency lm rng);
  Alcotest.(check bool) "no drop" false (Link_model.lost lm rng);
  Alcotest.(check bool) "rng untouched" true (Rng.bits64 rng = Rng.bits64 probe)

let test_uniform_bounds () =
  let lo = 0.01 and hi = 0.05 in
  let lm =
    Link_model.create
      { Config.default with Config.latency = Config.Uniform { lo; hi } }
  in
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 200 do
    let s = Link_model.sample_latency lm rng in
    if s < lo || s >= hi then Alcotest.failf "uniform sample %g outside [%g,%g)" s lo hi
  done

let test_lognormal_positive () =
  let lm =
    Link_model.create
      { Config.default with
        Config.latency = Config.Lognormal { mu = -3.; sigma = 0.6 } }
  in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 200 do
    let s = Link_model.sample_latency lm rng in
    if not (Float.is_finite s && s > 0.) then
      Alcotest.failf "lognormal sample %g not finite-positive" s
  done

let test_loss_one_drops_all () =
  let lm = Link_model.create { Config.default with Config.loss = 1.0 } in
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "dropped" true (Link_model.lost lm rng)
  done

let test_partition_window () =
  let cfg =
    {
      Config.default with
      Config.loss = 0.;
      partitions =
        [ { Config.group_a = [| 0; 1 |]; group_b = [| 5; 6 |];
            from_time = 10.; until_time = 20. } ];
    }
  in
  let lm = Link_model.create cfg in
  let part ~src ~dst ~now = Link_model.partitioned lm ~src ~dst ~now in
  Alcotest.(check bool) "inside window" true (part ~src:0 ~dst:5 ~now:15.);
  Alcotest.(check bool) "window start inclusive" true (part ~src:1 ~dst:6 ~now:10.);
  Alcotest.(check bool) "symmetric" true (part ~src:6 ~dst:1 ~now:15.);
  Alcotest.(check bool) "before window" false (part ~src:0 ~dst:5 ~now:9.9);
  Alcotest.(check bool) "window end exclusive" false (part ~src:0 ~dst:5 ~now:20.);
  Alcotest.(check bool) "uninvolved peer" false (part ~src:0 ~dst:3 ~now:15.);
  Alcotest.(check bool) "same side" false (part ~src:0 ~dst:1 ~now:15.);
  (* A partition drop is deterministic: at loss 0 the coin draws
     nothing, so a partitioned message leaves the stream untouched. *)
  let rng = Rng.create ~seed:5 in
  let probe = Rng.copy rng in
  Alcotest.(check bool) "partition drops" true
    (part ~src:0 ~dst:5 ~now:15. || Link_model.lost lm rng);
  Alcotest.(check bool) "no draw for partition drop" true
    (Rng.bits64 rng = Rng.bits64 probe)

(* ------------------------------------------------------------------ *)
(* Hook *)

let hook_with ?(seed = 9) cfg =
  let obs = Pdht_obs.Context.create () in
  (obs, Hook.create ~obs ~rng:(Rng.create ~seed) cfg)

let test_hook_clock () =
  let obs, h =
    hook_with
      { Config.default with Config.latency = Config.Constant 0.05; loss = 0. }
  in
  Hook.begin_op h ~now:100.;
  Alcotest.check feq "clock starts at zero" 0. (Hook.elapsed h);
  Alcotest.(check bool) "rpc succeeds" true (Hook.rpc h ~src:0 ~dst:1);
  Alcotest.check feq "round trip charged" 0.1 (Hook.elapsed h);
  Alcotest.(check bool) "cast succeeds" true (Hook.cast h ~src:0 ~dst:1);
  Alcotest.check feq "cast does not touch the clock" 0.1 (Hook.elapsed h);
  Hook.advance_rounds h 3;
  Alcotest.check feq "one latency per wave" 0.25 (Hook.elapsed h);
  Alcotest.(check int) "sent: 2 rpc legs + 1 cast" 3 (counter obs "net.messages_sent");
  (* A later operation resets the clock. *)
  Hook.begin_op h ~now:200.;
  Alcotest.check feq "fresh operation" 0. (Hook.elapsed h)

let test_hook_rpc_exhausts_budget () =
  let obs, h =
    hook_with
      { Config.default with
        Config.loss = 1.0; rpc_timeout = 1.0; rpc_retries = 3; backoff = 2.0 }
  in
  Hook.begin_op h ~now:0.;
  Alcotest.(check bool) "rpc fails" false (Hook.rpc h ~src:0 ~dst:1);
  Alcotest.check feq "every timeout charged (1+2+4+8)" 15. (Hook.elapsed h);
  Alcotest.(check int) "retried" 3 (counter obs "net.messages_retried");
  Alcotest.(check int) "timed out" 1 (counter obs "net.messages_timed_out")

let test_hook_partition_blocks () =
  let _obs, h =
    hook_with
      {
        Config.default with
        Config.loss = 0.;
        rpc_retries = 0;
        partitions =
          [ { Config.group_a = [| 0 |]; group_b = [| 1 |];
              from_time = 0.; until_time = 1000. } ];
      }
  in
  Hook.begin_op h ~now:10.;
  Alcotest.(check bool) "partitioned pair fails" false (Hook.rpc h ~src:0 ~dst:1);
  Alcotest.(check bool) "unaffected pair succeeds" true (Hook.rpc h ~src:0 ~dst:2);
  (* After the window heals, the same pair talks again. *)
  Hook.begin_op h ~now:2000.;
  Alcotest.(check bool) "healed" true (Hook.rpc h ~src:0 ~dst:1)

let test_hook_latency_histogram_ms () =
  let obs, h =
    hook_with
      { Config.default with Config.latency = Config.Constant 0.05; loss = 0. }
  in
  Hook.begin_op h ~now:0.;
  ignore (Hook.rpc h ~src:0 ~dst:1);
  Hook.record_latency h;
  match
    Registry.find_histogram (Pdht_obs.Context.registry obs) "net.query_latency_ms"
  with
  | None -> Alcotest.fail "net.query_latency_ms not registered"
  | Some hist ->
      Alcotest.(check int) "one observation" 1 (Histogram.count hist);
      let p50 = Histogram.quantile hist 0.5 in
      (* 0.1 s recorded as 100 ms, resolved to within one ~9% bucket. *)
      if p50 < 90. || p50 > 110. then
        Alcotest.failf "p50 = %g ms, expected ~100 ms" p50

(* ------------------------------------------------------------------ *)
(* System-level contracts *)

let sim_scenario =
  {
    Scenario.news_default with
    Scenario.num_peers = 300;
    keys = 600;
    duration = 300.;
    seed = 11;
    churn =
      Scenario.Exponential_sessions
        { mean_uptime = 300.; mean_downtime = 100.;
          initially_online_fraction = 0.8 };
  }

let strip_net (r : System.report) =
  {
    r with
    System.net = None;
    histograms =
      List.filter
        (fun (name, _) ->
          not (String.length name >= 4 && String.sub name 0 4 = "net."))
        r.System.histograms;
  }

let test_zero_cost_net_equivalence () =
  (* Satellite contract: enabling the model with zero latency and zero
     loss must reproduce the no-net report field for field once its own
     net.* additions are set aside — proof that the hook draws from its
     private stream only and perturbs nothing. *)
  let options = System.Options.make ~repl:20 ~stor:100 () in
  let strategy =
    Strategy.Partial_index { key_ttl = System.derive_key_ttl sim_scenario options }
  in
  let plain = System.run sim_scenario strategy options in
  let netted =
    System.run sim_scenario strategy { options with System.net = Some Config.zero_cost }
  in
  (match netted.System.net with
  | None -> Alcotest.fail "net-enabled report lacks its net summary"
  | Some n ->
      Alcotest.(check bool) "query path sent messages" true (n.System.messages_sent > 0);
      Alcotest.(check int) "nothing dropped" 0 n.System.messages_dropped;
      Alcotest.(check int) "nothing retried" 0 n.System.messages_retried;
      Alcotest.(check int) "nothing timed out" 0 n.System.messages_timed_out);
  let stripped = strip_net netted in
  (* Spot-check headline fields first for a readable failure... *)
  Alcotest.(check int) "queries" plain.System.queries stripped.System.queries;
  Alcotest.(check int) "answered" plain.System.answered stripped.System.answered;
  Alcotest.(check int) "total messages" plain.System.total_messages
    stripped.System.total_messages;
  Alcotest.check feq "hit rate" plain.System.hit_rate stripped.System.hit_rate;
  Alcotest.(check int) "indexed keys" plain.System.indexed_keys_final
    stripped.System.indexed_keys_final;
  (* ...then demand the whole record agrees, samples and histograms
     included. *)
  Alcotest.(check bool) "entire report identical" true (stripped = plain)

let test_net_enabled_determinism_across_jobs () =
  (* Byte-identical reports for -j 1 vs -j 4 with net-enabled specs. *)
  let cfg =
    { Config.default with
      Config.latency = Config.Uniform { lo = 0.01; hi = 0.05 };
      loss = 0.1; rpc_timeout = 0.3; rpc_retries = 2 }
  in
  let options = System.Options.make ~repl:20 ~stor:100 ~net:cfg () in
  let scenario = { sim_scenario with Scenario.duration = 150. } in
  let specs =
    List.concat_map
      (fun seed ->
        [ Run_spec.make ~options { scenario with Scenario.seed };
          Run_spec.make ~options
            ~strategy:Strategy.Index_all
            { scenario with Scenario.seed } ])
      [ 1; 2 ]
  in
  let reports jobs = Run_result.reports_exn (Runner.run_all ~jobs specs) in
  Alcotest.(check bool) "-j 1 == -j 4" true (reports 1 = reports 4)

(* The byte-level oracle for the net path: the same run as
     pdht simulate --peers 200 --keys 300 --duration 240 --latency 0.02
       --loss 0.1 --rpc-timeout 0.5 --rpc-retries 2
       --churn weibull:up=600:down=200:shape=0.6 --bucket-refresh 30
   which drives every rung of the retry ladder (retries and final
   timeouts) and the live-routing probes. *)
let test_lossy_run_matches_golden () =
  let scenario =
    {
      Scenario.news_default with
      Scenario.num_peers = 200;
      keys = 300;
      duration = 240.;
      churn =
        Scenario.Sessions
          (Result.get_ok (Pdht_dist.Session.of_string "weibull:up=600:down=200:shape=0.6"));
    }
  in
  let net =
    { Config.default with
      Config.latency = Config.Constant 0.02; loss = 0.1; rpc_timeout = 0.5; rpc_retries = 2 }
  in
  let options =
    System.Options.make ~repl:20 ~stor:100 ~backend:Pdht_dht.Dht.Kademlia_backend ~net
      ~bucket_refresh:30. ()
  in
  let strategy =
    Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }
  in
  let report =
    Runner.run_all [ Run_spec.make ~strategy ~options scenario ]
    |> List.hd |> snd |> Run_result.report_exn
  in
  Golden.check "lossy_net_report.txt" (Format.asprintf "%a@." System.pp_report report)

(* ------------------------------------------------------------------ *)
(* Determinism properties: Popularity_shift / Rate_profile scenarios
   under Runner.run_all with a net-enabled spec (satellite task). *)

let net_options =
  System.Options.make ~repl:20 ~stor:100
    ~net:
      { Config.default with
        Config.latency = Config.Uniform { lo = 0.005; hi = 0.03 };
        loss = 0.05; rpc_timeout = 0.2; rpc_retries = 1 }
    ()

let prop_scenario ~seed ~shift ~rate =
  {
    Scenario.news_default with
    Scenario.num_peers = 120;
    keys = 240;
    f_qry = 1. /. 10.;
    duration = 120.;
    seed;
    shift;
    rate;
  }

let jobs_agree scenario =
  let specs = [ Run_spec.make ~options:net_options scenario ] in
  let reports jobs = Run_result.reports_exn (Runner.run_all ~jobs specs) in
  reports 1 = reports 4

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"popularity-shift runs identical for -j 1 vs -j 4 (net on)"
      ~count:3
      (pair (int_bound 10_000) (int_bound 100))
      (fun (seed, offset) ->
        let shift =
          if offset mod 2 = 0 then Scenario.Swap_halves_at 60.
          else Scenario.Rotate { times = [ 40.; 80. ]; offset = 1 + offset }
        in
        jobs_agree (prop_scenario ~seed ~shift ~rate:Scenario.Steady));
    Test.make ~name:"rate-profile runs identical for -j 1 vs -j 4 (net on)"
      ~count:3
      (pair (int_bound 10_000) (int_bound 1))
      (fun (seed, which) ->
        let rate =
          if which = 0 then
            Scenario.Diurnal
              { calm_f_qry = 1. /. 60.; period = 60.; busy_fraction = 0.5 }
          else Scenario.Steady
        in
        jobs_agree
          (prop_scenario ~seed ~shift:(Scenario.Swap_halves_at 60.) ~rate));
  ]

(* ------------------------------------------------------------------ *)
(* The retry ladder shared by the hook and the process conductor *)

let ladder ~timeout ~retries ~backoff =
  { Config.default with Config.rpc_timeout = timeout; rpc_retries = retries; backoff }

(* Run the ladder against a scripted peer that answers attempt
   [reply_at] (never, for [None]); returns the result and every
   (attempt, timeout) the ladder asked for, in order. *)
let run_ladder config ~reply_at =
  let calls = ref [] in
  let result =
    Config.call config (fun ~attempt ~timeout ->
        calls := (attempt, timeout) :: !calls;
        if Some attempt = reply_at then Some attempt else None)
  in
  (result, List.rev !calls)

let check_ladder name (result, calls) ~want_result ~want_calls =
  Alcotest.(check (option int)) (name ^ ": result") want_result result;
  Alcotest.(check (list (pair int (float 1e-9)))) (name ^ ": attempts") want_calls calls

let prop_backoff_schedule =
  QCheck.Test.make ~name:"backoff schedule" ~count:500
    QCheck.(
      quad (float_range 0.01 10.) (int_bound 6) (float_range 1. 4.) (option (int_bound 8)))
    (fun (timeout, retries, backoff, reply_at) ->
      let result, calls = run_ladder (ladder ~timeout ~retries ~backoff) ~reply_at in
      let answered = match reply_at with Some r -> r <= retries | None -> false in
      let last = match reply_at with Some r when answered -> r | _ -> retries in
      calls
      = List.init (last + 1) (fun k -> (k, timeout *. (backoff ** float_of_int k)))
      && result = if answered then reply_at else None)

let test_ladder_retry_then_give_up () =
  check_ladder "no reply"
    (run_ladder (ladder ~timeout:1.0 ~retries:2 ~backoff:2.0) ~reply_at:None)
    ~want_result:None
    ~want_calls:[ (0, 1.0); (1, 2.0); (2, 4.0) ]

let test_ladder_reply_settles_once () =
  check_ladder "reply on the first retry"
    (run_ladder (ladder ~timeout:1.0 ~retries:3 ~backoff:2.0) ~reply_at:(Some 1))
    ~want_result:(Some 1)
    ~want_calls:[ (0, 1.0); (1, 2.0) ]

let test_ladder_zero_retries_one_shot () =
  check_ladder "zero retries"
    (run_ladder (ladder ~timeout:0.25 ~retries:0 ~backoff:3.0) ~reply_at:None)
    ~want_result:None ~want_calls:[ (0, 0.25) ]

(* ------------------------------------------------------------------ *)
(* Hook vs [Net_ref], the closure-ladder copy kept verbatim.  Random
   configs cover every latency shape, loss 0-0.5, 0-3 partition
   windows over peers 0-7 and every retry/backoff setting; one
   operation list drives both hooks (each with its own RNG, registry
   and recording tracer) and after every step the returns, [elapsed],
   [now], the [net.*] counters, the traced events, the latency
   histogram and the next draw must agree. *)

type hook_op =
  | H_begin of float
  | H_rpc of int * int * int option (* src, dst, parent span *)
  | H_cast of int * int * int option
  | H_rounds of int
  | H_record

let hook_op_print = function
  | H_begin now -> Printf.sprintf "begin(%g)" now
  | H_rpc (s, d, p) ->
      Printf.sprintf "rpc(%d,%d,%s)" s d (match p with None -> "-" | Some p -> string_of_int p)
  | H_cast (s, d, p) ->
      Printf.sprintf "cast(%d,%d,%s)" s d (match p with None -> "-" | Some p -> string_of_int p)
  | H_rounds n -> Printf.sprintf "rounds(%d)" n
  | H_record -> "record"

let hook_config_print (c : Config.t) =
  Printf.sprintf "%s loss %g timeout %g retries %d backoff %g partitions [%s]"
    (Config.latency_to_string c.latency) c.loss c.rpc_timeout c.rpc_retries c.backoff
    (String.concat "; "
       (List.map
          (fun (p : Config.partition) ->
            let ids a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
            Printf.sprintf "{%s}|{%s} [%g,%g)" (ids p.group_a) (ids p.group_b) p.from_time
              p.until_time)
          c.partitions))

let hook_ref_test =
  let case =
    let open QCheck.Gen in
    let* latency =
      frequency
        [
          (1, map (fun s -> Config.Constant s) (oneofl [ 0.; 0.02; 0.05; 0.1 ]));
          ( 1,
            map2
              (fun lo w -> Config.Uniform { lo; hi = lo +. w })
              (float_bound_inclusive 0.1) (oneofl [ 0.; 0.05; 0.2 ]) );
          ( 1,
            map2
              (fun mu sigma -> Config.Lognormal { mu; sigma })
              (float_range (-5.) (-1.)) (oneofl [ 0.; 0.5; 1.2 ]) );
        ]
    in
    let* loss = frequency [ (1, return 0.); (2, float_bound_inclusive 0.5) ] in
    let peer = int_bound 7 in
    let group = map Array.of_list (list_size (int_range 1 4) peer) in
    let window =
      map3
        (fun (group_a, group_b) from_time len ->
          { Config.group_a; group_b; from_time; until_time = from_time +. len })
        (pair group group) (float_bound_inclusive 100.) (float_bound_inclusive 50.)
    in
    let* partitions = list_size (int_bound 3) window in
    let* rpc_timeout = oneofl [ 0.1; 0.5; 1.0; 2.0 ] in
    let* rpc_retries = int_bound 4 in
    let* backoff = oneof [ return 1.; return 2.; float_range 1. 3. ] in
    let* seed = int_bound 1_000_000 in
    let span = frequency [ (1, return None); (1, map Option.some (int_bound 50)) ] in
    let op =
      frequency
        [
          (2, map (fun now -> H_begin now) (float_bound_inclusive 150.));
          (6, map3 (fun s d p -> H_rpc (s, d, p)) peer peer span);
          (3, map3 (fun s d p -> H_cast (s, d, p)) peer peer span);
          (2, map (fun n -> H_rounds n) (int_bound 3));
          (1, return H_record);
        ]
    in
    let+ ops = list_size (int_range 1 60) op in
    ( { Config.latency; loss; partitions; rpc_timeout; rpc_retries; backoff },
      seed,
      ops )
  in
  let print (config, seed, ops) =
    Printf.sprintf "%s seed %d: %s" (hook_config_print config) seed
      (String.concat " " (List.map hook_op_print ops))
  in
  QCheck.Test.make ~name:"hook matches the closure-ladder reference" ~count:500
    (QCheck.make ~print case) (fun (config, seed, ops) ->
      let recording () =
        let events = ref [] in
        let tracer = Pdht_obs.Tracer.create ~enabled:true () in
        Pdht_obs.Tracer.add_sink tracer (Pdht_obs.Sink.callback (fun e -> events := e :: !events));
        (Pdht_obs.Context.create ~tracer (), events)
      in
      let obs, events = recording () and obs_ref, events_ref = recording () in
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let h = Hook.create ~obs ~rng config in
      let r = Net_ref.Hook.create ~obs:obs_ref ~rng:rng_ref config in
      let counters obs =
        List.map (counter obs)
          [
            "net.messages_sent"; "net.messages_dropped"; "net.messages_retried";
            "net.messages_timed_out";
          ]
      in
      let latencies obs =
        Option.map Histogram.summary
          (Registry.find_histogram (Pdht_obs.Context.registry obs) "net.query_latency_ms")
      in
      let rec run = function
        | [] -> true
        | op :: rest ->
            let same =
              match op with
              | H_begin now ->
                  Hook.begin_op h ~now;
                  Net_ref.Hook.begin_op r ~now;
                  true
              | H_rpc (src, dst, span) ->
                  Hook.rpc ?span h ~src ~dst = Net_ref.Hook.rpc ?span r ~src ~dst
              | H_cast (src, dst, span) ->
                  Hook.cast ?span h ~src ~dst = Net_ref.Hook.cast ?span r ~src ~dst
              | H_rounds n ->
                  Hook.advance_rounds h n;
                  Net_ref.Hook.advance_rounds r n;
                  true
              | H_record ->
                  Hook.record_latency h;
                  Net_ref.Hook.record_latency r;
                  true
            in
            same
            && Hook.elapsed h = Net_ref.Hook.elapsed r
            && Hook.now h = Net_ref.Hook.now r
            && counters obs = counters obs_ref
            && !events = !events_ref
            && compare (latencies obs) (latencies obs_ref) = 0
            && Rng.bits64 rng = Rng.bits64 rng_ref
            && run rest
      in
      run ops)

let () =
  Alcotest.run "pdht_net"
    [
      ( "config",
        [
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "latency parse" `Quick test_latency_parse;
          Alcotest.test_case "timeout backoff" `Quick test_timeout_backoff;
        ] );
      ( "link-model",
        [
          Alcotest.test_case "constant + zero loss draw nothing" `Quick
            test_constant_zero_loss_draws_nothing;
          Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
          Alcotest.test_case "lognormal positive" `Quick test_lognormal_positive;
          Alcotest.test_case "loss 1 drops all" `Quick test_loss_one_drops_all;
          Alcotest.test_case "partition window" `Quick test_partition_window;
        ] );
      ( "hook",
        [
          Alcotest.test_case "virtual clock" `Quick test_hook_clock;
          Alcotest.test_case "rpc exhausts budget" `Quick test_hook_rpc_exhausts_budget;
          Alcotest.test_case "partition blocks" `Quick test_hook_partition_blocks;
          Alcotest.test_case "latency histogram in ms" `Quick
            test_hook_latency_histogram_ms;
        ] );
      ( "system",
        [
          Alcotest.test_case "zero-cost net == no net" `Slow
            test_zero_cost_net_equivalence;
          Alcotest.test_case "net-enabled batch identical across jobs" `Slow
            test_net_enabled_determinism_across_jobs;
          Alcotest.test_case "lossy run matches golden" `Slow test_lossy_run_matches_golden;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "ladder",
        [
          QCheck_alcotest.to_alcotest prop_backoff_schedule;
          QCheck_alcotest.to_alcotest hook_ref_test;
          Alcotest.test_case "retry then give up" `Quick test_ladder_retry_then_give_up;
          Alcotest.test_case "reply settles once" `Quick test_ladder_reply_settles_once;
          Alcotest.test_case "zero retries one shot" `Quick
            test_ladder_zero_retries_one_shot;
        ] );
    ]
