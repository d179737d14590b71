(* Tests for the fault subsystem (Pdht_fault) and its system wiring:
   plan grammar and validation, injector transition semantics, the
   no-fault equivalence contract (an empty plan perturbs nothing), the
   E21 crash-dip-recover shape, repair counters gated on the repair
   knob, deterministic fault-enabled batches across worker counts, and
   the scheduled-abort path carrying engine context (time + handler
   label) into the experiment runner's failure rows. *)

module Rng = Pdht_util.Rng
module Engine = Pdht_sim.Engine
module Plan = Pdht_fault.Plan
module Injector = Pdht_fault.Injector
module Registry = Pdht_obs.Registry
module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Strategy = Pdht_core.Strategy
module Runner = Pdht_core.Runner
module Run_spec = Pdht_core.Run_spec
module Run_result = Pdht_core.Run_result

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Plan *)

(* A parsed-and-validated session spec, for building expected values. *)
let session s =
  match Pdht_dist.Session.of_string s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "session spec %s rejected: %s" s msg

let test_plan_parse () =
  let ok spec expected =
    match Plan.of_string spec with
    | Ok plan -> Alcotest.(check bool) spec true (plan.Plan.events = expected)
    | Error msg -> Alcotest.failf "%s rejected: %s" spec msg
  in
  ok "crash:0.3@600" [ Plan.Crash { peer_fraction = 0.3; at = 600. } ];
  ok "crash:0.3@600+120"
    [ Plan.Crash_recover { peer_fraction = 0.3; at = 600.; after = 120. } ];
  ok "flap:0.1@100+30x4"
    [ Plan.Flap { peer_fraction = 0.1; at = 100.; period = 30.; cycles = 4 } ];
  ok "rack:0.2-0.4@50"
    [ Plan.Correlated { lo = 0.2; hi = 0.4; at = 50.; after = None } ];
  ok "rack:0.2-0.4@50+25"
    [ Plan.Correlated { lo = 0.2; hi = 0.4; at = 50.; after = Some 25. } ];
  ok "abort@42" [ Plan.Abort { at = 42. } ];
  ok "crash:0.5@10,abort@99"
    [ Plan.Crash { peer_fraction = 0.5; at = 10. }; Plan.Abort { at = 99. } ];
  (* The churn clause embeds the full Session grammar (':'-separated,
     so it nests inside the comma-separated event list). *)
  ok "churn:exp@50" [ Plan.Churn { spec = session "exp"; at = 50.; until = None } ];
  ok "churn:weibull:up=600:shape=0.6@100+300"
    [ Plan.Churn
        { spec = session "weibull:up=600:shape=0.6"; at = 100.; until = Some 400. } ];
  ok "crash:0.2@10,churn:lognormal:sigma=2@20+80"
    [ Plan.Crash { peer_fraction = 0.2; at = 10. };
      Plan.Churn { spec = session "lognormal:sigma=2"; at = 20.; until = Some 100. } ]

let test_plan_roundtrip () =
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Error msg -> Alcotest.failf "%s rejected: %s" spec msg
      | Ok plan -> (
          match Plan.of_string (Plan.to_string plan) with
          | Error msg -> Alcotest.failf "%s reparse rejected: %s" spec msg
          | Ok plan' ->
              Alcotest.(check bool) (spec ^ " round-trips") true (plan = plan')))
    [ "crash:0.3@600"; "crash:0.25@600+120"; "flap:0.1@100+30x4";
      "rack:0.2-0.4@50+25"; "abort@42"; "crash:0.1@5,flap:0.2@50+10x2,abort@500";
      "churn:exp@50"; "churn:weibull:up=600:down=200:shape=0.6@100+300";
      "crash:0.2@10,churn:pareto:shape=2:on=0.5@20" ]

let test_plan_validate () =
  let bad label plan =
    Alcotest.(check bool) label true (Result.is_error (Plan.validate plan))
  in
  let crash f at = { Plan.default with Plan.events = [ Plan.Crash { peer_fraction = f; at } ] } in
  Alcotest.(check bool) "default valid" true (Result.is_ok (Plan.validate Plan.default));
  bad "fraction > 1" (crash 1.5 10.);
  bad "fraction < 0" (crash (-0.1) 10.);
  bad "negative time" (crash 0.3 (-5.));
  bad "nan time" (crash 0.3 Float.nan);
  bad "zero recovery delay"
    { Plan.default with
      Plan.events = [ Plan.Crash_recover { peer_fraction = 0.3; at = 10.; after = 0. } ] };
  bad "flap zero cycles"
    { Plan.default with
      Plan.events =
        [ Plan.Flap { peer_fraction = 0.3; at = 10.; period = 5.; cycles = 0 } ] };
  bad "rack empty range"
    { Plan.default with
      Plan.events = [ Plan.Correlated { lo = 0.5; hi = 0.5; at = 10.; after = None } ] };
  (* Rack ranges are half-open [lo, hi): overlapping ranges would fight
     over the same victims and are rejected; merely touching ranges
     share no peer and remain legal. *)
  let racks rs =
    { Plan.default with
      Plan.events =
        List.map (fun (lo, hi) -> Plan.Correlated { lo; hi; at = 10.; after = None }) rs }
  in
  bad "overlapping rack ranges" (racks [ (0.2, 0.5); (0.4, 0.7) ]);
  bad "nested rack ranges" (racks [ (0.1, 0.9); (0.3, 0.4) ]);
  Alcotest.(check bool) "touching rack ranges valid" true
    (Result.is_ok (Plan.validate (racks [ (0.0, 0.3); (0.3, 0.6) ])));
  Alcotest.(check bool) "disjoint rack ranges valid" true
    (Result.is_ok (Plan.validate (racks [ (0.0, 0.2); (0.5, 0.7) ])));
  bad "churn bad spec"
    { Plan.default with
      Plan.events =
        [ Plan.Churn
            { spec = { (session "exp") with Pdht_dist.Session.initially_online_fraction = 1.5 };
              at = 10.; until = None } ] };
  bad "churn window ends before it starts"
    { Plan.default with
      Plan.events = [ Plan.Churn { spec = session "exp"; at = 10.; until = Some 5. } ] };
  bad "repair zero period"
    { Plan.default with Plan.repair = Some { Plan.every = 0.; min_fraction = 0.5 } };
  bad "repair threshold zero"
    { Plan.default with Plan.repair = Some { Plan.every = 10.; min_fraction = 0. } };
  bad "repair threshold > 1"
    { Plan.default with Plan.repair = Some { Plan.every = 10.; min_fraction = 1.5 } };
  bad "check zero period" { Plan.default with Plan.check_invariants = true; check_every = 0. }

let test_plan_rejects_garbage () =
  List.iter
    (fun spec ->
      Alcotest.(check bool) (spec ^ " rejected") true
        (Result.is_error (Plan.of_string spec)))
    [ ""; "bogus"; "crash@10"; "crash:0.3"; "crash:x@10"; "flap:0.3@10+5";
      "rack:0.4@10"; "abort@-1"; "churn:bogus@5"; "churn:exp"; "churn:exp@10+0";
      "churn:exp:shape=2@10" ]

let test_plan_first_fault_time () =
  let plan events = { Plan.default with Plan.events } in
  Alcotest.(check (option (float 0.))) "empty" None (Plan.first_fault_time Plan.default);
  Alcotest.(check (option (float 0.))) "abort excluded" None
    (Plan.first_fault_time (plan [ Plan.Abort { at = 5. } ]));
  Alcotest.(check (option (float 0.))) "earliest crash"
    (Some 20.)
    (Plan.first_fault_time
       (plan
          [ Plan.Abort { at = 5. };
            Plan.Crash { peer_fraction = 0.1; at = 50. };
            Plan.Flap { peer_fraction = 0.1; at = 20.; period = 5.; cycles = 2 } ]));
  Alcotest.(check (option (float 0.))) "churn counts as a fault"
    (Some 15.)
    (Plan.first_fault_time
       (plan
          [ Plan.Crash { peer_fraction = 0.1; at = 50. };
            Plan.Churn { spec = session "exp"; at = 15.; until = None } ]))

(* ------------------------------------------------------------------ *)
(* Injector *)

let run_injector ?registry plan ~peers ~until =
  let engine = Engine.create () in
  let inj = Injector.create ?registry ~rng:(Rng.create ~seed:7) ~peers plan in
  let log = ref [] in
  let actions =
    {
      Injector.crash = (fun ~peer ~now -> log := (`Crash, peer, now) :: !log);
      recover = (fun ~peer ~now -> log := (`Recover, peer, now) :: !log);
      repair = (fun ~span:_ ~now -> log := (`Repair, -1, now) :: !log);
      check = (fun ~now -> log := (`Check, -1, now) :: !log);
    }
  in
  Injector.attach inj engine actions;
  Engine.run engine ~until;
  (inj, List.rev !log)

let test_injector_crash_recover () =
  let plan =
    { Plan.default with
      Plan.events = [ Plan.Crash_recover { peer_fraction = 0.5; at = 10.; after = 20. } ] }
  in
  let registry = Registry.create () in
  let inj, log = run_injector ~registry plan ~peers:40 ~until:100. in
  let count k = List.length (List.filter (fun (k', _, _) -> k' = k) log) in
  Alcotest.(check int) "20 crashes" 20 (count `Crash);
  Alcotest.(check int) "20 recoveries" 20 (count `Recover);
  Alcotest.(check int) "all back up" 0 (Injector.crashed_count inj);
  List.iter
    (fun (kind, _, now) ->
      match kind with
      | `Crash -> Alcotest.(check (float 0.)) "crash at 10" 10. now
      | `Recover -> Alcotest.(check (float 0.)) "recover at 30" 30. now
      | _ -> Alcotest.fail "unexpected action")
    log;
  let c name =
    match Registry.counter_value_by_name registry name with Some v -> v | None -> -1
  in
  Alcotest.(check int) "fault.crashes" 20 (c "fault.crashes");
  Alcotest.(check int) "fault.recoveries" 20 (c "fault.recoveries")

let test_injector_crash_is_sticky () =
  let plan =
    { Plan.default with Plan.events = [ Plan.Crash { peer_fraction = 0.25; at = 5. } ] }
  in
  let inj, log = run_injector plan ~peers:80 ~until:50. in
  Alcotest.(check int) "20 crashed" 20 (Injector.crashed_count inj);
  Alcotest.(check int) "no recoveries" 0
    (List.length (List.filter (fun (k, _, _) -> k = `Recover) log));
  let crashed_peers = List.filter_map (fun (k, p, _) -> if k = `Crash then Some p else None) log in
  List.iter
    (fun p -> Alcotest.(check bool) "predicate agrees" true (Injector.crashed inj p))
    crashed_peers

let test_injector_flap_ends_recovered () =
  let plan =
    { Plan.default with
      Plan.events =
        [ Plan.Flap { peer_fraction = 0.2; at = 10.; period = 5.; cycles = 3 } ] }
  in
  let inj, log = run_injector plan ~peers:50 ~until:200. in
  let count k = List.length (List.filter (fun (k', _, _) -> k' = k) log) in
  Alcotest.(check int) "3 cycles of 10 crashes" 30 (count `Crash);
  Alcotest.(check int) "3 cycles of 10 recoveries" 30 (count `Recover);
  Alcotest.(check int) "ends recovered" 0 (Injector.crashed_count inj)

let test_injector_correlated_range () =
  let plan =
    { Plan.default with
      Plan.events = [ Plan.Correlated { lo = 0.25; hi = 0.5; at = 5.; after = None } ] }
  in
  let inj, _ = run_injector plan ~peers:100 ~until:50. in
  for p = 0 to 99 do
    Alcotest.(check bool)
      (Printf.sprintf "peer %d" p)
      (p >= 25 && p < 50) (Injector.crashed inj p)
  done

let test_injector_churn_regime () =
  (* A bounded churn window: during it some peers are plan-offline
     (crashed stays false — churned peers keep their state); the
     closing sweep forces everyone back online; transitions land on the
     lazily-registered [fault.churn_transitions] counter. *)
  let spec = session "weibull:up=40:down=20:shape=0.6:on=0.5" in
  let plan =
    { Plan.default with
      Plan.events = [ Plan.Churn { spec; at = 10.; until = Some 200. } ] }
  in
  let peers = 60 in
  let engine = Engine.create () in
  let registry = Registry.create () in
  let inj = Injector.create ~registry ~rng:(Rng.create ~seed:7) ~peers plan in
  let actions =
    {
      Injector.crash = (fun ~peer:_ ~now:_ -> Alcotest.fail "churn must not crash");
      recover = (fun ~peer:_ ~now:_ -> Alcotest.fail "churn must not recover");
      repair = (fun ~span:_ ~now:_ -> ());
      check = (fun ~now:_ -> ());
    }
  in
  Injector.attach inj engine actions;
  let mid_offline = ref (-1) in
  Engine.schedule_at engine ~time:100. (fun _ ->
      mid_offline := Injector.churned_count inj;
      let recount = ref 0 in
      for p = 0 to peers - 1 do
        if Injector.plan_offline inj p then incr recount;
        Alcotest.(check bool) "churn is not a crash" false (Injector.crashed inj p)
      done;
      Alcotest.(check int) "churned_count matches the flags" !recount
        (Injector.churned_count inj));
  Engine.run engine ~until:300.;
  Alcotest.(check bool) "some peers offline mid-window" true (!mid_offline > 0);
  Alcotest.(check int) "window closes all-online" 0 (Injector.churned_count inj);
  for p = 0 to peers - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "peer %d back online" p)
      false (Injector.plan_offline inj p)
  done;
  match Registry.counter_value_by_name registry "fault.churn_transitions" with
  | None -> Alcotest.fail "fault.churn_transitions not registered"
  | Some v -> Alcotest.(check bool) "transitions counted" true (v > 0)

let test_injector_repair_schedule () =
  let plan =
    { Plan.default with Plan.repair = Some { Plan.every = 10.; min_fraction = 0.5 } }
  in
  let _, log = run_injector plan ~peers:10 ~until:55. in
  Alcotest.(check int) "5 passes in 55s" 5
    (List.length (List.filter (fun (k, _, _) -> k = `Repair) log))

let test_injector_rejects_invalid_plan () =
  let plan =
    { Plan.default with Plan.events = [ Plan.Crash { peer_fraction = 2.0; at = 1. } ] }
  in
  match Injector.create ~rng:(Rng.create ~seed:1) ~peers:10 plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* System-level contracts *)

let sim_scenario =
  {
    Scenario.news_default with
    Scenario.num_peers = 300;
    keys = 600;
    duration = 600.;
    seed = 17;
  }

let options = System.Options.make ~repl:20 ~stor:100 ()

let partial scenario options =
  Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }

let run_with_fault ?(scenario = sim_scenario) plan =
  let options = { options with System.fault = plan } in
  System.run scenario (partial scenario options) options

let test_empty_plan_equivalence () =
  (* Tentpole contract: enabling the machinery with an empty plan must
     reproduce the no-fault report field for field once its own [fault]
     summary is set aside — proof that the injector draws from its
     private stream only and perturbs nothing. *)
  let plain = run_with_fault None in
  let faulted = run_with_fault (Some Plan.default) in
  (match faulted.System.fault with
  | None -> Alcotest.fail "fault-enabled report lacks its fault summary"
  | Some f ->
      Alcotest.(check int) "no crashes" 0 f.System.crashes;
      Alcotest.(check int) "no repair passes" 0 f.System.repair_passes);
  let stripped = { faulted with System.fault = None } in
  Alcotest.(check int) "queries" plain.System.queries stripped.System.queries;
  Alcotest.(check int) "total messages" plain.System.total_messages
    stripped.System.total_messages;
  Alcotest.(check bool) "entire report identical" true (stripped = plain)

let e21_plan ~repair =
  {
    Plan.default with
    Plan.events = [ Plan.Crash { peer_fraction = 0.3; at = 300. } ];
    repair = (if repair then Some { Plan.every = 30.; min_fraction = 0.5 } else None);
  }

let test_mass_crash_dip_and_recovery () =
  (* E21 in miniature: a 30% mass crash at steady state damages the
     index (entries and content replicas lost), dips the service rate,
     and the run recovers to within 5% of the pre-fault baseline. *)
  let report = run_with_fault (Some (e21_plan ~repair:true)) in
  match report.System.fault with
  | None -> Alcotest.fail "missing fault summary"
  | Some f ->
      Alcotest.(check int) "30% of 300 crashed" 90 f.System.crashes;
      Alcotest.(check bool) "index entries lost" true (f.System.entries_lost > 0);
      Alcotest.(check bool) "content replicas lost" true (f.System.content_lost > 0);
      Alcotest.(check bool) "dip below baseline" true
        (f.System.dip_rate < f.System.pre_fault_rate);
      (match f.System.time_to_recover with
      | None -> Alcotest.fail "never recovered"
      | Some t ->
          Alcotest.(check bool) "recovery time positive and in-run" true
            (t > 0. && t <= sim_scenario.Scenario.duration))

let test_repair_counters_gated () =
  (* Repair counters are non-zero exactly when repair is enabled; the
     crash-side counters fire either way. *)
  let without = run_with_fault (Some (e21_plan ~repair:false)) in
  let with_repair = run_with_fault (Some (e21_plan ~repair:true)) in
  match (without.System.fault, with_repair.System.fault) with
  | Some off, Some on ->
      Alcotest.(check int) "no passes when disabled" 0 off.System.repair_passes;
      Alcotest.(check int) "no repair traffic when disabled" 0 off.System.repair_messages;
      Alcotest.(check int) "nothing re-replicated when disabled" 0
        (off.System.repaired_items + off.System.repaired_entries);
      Alcotest.(check bool) "passes when enabled" true (on.System.repair_passes > 0);
      Alcotest.(check bool) "repair traffic when enabled" true
        (on.System.repair_messages > 0);
      Alcotest.(check int) "crashes identical" off.System.crashes on.System.crashes
  | _ -> Alcotest.fail "missing fault summary"

let test_crash_differs_from_no_fault () =
  (* A non-empty plan must actually change the run — guard against the
     injector silently becoming a no-op. *)
  let plain = run_with_fault None in
  let crashed = run_with_fault (Some (e21_plan ~repair:false)) in
  Alcotest.(check bool) "reports differ" true
    ({ crashed with System.fault = None } <> plain)

let test_abort_carries_context_to_runner () =
  (* Satellite: a scheduled abort raises through the engine's labelled
     wrapper, and Runner.run_all records the failure with the simulated
     time and the "fault:abort" stage attached. *)
  let plan = { Plan.default with Plan.events = [ Plan.Abort { at = 120. } ] } in
  let scenario = { sim_scenario with Scenario.duration = 300. } in
  let spec =
    Run_spec.make ~options:{ options with System.fault = Some plan } scenario
  in
  let results = Runner.run_all ~jobs:1 [ spec ] in
  match Run_result.failures results with
  | [ (_, message) ] ->
      Alcotest.(check bool) "mentions stage" true (contains message "fault:abort");
      Alcotest.(check bool) "mentions time" true (contains message "t=120")
  | [] -> Alcotest.fail "abort did not fail the run"
  | _ -> Alcotest.fail "expected exactly one failure"

(* ------------------------------------------------------------------ *)
(* Determinism: fault-enabled batches across worker counts *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"fault-enabled runs identical for -j 1 vs -j 4" ~count:3
      (pair (int_bound 10_000) (int_bound 2))
      (fun (seed, which) ->
        let events =
          match which with
          | 0 -> [ Plan.Crash { peer_fraction = 0.3; at = 80. } ]
          | 1 -> [ Plan.Crash_recover { peer_fraction = 0.4; at = 60.; after = 40. } ]
          | _ -> [ Plan.Flap { peer_fraction = 0.2; at = 40.; period = 15.; cycles = 2 } ]
        in
        let plan =
          { Plan.default with
            Plan.events;
            repair = Some { Plan.every = 20.; min_fraction = 0.5 } }
        in
        let scenario =
          { sim_scenario with Scenario.num_peers = 150; keys = 300;
            duration = 200.; seed }
        in
        let spec =
          Run_spec.make ~options:{ options with System.fault = Some plan } scenario
        in
        let reports jobs =
          Run_result.reports_exn (Runner.run_all ~jobs [ spec; spec ])
        in
        reports 1 = reports 4);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pdht_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "parse" `Quick test_plan_parse;
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "rejects garbage" `Quick test_plan_rejects_garbage;
          Alcotest.test_case "first fault time" `Quick test_plan_first_fault_time;
        ] );
      ( "injector",
        [
          Alcotest.test_case "crash + recover" `Quick test_injector_crash_recover;
          Alcotest.test_case "crash is sticky" `Quick test_injector_crash_is_sticky;
          Alcotest.test_case "flap ends recovered" `Quick test_injector_flap_ends_recovered;
          Alcotest.test_case "correlated range" `Quick test_injector_correlated_range;
          Alcotest.test_case "churn regime" `Quick test_injector_churn_regime;
          Alcotest.test_case "repair schedule" `Quick test_injector_repair_schedule;
          Alcotest.test_case "rejects invalid plan" `Quick
            test_injector_rejects_invalid_plan;
        ] );
      ( "system",
        [
          Alcotest.test_case "empty plan == no fault" `Slow test_empty_plan_equivalence;
          Alcotest.test_case "mass crash dips then recovers" `Slow
            test_mass_crash_dip_and_recovery;
          Alcotest.test_case "repair counters gated on repair" `Slow
            test_repair_counters_gated;
          Alcotest.test_case "crash perturbs the run" `Slow
            test_crash_differs_from_no_fault;
          Alcotest.test_case "abort carries context to runner" `Quick
            test_abort_carries_context_to_runner;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
