(* Cross-module integration tests: the paper's claims exercised through
   the whole stack (model + simulator together). *)

module Scenario = Pdht_work.Scenario
module Strategy = Pdht_core.Strategy
module System = Pdht_core.System
module Experiment = Pdht_core.Experiment
module Metrics = Pdht_sim.Metrics

let options = { System.default_options with System.repl = 10; stor = 60 }

let scenario =
  {
    Scenario.news_default with
    Scenario.num_peers = 150;
    keys = 300;
    f_qry = 1. /. 10.;
    duration = 400.;
    seed = 21;
  }

(* E7 shape: the simulated strategies must reproduce the model's
   ordering at both ends of the frequency sweep. *)
let test_face_off_shape () =
  let rows =
    Experiment.face_off ~options ~scenario ~frequencies:[ 1. /. 10.; 1. /. 200. ] ()
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Experiment.face_off_row) ->
      (* Simulated partial must beat simulated noIndex at busy rates,
         mirroring model_partial < model_no_index. *)
      if r.Experiment.model_partial < r.Experiment.model_no_index then
        Alcotest.(check bool)
          (Printf.sprintf "sim agrees with model at f=%g (partial %.0f vs none %.0f)"
             r.Experiment.f_qry r.Experiment.sim_partial r.Experiment.sim_no_index)
          true
          (r.Experiment.sim_partial < r.Experiment.sim_no_index);
      Alcotest.(check bool) "hit rate sane" true
        (r.Experiment.sim_hit_rate >= 0. && r.Experiment.sim_hit_rate <= 1.))
    rows

(* E6: after a drastic popularity shift the index re-learns the hot set
   (paper Section 5.2 / 6: the scheme "adapts to changing query
   frequencies and distributions"). *)
let test_adaptivity_recovers () =
  let shifted =
    {
      scenario with
      Scenario.duration = 1200.;
      shift = Scenario.Swap_halves_at 600.;
      seed = 22;
    }
  in
  let result = Experiment.adaptivity ~options ~scenario:shifted () in
  Alcotest.(check bool) "warmed up before shift" true
    (result.Experiment.before_hit_rate > 0.5);
  Alcotest.(check bool) "recovers after shift" true
    (result.Experiment.after_hit_rate > 0.8 *. result.Experiment.before_hit_rate);
  match result.Experiment.recovery_seconds with
  | Some s -> Alcotest.(check bool) "recovery within run" true (s < 600.)
  | None -> Alcotest.fail "hit rate never recovered after the shift"

(* E8a: random walks must be far cheaper than flooding while still
   succeeding — the paper's reason for assuming [LvCa02]-style search. *)
let test_search_ablation () =
  let rows = Experiment.search_ablation ~seed:3 ~peers:400 ~repl:20 ~trials:60 () in
  List.iter
    (fun graph ->
      let find m =
        List.find
          (fun (r : Experiment.search_ablation_row) ->
            r.Experiment.graph = graph && r.Experiment.mechanism = m)
          rows
      in
      let flood = find "flooding" and walks = find "random-walks" in
      Alcotest.(check bool) (graph ^ ": flooding succeeds") true
        (flood.Experiment.success_rate > 0.95);
      Alcotest.(check bool) (graph ^ ": walks succeed") true
        (walks.Experiment.success_rate > 0.95);
      Alcotest.(check bool)
        (Printf.sprintf "%s: walks (%.0f msg) cheaper than flooding (%.0f msg)" graph
           walks.Experiment.mean_messages flood.Experiment.mean_messages)
        true
        (walks.Experiment.mean_messages < flood.Experiment.mean_messages /. 2.))
    [ "random"; "power-law" ]

(* E8b: both DHT backends give O(log n) lookups near the Eq. 7
   expectation, with and without churn. *)
let test_backend_ablation () =
  let check_rows offline_fraction =
    let rows =
      Experiment.backend_ablation ~seed:4 ~members:512 ~trials:300 ~offline_fraction ()
    in
    List.iter
      (fun (r : Experiment.backend_ablation_row) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s success %.2f" r.Experiment.backend r.Experiment.success_rate)
          true
          (r.Experiment.success_rate > 0.9);
        Alcotest.(check bool)
          (Printf.sprintf "%s hops %.1f within 4x of Eq.7 (%.1f)" r.Experiment.backend
             r.Experiment.mean_hops r.Experiment.model_expectation)
          true
          (r.Experiment.mean_hops < 4. *. r.Experiment.model_expectation))
      rows
  in
  check_rows 0.;
  check_rows 0.15

(* E19: the selection algorithm is backend-agnostic — identical hit and
   answer rates on every structured substrate. *)
let test_backend_face_off_agnostic () =
  let rows = Experiment.backend_face_off ~options ~scenario () in
  Alcotest.(check int) "four backends" 4 (List.length rows);
  let hit_rates =
    List.map (fun (r : Experiment.backend_system_row) -> r.Experiment.hit_rate) rows
  in
  let min_hit = List.fold_left Float.min 1. hit_rates in
  let max_hit = List.fold_left Float.max 0. hit_rates in
  Alcotest.(check bool)
    (Printf.sprintf "hit rates within 3 points (%.3f..%.3f)" min_hit max_hit)
    true
    (max_hit -. min_hit < 0.03);
  List.iter
    (fun (r : Experiment.backend_system_row) ->
      Alcotest.(check bool)
        (r.Experiment.backend_name ^ " answers everything")
        true
        (r.Experiment.answer_rate > 0.99))
    rows

(* Extension: the adaptive TTL controller must land in the same cost
   regime as the best fixed TTL. *)
let test_ttl_tuning_competitive () =
  let rows = Experiment.ttl_tuning ~options ~scenario ~fixed_ttls:[ 60.; 300.; 1500. ] () in
  Alcotest.(check int) "three fixed + adaptive" 4 (List.length rows);
  let adaptive = List.nth rows 3 in
  let best_fixed =
    List.fold_left
      (fun acc (r : Experiment.ttl_tuning_row) -> Float.min acc r.Experiment.messages_per_second)
      infinity
      (List.filteri (fun i _ -> i < 3) rows)
  in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.0f within 2x of best fixed %.0f"
       adaptive.Experiment.messages_per_second best_fixed)
    true
    (adaptive.Experiment.messages_per_second < 2. *. best_fixed)

(* E12: the selection algorithm degrades gracefully with churn. *)
let test_churn_sensitivity_graceful () =
  let rows =
    Experiment.churn_sensitivity ~options ~scenario ~availabilities:[ 1.0; 0.6 ] ()
  in
  match rows with
  | [ full; churny ] ->
      Alcotest.(check bool) "answers stay near-perfect" true
        (churny.Experiment.answer_rate > 0.97);
      Alcotest.(check bool) "hit rate degrades but survives" true
        (churny.Experiment.hit_rate > 0.6
        && churny.Experiment.hit_rate <= full.Experiment.hit_rate +. 0.02)
  | _ -> Alcotest.fail "expected two rows"

(* E13: flatter workloads index more keys. *)
let test_workload_mix_shape () =
  let rows = Experiment.workload_mix ~options ~scenario () in
  let find w =
    List.find (fun (r : Experiment.workload_row) -> r.Experiment.workload = w) rows
  in
  let uniform = find "uniform" and zipf = find "zipf(1.2)" in
  Alcotest.(check bool) "uniform indexes more of the key space" true
    (uniform.Experiment.indexed_fraction > zipf.Experiment.indexed_fraction);
  Alcotest.(check bool) "uniform costs more" true
    (uniform.Experiment.messages_per_second > zipf.Experiment.messages_per_second)

(* Seed replication: estimates are stable across seeds. *)
let test_replicate_seeds_stable () =
  let key_ttl = System.derive_key_ttl scenario options in
  let stats =
    Experiment.replicate_seeds ~options ~scenario
      ~strategy:(Strategy.Partial_index { key_ttl })
      ~seeds:[ 1; 2; 3 ] ()
  in
  Alcotest.(check int) "three runs" 3 stats.Experiment.runs;
  Alcotest.(check bool) "relative sd of msg/s under 10%" true
    (stats.Experiment.sd_messages_per_second
     /. stats.Experiment.mean_messages_per_second
    < 0.1);
  Alcotest.(check bool) "hit rate sd tiny" true (stats.Experiment.sd_hit_rate < 0.05)

(* Message conservation: the per-category counters must sum to the
   total, and categories must match what each strategy can generate. *)
let test_message_accounting_conserved () =
  let ttl = System.derive_key_ttl scenario options in
  List.iter
    (fun strategy ->
      let r = System.run scenario strategy options in
      let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 r.System.messages_by_category in
      Alcotest.(check int) "category sum = total" r.System.total_messages sum)
    [ Strategy.Index_all; Strategy.No_index; Strategy.Partial_index { key_ttl = ttl } ]

(* Empirical Eq. 15: the steady-state index size of the simulation must
   land in the regime the TTL model predicts. *)
let test_empirical_index_size_vs_model () =
  let ttl = System.derive_key_ttl scenario options in
  let r = System.run scenario (Strategy.Partial_index { key_ttl = ttl }) options in
  (* Model prediction at simulation scale. *)
  let params =
    {
      Pdht_model.Params.num_peers = scenario.Scenario.num_peers;
      keys = scenario.Scenario.keys;
      stor = options.System.stor;
      repl = options.System.repl;
      alpha = 1.2;
      f_qry = scenario.Scenario.f_qry;
      f_upd = 0.;
      env = 1. /. 14.;
      dup = 1.8;
      dup2 = 1.8;
    }
  in
  let st = Pdht_model.Strategies.ttl_state params ~key_ttl:ttl in
  let predicted = st.Pdht_model.Strategies.index_size in
  let measured = float_of_int r.System.indexed_keys_final in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.0f within [0.5, 1.5]x of Eq.15 prediction %.0f" measured
       predicted)
    true
    (measured > 0.5 *. predicted && measured < 1.5 *. predicted)

let () =
  Alcotest.run "pdht_integration"
    [
      ( "experiments",
        [
          Alcotest.test_case "E7 face-off shape" `Slow test_face_off_shape;
          Alcotest.test_case "E6 adaptivity" `Slow test_adaptivity_recovers;
          Alcotest.test_case "E8a search ablation" `Quick test_search_ablation;
          Alcotest.test_case "E8b backend ablation" `Quick test_backend_ablation;
          Alcotest.test_case "ttl tuning" `Slow test_ttl_tuning_competitive;
          Alcotest.test_case "E19 backend agnostic" `Slow test_backend_face_off_agnostic;
          Alcotest.test_case "E12 churn sensitivity" `Slow test_churn_sensitivity_graceful;
          Alcotest.test_case "E13 workload mix" `Slow test_workload_mix_shape;
          Alcotest.test_case "seed replication" `Slow test_replicate_seeds_stable;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "message accounting" `Slow test_message_accounting_conserved;
          Alcotest.test_case "empirical Eq. 15" `Slow test_empirical_index_size_vs_model;
        ] );
    ]
