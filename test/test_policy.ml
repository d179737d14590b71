(* Selection-policy tests: the spec grammar (exact round-trips plus
   qcheck properties), the per-key frequency estimator, the
   cost-optimal selector, and the system wiring (report goldens and
   where the selector is installed). *)

module Sel = Pdht_policy.Selector
module Cost = Sel.Cost_optimal
module Freq = Pdht_policy.Freq

let spec = Alcotest.testable (Fmt.of_to_string Sel.to_string) Sel.equal

let params =
  {
    Pdht_model.Params.num_peers = 500;
    keys = 1000;
    stor = 100;
    repl = 20;
    alpha = 1.0;
    f_qry = 0.001;
    f_upd = 0.;
    env = 1. /. 14.;
    dup = 1.8;
    dup2 = 1.8;
  }

(* --- grammar ------------------------------------------------------- *)

let test_grammar_round_trip () =
  List.iter
    (fun (s, expected) ->
      match Sel.of_string s with
      | Ok parsed ->
          Alcotest.check spec (Printf.sprintf "parse %S" s) expected parsed;
          Alcotest.(check string)
            (Printf.sprintf "print %S" s)
            (Sel.to_string expected) (Sel.to_string parsed)
      | Error msg -> Alcotest.failf "of_string %S: %s" s msg)
    [
      ("ttl", Sel.Ttl Sel.Model_derived);
      ("ttl:300", Sel.Ttl (Sel.Fixed 300.));
      ("ttl:0.5", Sel.Ttl (Sel.Fixed 0.5));
      ("ttl:adaptive", Sel.Ttl Sel.Adaptive);
      ("TTL:Adaptive", Sel.Ttl Sel.Adaptive);
      ("cost", Sel.Cost_optimal);
      ("  cost ", Sel.Cost_optimal);
    ]

let test_grammar_rejects () =
  List.iter
    (fun s ->
      match Sel.of_string s with
      | Ok parsed -> Alcotest.failf "of_string %S accepted as %s" s (Sel.to_string parsed)
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error mentions input" s)
            true
            (String.length msg > 0))
    [ ""; "ttl:"; "ttl:-5"; "ttl:0"; "ttl:nan"; "learned"; "cache"; "cache:500";
      "cache:0"; "cost:5"; "learned:0.9"; "lru"; "ttl:adaptive:fast" ];
  (* The error names only the heads the grammar accepts. *)
  Alcotest.(check (result spec string))
    "unknown head" (Error "unknown policy \"learned\" (ttl / cost)") (Sel.of_string "learned")

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        return (Sel.Ttl Sel.Model_derived);
        return (Sel.Ttl Sel.Adaptive);
        map (fun ttl -> Sel.Ttl (Sel.Fixed ttl)) (map float_of_int (int_range 1 100000));
        return Sel.Cost_optimal;
      ])

let arbitrary_spec = QCheck.make ~print:Sel.to_string spec_gen

let prop_print_parse_round_trip =
  QCheck.Test.make ~name:"to_string |> of_string round-trips" ~count:500 arbitrary_spec
    (fun s ->
      match Sel.of_string (Sel.to_string s) with
      | Ok parsed -> Sel.equal s parsed
      | Error _ -> false)

let prop_parse_print_idempotent =
  QCheck.Test.make ~name:"of_string output reprints canonically" ~count:500 arbitrary_spec
    (fun s ->
      (* Any accepted string prints to a canonical form that parses to
         the same spec — parsing is idempotent through printing. *)
      match Sel.of_string (Sel.to_string s) with
      | Error _ -> false
      | Ok parsed -> (
          match Sel.of_string (Sel.to_string parsed) with
          | Ok again -> Sel.equal parsed again && Sel.to_string parsed = Sel.to_string again
          | Error _ -> false))

let prop_validate_accepts_generated =
  QCheck.Test.make ~name:"generated specs validate" ~count:200 arbitrary_spec (fun s ->
      match Sel.validate s with Ok v -> Sel.equal s v | Error _ -> false)

(* --- frequency estimator ------------------------------------------- *)

let test_freq_fold_and_rank () =
  let f = Freq.create ~keys:4 in
  (* Window 1 (10s): key 0 queried 10 times, key 1 once. *)
  for _ = 1 to 10 do
    Freq.note f ~key_index:0
  done;
  Freq.note f ~key_index:1;
  Freq.fold f ~now:10.;
  Alcotest.(check (float 1e-9)) "seeded rate" 1.0 (Freq.rate f ~key_index:0);
  Alcotest.(check (float 1e-9)) "seeded rate key1" 0.1 (Freq.rate f ~key_index:1);
  Alcotest.(check (float 1e-9)) "cold key" 0. (Freq.rate f ~key_index:3);
  (* Window 2 (10s): key 0 silent — EMA halves toward 0 at smoothing
     0.5; key 2 bursts. *)
  for _ = 1 to 20 do
    Freq.note f ~key_index:2
  done;
  Freq.fold f ~now:20.;
  Alcotest.(check (float 1e-9)) "decayed" 0.5 (Freq.rate f ~key_index:0);
  (* Only the estimator's first fold seeds directly; a key first seen
     later climbs through the EMA: 0.5*0 + 0.5*2.0. *)
  Alcotest.(check (float 1e-9)) "burst climbs via EMA" 1.0 (Freq.rate f ~key_index:2);
  Alcotest.(check bool) "burst outranks the decayed key" true
    (Freq.rate f ~key_index:2 > Freq.rate f ~key_index:0)

let test_freq_live_rate () =
  let f = Freq.create ~keys:2 in
  for _ = 1 to 10 do
    Freq.note f ~key_index:0
  done;
  Freq.fold f ~now:10.;
  (* Open window: key 1 suddenly hot; live_rate sees it before any fold. *)
  for _ = 1 to 30 do
    Freq.note f ~key_index:1
  done;
  Alcotest.(check bool) "live beats stale EMA" true
    (Freq.live_rate f ~now:15. ~key_index:1 > Freq.rate f ~key_index:1);
  Alcotest.(check (float 1e-9)) "live is count/elapsed" 6.0
    (Freq.live_rate f ~now:15. ~key_index:1)

(* --- selectors ----------------------------------------------------- *)

let feed_queries sel ~now ~key_index ~n =
  for _ = 1 to n do
    Cost.observe sel ~now ~key_index Sel.Queried
  done

let cost_selector () = Cost.create ~params ~base_ttl:600. ~retune_every:300.

let test_cost_optimal_thresholds () =
  let sel = cost_selector () in
  (* Before any retune the selector is permissive (no fit yet). *)
  Alcotest.(check bool) "warm-up admits" true (Cost.admit sel ~now:10. ~key_index:42);
  (* Hot key: far above any plausible fMin; cold key: never queried. *)
  feed_queries sel ~now:100. ~key_index:0 ~n:2000;
  feed_queries sel ~now:100. ~key_index:1 ~n:1;
  Cost.retune sel ~now:300.;
  let s = Cost.summary sel in
  Alcotest.(check bool) "threshold fitted" true (s.Sel.threshold > 0.);
  Alcotest.(check bool) "hot admitted" true (Cost.admit sel ~now:310. ~key_index:0);
  Alcotest.(check bool) "cold rejected" false (Cost.admit sel ~now:310. ~key_index:5);
  Alcotest.(check bool) "hot lease longer than cold" true
    (Cost.ttl_for sel ~now:310. ~key_index:0 > Cost.ttl_for sel ~now:310. ~key_index:5)

let test_create_validates () =
  Alcotest.check_raises "bad base_ttl"
    (Invalid_argument "Selector.Cost_optimal.create: base_ttl must be finite and positive")
    (fun () -> ignore (Cost.create ~params ~base_ttl:0. ~retune_every:300.));
  Alcotest.check_raises "bad retune_every"
    (Invalid_argument "Selector.Cost_optimal.create: retune_every must be positive")
    (fun () -> ignore (Cost.create ~params ~base_ttl:600. ~retune_every:0.))

let test_summary_counters () =
  let sel = cost_selector () in
  feed_queries sel ~now:50. ~key_index:0 ~n:7;
  Cost.observe sel ~now:50. ~key_index:0 Sel.Inserted;
  Cost.observe sel ~now:50. ~key_index:1 Sel.Rejected;
  Cost.retune sel ~now:300.;
  Cost.retune sel ~now:600.;
  let s = Cost.summary sel in
  Alcotest.(check string) "label" "cost" s.Sel.policy;
  Alcotest.(check int) "observed" 7 s.Sel.observed_queries;
  Alcotest.(check int) "admitted" 1 s.Sel.admitted_inserts;
  Alcotest.(check int) "rejected" 1 s.Sel.rejected_inserts;
  Alcotest.(check int) "retunes" 2 s.Sel.retunes

(* --- system ------------------------------------------------------- *)

module System = Pdht_core.System
module Strategy = Pdht_core.Strategy
module Scenario = Pdht_work.Scenario

(* The same run as
     pdht simulate --peers 200 --keys 300 --duration 400 --policy SPEC
   (long enough for the selector to retune). *)
let cli_scenario =
  { Scenario.news_default with Scenario.num_peers = 200; keys = 300; duration = 400. }

let with_policy selection_policy = System.Options.make ~repl:20 ~stor:100 ~selection_policy ()

let cli_report ?(scenario = cli_scenario) ?strategy options =
  let strategy =
    match strategy with
    | Some s -> s
    | None -> Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }
  in
  Pdht_core.Runner.run_all [ Pdht_core.Run_spec.make ~strategy ~options scenario ]
  |> List.hd |> snd |> Pdht_core.Run_result.report_exn

let render report = Format.asprintf "%a@." System.pp_report report

let test_cost_run_matches_golden () =
  Golden.check "cost_policy_report.txt" (render (cli_report (with_policy Sel.Cost_optimal)))

let test_adaptive_run_matches_golden () =
  Golden.check "adaptive_policy_report.txt"
    (render (cli_report (with_policy (Sel.Ttl Sel.Adaptive))))

(* The default-policy contract through System.run: the default options
   and an explicit [Ttl Model_derived] spec both print the report of
   [pdht simulate --peers 200 --keys 300 --duration 240], which was
   pinned before the policy axis existed. *)
let test_default_run_matches_golden () =
  let scenario = { cli_scenario with Scenario.duration = 240. } in
  List.iter
    (fun options ->
      Golden.check "default_policy_report.txt" (render (cli_report ~scenario options)))
    [ System.default_options; with_policy (Sel.Ttl Sel.Model_derived) ]

(* Only a partial index has insertions to gate: the selector (and with
   it the report's policy summary) exists under [Partial_index] alone. *)
let test_selector_installed_only_for_partial () =
  (match (cli_report (with_policy Sel.Cost_optimal)).System.policy with
  | Some s -> Alcotest.(check string) "partial installs cost" "cost" s.Sel.policy
  | None -> Alcotest.fail "partial cost run carries no policy summary");
  let short = { cli_scenario with Scenario.duration = 120. } in
  List.iter
    (fun (label, strategy) ->
      Alcotest.(check bool)
        (label ^ " installs no selector")
        true
        ((cli_report ~scenario:short ~strategy (with_policy Sel.Cost_optimal)).System.policy
        = None))
    [ ("index-all", Strategy.Index_all); ("no-index", Strategy.No_index) ]

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_round_trip; prop_parse_print_idempotent;
      prop_validate_accepts_generated ]

let () =
  Alcotest.run "pdht_policy"
    [
      ( "grammar",
        [
          Alcotest.test_case "round trips" `Quick test_grammar_round_trip;
          Alcotest.test_case "rejects junk" `Quick test_grammar_rejects;
        ]
        @ qsuite );
      ( "freq",
        [
          Alcotest.test_case "fold and rank" `Quick test_freq_fold_and_rank;
          Alcotest.test_case "live rate" `Quick test_freq_live_rate;
        ] );
      ( "selectors",
        [
          Alcotest.test_case "cost-optimal thresholds" `Quick test_cost_optimal_thresholds;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "summary counters" `Quick test_summary_counters;
        ] );
      ( "system",
        [
          Alcotest.test_case "default run matches golden" `Slow
            test_default_run_matches_golden;
          Alcotest.test_case "cost run matches golden" `Slow test_cost_run_matches_golden;
          Alcotest.test_case "adaptive run matches golden" `Slow
            test_adaptive_run_matches_golden;
          Alcotest.test_case "selector only under partial" `Quick
            test_selector_installed_only_for_partial;
        ] );
    ]
