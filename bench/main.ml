(* Benchmark / experiment harness: regenerates every table and figure of
   the paper's evaluation plus the extension experiments indexed in
   DESIGN.md.  [main.exe --help] lists the sections; naming none runs
   them all.  [-j/--jobs N] runs each experiment's independent
   simulations on N domains; output is byte-identical for every N. *)

open Cmdliner
module Params = Pdht_model.Params
module Sweep = Pdht_model.Sweep
module Strategies = Pdht_model.Strategies
module Index_policy = Pdht_model.Index_policy
module Ttl_analysis = Pdht_model.Ttl_analysis
module Table = Pdht_util.Table
module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Experiment = Pdht_core.Experiment
module Strategy = Pdht_core.Strategy
module Psel = Pdht_policy.Selector
module Json = Pdht_obs.Json

let heading title note =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  if note <> "" then Printf.printf "%s\n" note;
  Printf.printf "================================================================\n"

let freq_label f = Printf.sprintf "1/%.0f" (1. /. f)

let print_table columns rows = Table.print (Table.make columns rows)

(* ------------------------------------------------------------------ *)
(* Analytic sections (paper scale: Table 1 parameters) *)

let section_table1 () =
  heading "Table 1 - parameters of the sample scenario"
    "(paper Section 4; the model sections below all use these values)";
  print_table
    [ ("Description", Table.Left, fun (d, _, _) -> d);
      ("Param.", Table.Left, fun (_, s, _) -> s);
      ("Value", Table.Left, fun (_, _, v) -> v) ]
    (Params.to_rows Params.default);
  let s = Index_policy.solve Params.default in
  Printf.printf
    "\nDerived at fQry = 1/30: cSUnstr = %.1f msg, cSIndx = %.2f msg,\n\
     cIndKey = %.4f msg/s, fMin = %.6f, maxRank = %d, numActivePeers = %d,\n\
     keyTtl = 1/fMin = %.0f s\n"
    s.Index_policy.c_s_unstr s.Index_policy.c_s_indx s.Index_policy.c_ind_key
    s.Index_policy.f_min s.Index_policy.max_rank s.Index_policy.num_active_peers
    (Strategies.default_key_ttl s)

let sweep_points () = Sweep.default_run Params.default

let fqry_column =
  ("fQry [1/s]", Table.Left, fun (p : Sweep.point) -> freq_label p.Sweep.f_qry)

let section_fig1 () =
  heading "Fig. 1 - query frequency vs total sent messages per second"
    "(paper: indexAll flat ~20-25k; noIndex linear in fQry; partial below both)";
  print_table
    [ fqry_column;
      ("indexAll [msg/s]", Table.Right, fun p -> Printf.sprintf "%.0f" p.Sweep.index_all);
      ("noIndex [msg/s]", Table.Right, fun p -> Printf.sprintf "%.0f" p.Sweep.no_index);
      ( "partial (ideal) [msg/s]", Table.Right,
        fun p -> Printf.sprintf "%.0f" p.Sweep.partial_ideal ) ]
    (sweep_points ())

let section_fig2 () =
  heading "Fig. 2 - savings of ideal partial indexing"
    "(paper: vs indexAll rising toward 1 at low rates; vs noIndex ~0.95 falling)";
  print_table
    [ fqry_column;
      ( "vs indexAll", Table.Right,
        fun p -> Printf.sprintf "%.3f" p.Sweep.savings_ideal_vs_all );
      ( "vs noIndex", Table.Right,
        fun p -> Printf.sprintf "%.3f" p.Sweep.savings_ideal_vs_none ) ]
    (sweep_points ())

let section_fig3 () =
  heading "Fig. 3 - index size and answerable fraction (ideal partial)"
    "(paper: both fall as queries get rarer; small index still answers most queries)";
  print_table
    [ fqry_column;
      ( "index size (maxRank/keys)", Table.Right,
        fun p -> Printf.sprintf "%.3f" p.Sweep.index_fraction );
      ("pIndxd (Eq. 5)", Table.Right, fun p -> Printf.sprintf "%.3f" p.Sweep.p_indexed);
      ("maxRank", Table.Right, fun p -> string_of_int p.Sweep.max_rank) ]
    (sweep_points ())

let section_fig4 () =
  heading "Fig. 4 - savings with the TTL selection algorithm (Eq. 17)"
    "(paper: substantial savings except vs indexAll at very high query rates)";
  print_table
    [ fqry_column;
      ( "vs indexAll", Table.Right,
        fun p -> Printf.sprintf "%.3f" p.Sweep.savings_selection_vs_all );
      ( "vs noIndex", Table.Right,
        fun p -> Printf.sprintf "%.3f" p.Sweep.savings_selection_vs_none );
      ("keyTtl [s]", Table.Right, fun p -> Printf.sprintf "%.0f" p.Sweep.key_ttl);
      ( "TTL index frac (Eq. 15)", Table.Right,
        fun p -> Printf.sprintf "%.3f" p.Sweep.ttl_index_fraction );
      ( "pIndxd (Eq. 14)", Table.Right,
        fun p -> Printf.sprintf "%.3f" p.Sweep.p_indexed_ttl ) ]
    (sweep_points ())

let section_ttl_sensitivity () =
  heading "Section 5.1.1 - sensitivity to keyTtl estimation error"
    "(paper claim: +-50% mis-estimation decreases savings only slightly)";
  let table_at f_qry =
    Printf.printf "\nat fQry = %s:\n" (freq_label f_qry);
    let params = Params.with_query_frequency Params.default f_qry in
    print_table
      [ ( "TTL scale", Table.Right,
          fun (r : Ttl_analysis.row) -> Printf.sprintf "%.2f" r.Ttl_analysis.scale );
        ("keyTtl [s]", Table.Right, fun r -> Printf.sprintf "%.0f" r.Ttl_analysis.key_ttl);
        ( "cost [msg/s]", Table.Right,
          fun r -> Printf.sprintf "%.0f" r.Ttl_analysis.total_cost );
        ( "savings vs indexAll", Table.Right,
          fun r -> Printf.sprintf "%.3f" r.Ttl_analysis.savings_vs_all );
        ( "savings vs noIndex", Table.Right,
          fun r -> Printf.sprintf "%.3f" r.Ttl_analysis.savings_vs_none );
        ( "savings drop", Table.Right,
          fun r -> Printf.sprintf "%+.4f" r.Ttl_analysis.savings_drop_vs_ideal_ttl ) ]
      (Ttl_analysis.run params ~scales:Ttl_analysis.default_scales)
  in
  table_at (1. /. 30.);
  table_at (1. /. 600.)

(* ------------------------------------------------------------------ *)
(* Simulation sections (scaled deployment: the full 20,000-peer news
   system does not fit an interactive bench run, so population and key
   space are scaled by 1/10 with rates preserved; EXPERIMENTS.md tracks
   the scale factors). *)

let sim_scenario =
  {
    Scenario.news_default with
    Scenario.num_peers = 1_000;
    keys = 2_000;
    duration = 1_800.;
    seed = 2004;
  }

let sim_options = System.Options.make ~repl:20 ~stor:100 ()

(* Worker domains for the experiment batches (-j/--jobs).  Results are
   identical for any value; only wall-clock changes. *)
let jobs = ref (Pdht_core.Runner.default_jobs ())

let section_sim_vs_model () =
  heading "E7 - event-driven simulation vs analytical model (scaled 1/10)"
    "(shape check: who wins and by roughly what factor; index-all's offset is\n\
     maintenance: 1 probe per member-second in the sim, Params.env in the model)";
  let frequencies = [ 1. /. 30.; 1. /. 120.; 1. /. 600.; 1. /. 3600. ] in
  print_table
    [ ( "fQry [1/s]", Table.Left,
        fun (r : Experiment.face_off_row) -> freq_label r.Experiment.f_qry );
      ("sim all", Table.Right, fun r -> Printf.sprintf "%.0f" r.Experiment.sim_index_all);
      ("sim none", Table.Right, fun r -> Printf.sprintf "%.0f" r.Experiment.sim_no_index);
      ("sim partial", Table.Right, fun r -> Printf.sprintf "%.0f" r.Experiment.sim_partial);
      ( "model all", Table.Right,
        fun r -> Printf.sprintf "%.0f" r.Experiment.model_index_all );
      ( "model none", Table.Right,
        fun r -> Printf.sprintf "%.0f" r.Experiment.model_no_index );
      ( "model partial", Table.Right,
        fun r -> Printf.sprintf "%.0f" r.Experiment.model_partial );
      ( "sim hit rate", Table.Right,
        fun r -> Printf.sprintf "%.3f" r.Experiment.sim_hit_rate );
      ( "Eq.14 pIndxd", Table.Right,
        fun r -> Printf.sprintf "%.3f" r.Experiment.model_p_indexed_ttl ) ]
    (Experiment.face_off ~jobs:!jobs ~options:sim_options ~scenario:sim_scenario
       ~frequencies ())

(* One sample per 4 buckets keeps the time-series tables readable. *)
let every_240s (samples : System.sample list) =
  List.filter (fun (s : System.sample) -> int_of_float s.System.time mod 240 = 0) samples

let section_sim_adaptivity () =
  heading "E6 - adaptivity to a changing query distribution (Section 5.2 claim)"
    "(the popular half of the key space swaps with the unpopular half mid-run;\n\
     the partial index must dip and then re-learn the new hot set)";
  let scenario =
    {
      sim_scenario with
      Scenario.num_peers = 800;
      keys = 1_600;
      duration = 2_400.;
      shift = Scenario.Swap_halves_at 1_200.;
      seed = 2005;
    }
  in
  let r = Experiment.adaptivity ~jobs:!jobs ~options:sim_options ~scenario () in
  Printf.printf
    "shift at t=%.0fs: hit rate %.3f before -> dip %.3f -> %.3f at end; recovery %s\n\n"
    r.Experiment.shift_time r.Experiment.before_hit_rate r.Experiment.dip_hit_rate
    r.Experiment.after_hit_rate
    (match r.Experiment.recovery_seconds with
    | Some s -> Printf.sprintf "within %.0f s" s
    | None -> "not reached in-run");
  print_table
    [ ( "t [s]", Table.Right,
        fun (s : System.sample) -> Printf.sprintf "%.0f" s.System.time );
      ("hit rate", Table.Right, fun s -> Printf.sprintf "%.3f" s.System.hit_rate);
      ("indexed keys", Table.Right, fun s -> string_of_int s.System.indexed_keys);
      ("msgs in bucket", Table.Right, fun s -> string_of_int s.System.messages) ]
    (every_240s r.Experiment.series)

let section_ablation () =
  heading "E8a - unstructured search mechanism (cSUnstr substrate)"
    "(paper assumes multiple random walks [LvCa02] because flooding is wasteful)";
  let rows =
    Experiment.search_ablation ~jobs:!jobs ~seed:7 ~peers:1_000 ~repl:50 ~trials:200 ()
  in
  let table graph =
    print_table
      [ ( "mechanism", Table.Left,
          fun (r : Experiment.search_ablation_row) -> r.Experiment.mechanism );
        ( "mean msgs/search", Table.Right,
          fun r -> Printf.sprintf "%.1f" r.Experiment.mean_messages );
        ( "success rate", Table.Right,
          fun r -> Printf.sprintf "%.3f" r.Experiment.success_rate );
        ( "empirical dup", Table.Right,
          fun r ->
            if Float.is_nan r.Experiment.empirical_dup then "-"
            else Printf.sprintf "%.2f" r.Experiment.empirical_dup ) ]
      (List.filter (fun (r : Experiment.search_ablation_row) -> r.Experiment.graph = graph) rows)
  in
  table "random";
  Printf.printf "(model Eq. 6 for these parameters: %.0f msgs)\n"
    (Pdht_model.Cost.search_unstructured
       { Pdht_model.Params.default with num_peers = 1_000; repl = 50; dup = 1.8 });
  print_endline
    "power-law graph (Barabasi-Albert, 4 links per arriving peer), same placement:";
  table "power-law";
  heading "E8b - structured substrates: Chord / P-Grid / Kademlia / Pastry lookups"
    "(all four track Eq. 7 = 1/2 log2 n up to their branching factors;\n\
     Kademlia spends more messages per hop on its alpha=3 parallel probes,\n\
     Pastry resolves 2 bits per hop with base-4 digits; 0% and 15% churn)";
  print_table
    [ ( "backend", Table.Left,
        fun (_, (r : Experiment.backend_ablation_row)) -> r.Experiment.backend );
      ("churn", Table.Right, fun (offline, _) -> Printf.sprintf "%.0f%%" (100. *. offline));
      ( "mean msgs", Table.Right,
        fun (_, r) -> Printf.sprintf "%.2f" r.Experiment.mean_lookup_messages );
      ( "mean hops", Table.Right,
        fun (_, r) -> Printf.sprintf "%.2f" r.Experiment.mean_hops );
      ( "Eq. 7", Table.Right,
        fun (_, r) -> Printf.sprintf "%.2f" r.Experiment.model_expectation );
      ( "success", Table.Right,
        fun (_, r) -> Printf.sprintf "%.3f" r.Experiment.success_rate ) ]
    (List.concat_map
       (fun offline_fraction ->
         List.map
           (fun r -> (offline_fraction, r))
           (Experiment.backend_ablation ~jobs:!jobs ~seed:8 ~members:1_024 ~trials:400
              ~offline_fraction ()))
       [ 0.; 0.15 ])

let section_ttl_tuning () =
  heading "Extension - self-tuning keyTtl (paper Section 5.1.1 future work)"
    "(the adaptive controller estimates cSUnstr/cSIndx2/cRtn from live traffic)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200; seed = 2006 } in
  print_table
    [ ( "configuration", Table.Left,
        fun (r : Experiment.ttl_tuning_row) -> r.Experiment.label );
      ( "final keyTtl [s]", Table.Right,
        fun r -> Printf.sprintf "%.0f" r.Experiment.key_ttl_final );
      ( "msg/s", Table.Right,
        fun r -> Printf.sprintf "%.1f" r.Experiment.messages_per_second );
      ("hit rate", Table.Right, fun r -> Printf.sprintf "%.3f" r.Experiment.hit_rate) ]
    (Experiment.ttl_tuning ~jobs:!jobs ~options:sim_options ~scenario
       ~fixed_ttls:[ 30.; 120.; 600.; 3_000. ] ())

let section_backends_e2e () =
  heading "E19 - the whole PDHT on every structured substrate"
    "(the paper: 'our proposal is generic enough such that it can be used for\n\
     any of the DHT based systems' — the full selection algorithm end-to-end\n\
     on Chord, P-Grid, Kademlia and Pastry with identical workloads)";
  let scenario = { sim_scenario with Scenario.num_peers = 500; keys = 1_000; seed = 2019 } in
  print_table
    [ ( "backend", Table.Left,
        fun (r : Experiment.backend_system_row) -> r.Experiment.backend_name );
      ("hit rate", Table.Right, fun r -> Printf.sprintf "%.3f" r.Experiment.hit_rate);
      ( "msg/s", Table.Right,
        fun r -> Printf.sprintf "%.1f" r.Experiment.messages_per_second );
      ("answer rate", Table.Right, fun r -> Printf.sprintf "%.3f" r.Experiment.answer_rate);
      ("routing msgs", Table.Right, fun r -> string_of_int r.Experiment.index_messages);
      ( "replica-flood msgs", Table.Right,
        fun r -> string_of_int r.Experiment.replica_flood_messages ) ]
    (Experiment.backend_face_off ~jobs:!jobs ~options:sim_options ~scenario ());
  Printf.printf
    "(backends trade routing hops against replica-group shape: Chord pays in\n\
     routing, P-Grid in subnet floods — nearly identical totals, opposite mix)\n"

let section_churn () =
  heading "E12 - selection algorithm under churn"
    "(the paper's premise: P2P clients are extremely transient [ChRa03];\n\
     partial run at decreasing stationary availability, 10-min mean sessions)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200; seed = 2007 } in
  print_table
    [ ( "availability", Table.Right,
        fun (r : Experiment.churn_row) -> Printf.sprintf "%.2f" r.Experiment.availability );
      ("hit rate", Table.Right, fun r -> Printf.sprintf "%.3f" r.Experiment.hit_rate);
      ("answer rate", Table.Right, fun r -> Printf.sprintf "%.3f" r.Experiment.answer_rate);
      ( "msg/s", Table.Right,
        fun r -> Printf.sprintf "%.1f" r.Experiment.messages_per_second );
      ("indexed keys", Table.Right, fun r -> string_of_int r.Experiment.indexed_keys) ]
    (Experiment.churn_sensitivity ~jobs:!jobs ~options:sim_options ~scenario
       ~availabilities:[ 1.0; 0.9; 0.75; 0.5 ] ())

let section_workloads () =
  heading "E13 - index response to workload shape"
    "(skew is what makes partial indexing pay: flatter query distributions\n\
     index more keys for a lower hit rate)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200; seed = 2008 } in
  print_table
    [ ("workload", Table.Left, fun (r : Experiment.workload_row) -> r.Experiment.workload);
      ("hit rate", Table.Right, fun r -> Printf.sprintf "%.3f" r.Experiment.hit_rate);
      ( "msg/s", Table.Right,
        fun r -> Printf.sprintf "%.1f" r.Experiment.messages_per_second );
      ( "indexed fraction", Table.Right,
        fun r -> Printf.sprintf "%.3f" r.Experiment.indexed_fraction ) ]
    (Experiment.workload_mix ~jobs:!jobs ~options:sim_options ~scenario ())

let section_seeds () =
  heading "Seed replication - statistical confidence of the headline numbers"
    "(the partial strategy re-run over five independent seeds)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200 } in
  let options = sim_options in
  let key_ttl = System.derive_key_ttl scenario options in
  let stats =
    Experiment.replicate_seeds ~jobs:!jobs ~options ~scenario
      ~strategy:(Strategy.Partial_index { key_ttl })
      ~seeds:[ 1; 2; 3; 4; 5 ] ()
  in
  Printf.printf "%d runs: %.1f +- %.1f msg/s, hit rate %.3f +- %.3f\n"
    stats.Experiment.runs stats.Experiment.mean_messages_per_second
    stats.Experiment.sd_messages_per_second stats.Experiment.mean_hit_rate
    stats.Experiment.sd_hit_rate

let section_fullscale () =
  heading "E18 - full-scale spot check: the actual Table-1 deployment"
    "(20,000 peers, 40,000 keys, repl 50, fQry 1/30 — every message simulated;\n\
     120 simulated seconds, so the TTL index is still warming up toward Eq. 14's\n\
     steady state; compare the measured msg/s with Eq. 17's prediction)";
  let scenario =
    {
      Scenario.news_default with
      Scenario.num_peers = 20_000;
      keys = 40_000;
      f_qry = 1. /. 30.;
      duration = 120.;
      seed = 2018;
    }
  in
  let options = System.Options.make ~repl:50 ~stor:100 () in
  let key_ttl = System.derive_key_ttl scenario options in
  let report = System.run scenario (Strategy.Partial_index { key_ttl }) options in
  let params = Params.default in
  let model = (Strategies.partial_selection params ~key_ttl).Strategies.total in
  Printf.printf
    "%d queries in %.0f s over %d DHT members (keyTtl = %.0f s)\n\
     measured: %.0f msg/s, hit rate %.3f (Eq. 14 steady state: %.3f)\n\
     model Eq. 17 at these parameters: %.0f msg/s\n\
     per-query cost p50/p95/p99: %.0f / %.0f / %.0f msgs\n"
    report.System.queries scenario.Scenario.duration report.System.active_members key_ttl
    report.System.messages_per_second report.System.hit_rate
    (Strategies.ttl_state params ~key_ttl).Strategies.p_indexed_ttl model
    report.System.query_cost_p50 report.System.query_cost_p95 report.System.query_cost_p99

let section_bootstrap () =
  heading "E16 - P-Grid self-organizing bootstrap ([Aber01])"
    "(the paper's platform builds its trie by random pairwise exchanges with no\n\
     coordination; mean path length should converge to ~log2 n = 9 for n = 512)";
  let module B = Pdht_dht.Pgrid in
  let rng = Pdht_util.Rng.create ~seed:16 in
  let boot = B.unspecialized ~members:512 in
  let total = ref 0 in
  let rows =
    List.map
      (fun meetings ->
        B.run_exchanges boot rng ~meetings;
        total := !total + meetings;
        let s = B.stats boot in
        let rate = B.lookup_success_rate boot rng ~trials:300 in
        (!total, s, rate))
      [ 256; 256; 512; 1024; 2048; 4096 ]
  in
  print_table
    [ ("meetings", Table.Right, fun (total, _, _) -> string_of_int total);
      ( "mean depth", Table.Right,
        fun (_, (s : B.stats), _) -> Printf.sprintf "%.2f" s.B.mean_path_length );
      ( "depth range", Table.Right,
        fun (_, s, _) -> Printf.sprintf "[%d,%d]" s.B.min_path_length s.B.max_path_length );
      ("distinct paths", Table.Right, fun (_, s, _) -> string_of_int s.B.distinct_paths);
      ("refs/peer", Table.Right, fun (_, s, _) -> Printf.sprintf "%.1f" s.B.mean_refs);
      ("lookup success", Table.Right, fun (_, _, rate) -> Printf.sprintf "%.3f" rate) ]
    rows

let section_membership () =
  heading "E17 - Chord membership dynamics (joins, crashes, stabilization)"
    "(the substrate behind 'peers continuously join and leave': grow a ring\n\
     node by node, crash a quarter of it, and watch stabilization heal it;\n\
     'correct' = lookup answer matches the ideal owner under perfect pointers)";
  let module CD = Pdht_dht.Chord in
  let rng = Pdht_util.Rng.create ~seed:17 in
  let t = CD.empty rng ~capacity:400 in
  let first = CD.bootstrap t in
  let members = ref [ first ] in
  let join_messages = ref 0 in
  let stabilize_messages = ref 0 in
  while CD.node_count t < 256 do
    let alive = List.filter (CD.is_member t) !members in
    let via = List.nth alive (Pdht_util.Rng.int rng (List.length alive)) in
    (match CD.join t ~via with
    | Ok (node, msgs) ->
        members := node :: !members;
        join_messages := !join_messages + msgs
    | Error _ -> ());
    stabilize_messages := !stabilize_messages + CD.stabilize t rng
  done;
  for _ = 1 to 15 do
    stabilize_messages := !stabilize_messages + CD.stabilize t rng
  done;
  let correct trials =
    let alive = List.filter (CD.is_member t) !members in
    let ok = ref 0 in
    for _ = 1 to trials do
      let key = Pdht_util.Bitkey.random rng in
      let src = List.nth alive (Pdht_util.Rng.int rng (List.length alive)) in
      let o = CD.route t ~source:src ~key in
      if o.CD.responsible = CD.ideal_responsible t key then incr ok
    done;
    float_of_int !ok /. float_of_int trials
  in
  Printf.printf
    "grown to %d nodes: ring consistent = %b, lookup correctness %.3f\n\
     (join cost %.1f msg/join, stabilization %.1f msg/node/round)\n"
    (CD.node_count t) (CD.ring_consistent t) (correct 300)
    (float_of_int !join_messages /. 255.)
    (float_of_int !stabilize_messages /. (255. +. 15.) /. 256.);
  let alive = List.filter (CD.is_member t) !members in
  List.iteri (fun i m -> if i mod 4 = 0 then CD.crash t ~node:m) alive;
  Printf.printf "crashed 25%% (-> %d nodes): consistent = %b\n" (CD.node_count t)
    (CD.ring_consistent t);
  let rounds = ref 0 in
  while (not (CD.ring_consistent t)) && !rounds < 60 do
    incr rounds;
    ignore (CD.stabilize t rng)
  done;
  Printf.printf
    "stabilization healed the ring in %d rounds; lookup correctness %.3f\n" !rounds
    (correct 300)

let section_diurnal () =
  heading "E15 - adaptation to changing query frequency (busy/calm day)"
    "(paper Section 4: per-peer rates swing between 1/30 and much calmer;\n\
     with TTL eviction the index must breathe with the load — the time-domain\n\
     analogue of Fig. 3's frequency axis)";
  let scenario =
    {
      sim_scenario with
      Scenario.num_peers = 600;
      keys = 1_200;
      duration = 4_800.;
      seed = 2010;
    }
  in
  let r =
    Experiment.diurnal ~jobs:!jobs ~options:sim_options ~scenario ~calm_f_qry:(1. /. 600.)
      ~period:1_600. ()
  in
  Printf.printf
    "busy phases: %.0f keys indexed on average (hit rate %.3f)\n\
     calm phases: %.0f keys indexed on average (hit rate %.3f)\n\n"
    r.Experiment.busy_indexed_mean r.Experiment.busy_hit_rate
    r.Experiment.calm_indexed_mean r.Experiment.calm_hit_rate;
  print_table
    [ ( "t [s]", Table.Right,
        fun (s : System.sample) -> Printf.sprintf "%.0f" s.System.time );
      ( "phase", Table.Left,
        fun s ->
          if Float.rem s.System.time 1_600. /. 1_600. < 0.5 then "busy" else "calm" );
      ("indexed", Table.Right, fun s -> string_of_int s.System.indexed_keys);
      ("hit rate", Table.Right, fun s -> Printf.sprintf "%.3f" s.System.hit_rate) ]
    (every_240s r.Experiment.series)

let section_arity () =
  heading "Extension - k-ary key space (paper Section 3.2, footnote 3)"
    "(generalized Eq. 7/8: wider digits shorten lookups but grow the routing\n\
     tables the maintenance traffic must probe; arity 2 is the paper's model)";
  let module K = Pdht_model.Kary in
  print_table
    [ ("arity", Table.Right, fun (p : K.point) -> string_of_int p.K.arity);
      ("cSIndx [msg]", Table.Right, fun p -> Printf.sprintf "%.2f" p.K.c_s_indx);
      ("table entries", Table.Right, fun p -> Printf.sprintf "%.1f" p.K.table_entries);
      ("cRtn [msg/key/s]", Table.Right, fun p -> Printf.sprintf "%.3f" p.K.c_rtn);
      ( "indexAll total [msg/s]", Table.Right,
        fun p -> Printf.sprintf "%.0f" p.K.index_all_total ) ]
    (K.sweep Params.default ~arities:[ 2; 4; 8; 16; 32 ])

let section_replication_planning () =
  heading "Extension - replication planning ([VaCh02], assumed by the paper)"
    "(pick the replication factor: availability floor from churn, then the\n\
     cost-minimising factor above it; Table-1 scenario, peers 50% available)";
  let module Planner = Pdht_model.Replication_planner in
  let repls = [ 7; 15; 25; 50; 100; 200 ] in
  print_table
    [ ("repl", Table.Right, fun (repl, _) -> string_of_int repl);
      ( "item availability", Table.Right,
        fun (repl, _) ->
          Printf.sprintf "%.4f" (Planner.item_availability ~peer_availability:0.5 ~repl) );
      ( "cSUnstr [msg]", Table.Right,
        fun (_, (_, c_s_unstr, _)) -> Printf.sprintf "%.0f" c_s_unstr );
      ( "Eq.17 cost [msg/s]", Table.Right,
        fun (_, (_, _, cost)) -> Printf.sprintf "%.0f" cost ) ]
    (List.combine repls (Planner.cost_curve Params.default ~repls));
  let plan =
    Planner.plan Params.default ~peer_availability:0.5 ~target:0.99 ~max_repl:200
  in
  Printf.printf
    "\nplanner: 99%% availability at 50%% peer uptime needs >= %d replicas;\n\
     cheapest factor in [floor, 200] is repl = %d (%.4f availability, %.0f msg/s)\n"
    plan.Planner.floor plan.Planner.repl plan.Planner.achieved_availability
    plan.Planner.partial_cost

(* ------------------------------------------------------------------ *)
(* BENCH_pdht.json plumbing shared by the sections that record results *)

(* One field of a recorded row, declared once: its BENCH_pdht.json key
   and value and, when the field is also a printed column, that
   column.  A row list then yields both the JSON rows and the table. *)
module Field = struct
  type 'row t = { key : string; json : 'row -> Json.t; column : 'row Table.column option }

  let int ?header key get =
    let column =
      Option.map (fun h -> (h, Table.Right, fun r -> string_of_int (get r))) header
    in
    { key; json = (fun r -> Json.Int (get r)); column }

  let float ?header ?(cell = Printf.sprintf "%.3f") key get =
    let column = Option.map (fun h -> (h, Table.Right, fun r -> cell (get r))) header in
    { key; json = (fun r -> Json.Float (get r)); column }

  let string ?header key get =
    let column = Option.map (fun h -> (h, Table.Left, get)) header in
    { key; json = (fun r -> Json.String (get r)); column }

  let json fields rows =
    Json.List
      (List.map (fun r -> Json.Obj (List.map (fun f -> (f.key, f.json r)) fields)) rows)

  let print_table fields rows =
    print_table (List.filter_map (fun f -> f.column) fields) rows
end

let percent x = Printf.sprintf "%.0f%%" (100. *. x)

let bench_json_path = "BENCH_pdht.json"

(* Set [fields] in the top-level object of BENCH_pdht.json: a key
   already present is replaced in place, a new one appended, so every
   section writes through here in any order and reruns never duplicate.
   A missing or unparsable file starts a fresh object. *)
let splice_bench_json fields =
  let existing =
    match In_channel.with_open_bin bench_json_path In_channel.input_all with
    | exception Sys_error _ -> []
    | s -> (
        match Json.of_string s with Ok (Json.Obj fields) -> fields | Ok _ | Error _ -> [])
  in
  let merged =
    List.fold_left
      (fun acc (key, value) ->
        if List.mem_assoc key acc then
          List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) acc
        else acc @ [ (key, value) ])
      existing fields
  in
  Out_channel.with_open_bin bench_json_path (fun oc ->
      output_string oc (Json.to_string (Json.Obj merged));
      output_char oc '\n')

(* The shape E20, E21 and E23 share, and the tracing probe in [perf]
   too: the news scenario at 400 peers and 800 keys, small enough to
   keep each sweep interactive. *)
let net_scenario =
  { sim_scenario with Scenario.num_peers = 400; keys = 800; duration = 600.; seed = 2020 }

let net_partial =
  Strategy.Partial_index { key_ttl = System.derive_key_ttl net_scenario sim_options }

let spliced key =
  Printf.printf "spliced %S into %s\n" key bench_json_path

(* ------------------------------------------------------------------ *)
(* Perf run: the host-dependent probes (wall clocks, allocation, runner
   scaling, tracing overhead), exported as BENCH_pdht.json *)

(* [q]-quantile of a sorted array, interpolating between ranks. *)
let quantile sorted q =
  let pos = q *. float_of_int (Array.length sorted - 1) in
  let i = int_of_float pos in
  let j = min (i + 1) (Array.length sorted - 1) in
  sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

let section_perf () =
  heading "Perf - instrumented partial-index run (writes BENCH_pdht.json)"
    "(wall-clock engine throughput, allocation counters, runner scaling and\n\
     tracing overhead, exported as JSON so runs can be compared across commits)";
  let scenario =
    {
      sim_scenario with
      Scenario.num_peers = 600;
      keys = 1_200;
      duration = 1_200.;
      seed = 2020;
    }
  in
  let options = sim_options in
  let key_ttl = System.derive_key_ttl scenario options in
  (* One discarded warm-up run, then best wall-clock of three measured
     runs.  The warm-up pays the process's one-off costs (page faults
     on fresh heap chunks, the GC growing its heaps to steady state);
     taking the minimum of the repeats filters scheduler noise, which
     on a small shared box swings single measurements by +-20%.  The
     run is deterministic, so every repeat produces the identical
     report — only the wall-clock varies, and the fastest repeat is
     the best estimate of what the code actually costs.  Each repeat
     gets its own observability context so [engine.events_processed]
     counts one run. *)
  let partial = Strategy.Partial_index { key_ttl } in
  let (_ : System.report) =
    System.run ~obs:(Pdht_obs.Context.create ()) scenario partial options
  in
  let measure () =
    let obs = Pdht_obs.Context.create () in
    let gc0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let report = System.run ~obs scenario partial options in
    let wall = Unix.gettimeofday () -. t0 in
    let gc1 = Gc.quick_stat () in
    (wall, gc0, gc1, obs, report)
  in
  let best = ref (measure ()) in
  for _ = 2 to 3 do
    let ((wall, _, _, _, _) as m) = measure () in
    let best_wall, _, _, _, _ = !best in
    if wall < best_wall then best := m
  done;
  let wall, gc0, gc1, obs, report = !best in
  let minor_words_run = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let minor_collections_run = gc1.Gc.minor_collections - gc0.Gc.minor_collections in
  let registry = Pdht_obs.Context.registry obs in
  let engine_events =
    match Pdht_obs.Registry.counter_value_by_name registry "engine.events_processed" with
    | Some n -> n
    | None -> 0
  in
  let events_per_second = if wall > 0. then float_of_int engine_events /. wall else 0. in
  let minor_words_per_event =
    if engine_events > 0 then minor_words_run /. float_of_int engine_events else 0.
  in
  (* Allocation probes for the two hot paths this bench guards: the event
     queue must be allocation-free after warm-up, and a scratch-reusing
     flood must allocate only its result record (a fresh-scratch flood
     pays the visited set and frontier buffers every call). *)
  let minor_words_per_op ~warmup ~iters f =
    for _ = 1 to warmup do
      f ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  let queue_words_per_op =
    let q = Pdht_sim.Event_queue.create () in
    minor_words_per_op ~warmup:10_000 ~iters:100_000 (fun () ->
        Pdht_sim.Event_queue.add q ~time:1.0 0;
        ignore (Pdht_sim.Event_queue.pop_min q))
  in
  let flood_topo =
    Pdht_overlay.Topology.random_regularish (Pdht_util.Rng.create ~seed:7) ~peers:2_000
      ~degree:4
  in
  let flood_online _ = true in
  let flood_holds _ = false in
  let flood_words ?scratch () =
    minor_words_per_op ~warmup:50 ~iters:500 (fun () ->
        ignore
          (Pdht_overlay.Flood.search ?scratch flood_topo ~online:flood_online
             ~holds:flood_holds ~source:0 ~ttl:6))
  in
  let flood_scratch_words = flood_words ~scratch:(Pdht_overlay.Scratch.create ()) () in
  let flood_fresh_words = flood_words () in
  (* Storage probes: the open-addressed table's expiry sweep and the
     put/get cycle must both run without allocating — [expire] used to
     build a list of doomed keys per call, which at simulation scale was
     a steady allocation tax proportional to live entries. *)
  let storage_expire_words =
    let store = Pdht_dht.Storage.create ~capacity:256 () in
    for i = 0 to 199 do
      Pdht_dht.Storage.put store ~key:(Pdht_util.Bitkey.of_int i) ~value:i ~now:0.
        ~ttl:(3_600. +. float_of_int i)
    done;
    minor_words_per_op ~warmup:1_000 ~iters:100_000 (fun () ->
        ignore (Pdht_dht.Storage.expire store ~now:1.0))
  in
  let storage_put_get_words =
    let store = Pdht_dht.Storage.create ~capacity:256 () in
    let i = ref 0 in
    minor_words_per_op ~warmup:1_000 ~iters:100_000 (fun () ->
        let key = Pdht_util.Bitkey.of_int (!i land 127) in
        incr i;
        Pdht_dht.Storage.put store ~key ~value:!i ~now:0. ~ttl:3_600.;
        ignore (Pdht_dht.Storage.get store ~key ~now:0.))
  in
  (* Runner scaling: a sweep-sized seed batch (>= 4x the domain count, so
     work-stealing has something to balance) on one domain and on
     [max !jobs 4] domains.  The outputs must be identical (the section
     fails otherwise); only the wall-clock may differ.  The pool clamps
     its worker count to the physical cores, so on a single-core box both
     batches run inline and the honest speedup is ~1.0 rather than the
     oversubscription slowdown spawning 4 domains there would cost. *)
  let cores = Domain.recommended_domain_count () in
  let par_jobs = max !jobs 4 in
  let batch_specs =
    Pdht_core.Run_spec.over_seeds
      (List.init 16 (fun i -> i + 1))
      (Pdht_core.Run_spec.make ~options net_scenario)
  in
  let timed_batch jobs =
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let results = Pdht_core.Runner.run_all ~jobs batch_specs in
    let wall = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    ( wall,
      g1.Gc.minor_words -. g0.Gc.minor_words,
      Pdht_core.Run_result.reports_exn results )
  in
  let wall_single, minor_single, reports_single = timed_batch 1 in
  let wall_parallel, minor_parallel, reports_parallel = timed_batch par_jobs in
  if reports_single <> reports_parallel then
    failwith "perf: parallel batch diverged from the single-domain batch";
  let speedup = if wall_parallel > 0. then wall_single /. wall_parallel else 0. in
  (* Tracing overhead: every simulation threads span context and guards
     event construction with [Tracer.active]; the contract is that a
     *disabled* tracer (the default for every run without --trace-out)
     costs nothing measurable.  There is no pre-instrumentation binary
     to race against, so the disabled run is timed against itself: each
     of [tracing_pairs] pairs times one run at a time in the order
     A B B A and reads (B1 + B2) / (A1 + A2), so a drift in host speed
     that is linear over the pair lands on both arms alike.  The
     estimate is the median pair ratio minus 1, floored at 0.  On a
     shared 2-vCPU VM single runs wander between ~17 and ~31 ms from one
     run to the next in busy spells, so one pair's ratio spreads +-10%
     and a median of 60 pairs still read 0.0216 in one run of ten; the
     median of 100 read at most 0.0057 in ten.  The enabled walls (full
     sampling and 1-in-16 into a counting sink) are recorded for
     information — they price the tracing you opted into, not a
     regression. *)
  let tracing_cfg =
    {
      Pdht_net.Config.default with
      Pdht_net.Config.latency = Pdht_net.Config.Constant 0.02;
      loss = 0.05;
      rpc_timeout = 0.5;
    }
  in
  let timed_run ?obs () =
    let t0 = Unix.gettimeofday () in
    let (_ : System.report) =
      System.run ?obs net_scenario net_partial { options with System.net = Some tracing_cfg }
    in
    Unix.gettimeofday () -. t0
  in
  let traced_events = ref 0 in
  let timed_traced ~sample =
    traced_events := 0;
    let tracer = Pdht_obs.Tracer.create ~enabled:true () in
    Pdht_obs.Tracer.set_sampling tracer sample;
    Pdht_obs.Tracer.add_sink tracer
      (Pdht_obs.Sink.callback (fun _ -> incr traced_events));
    let wall = timed_run ~obs:(Pdht_obs.Context.create ~tracer ()) () in
    (wall, !traced_events)
  in
  let tracing_pairs = 100 in
  ignore (timed_run ());
  (* warm-up *)
  let walls_a = Array.make tracing_pairs 0. in
  let ratios =
    Array.init tracing_pairs (fun i ->
        let a1 = timed_run () in
        let b1 = timed_run () in
        let b2 = timed_run () in
        let a2 = timed_run () in
        walls_a.(i) <- (a1 +. a2) /. 2.;
        (b1 +. b2) /. (a1 +. a2))
  in
  Array.sort Float.compare ratios;
  Array.sort Float.compare walls_a;
  let ratio_median = quantile ratios 0.5 in
  let disabled_overhead_frac = Float.max 0. (ratio_median -. 1.) in
  let tracing_within_2pct = disabled_overhead_frac <= 0.02 in
  if not tracing_within_2pct then
    Printf.printf "WARNING: disabled-tracer paired re-measure drifted %.1f%% (median)\n"
      (100. *. disabled_overhead_frac);
  let wall_traced_full, events_traced_full = timed_traced ~sample:1 in
  let wall_traced_sampled, events_traced_sampled = timed_traced ~sample:16 in
  let tracing_json =
    Json.Obj
      [
        ("wall_disabled_s", Json.Float (quantile walls_a 0.5));
        ("pairs", Json.Int tracing_pairs);
        ("ratio_q1", Json.Float (quantile ratios 0.25));
        ("ratio_median", Json.Float ratio_median);
        ("ratio_q3", Json.Float (quantile ratios 0.75));
        ("disabled_overhead_frac", Json.Float disabled_overhead_frac);
        ("tracing_disabled_within_2pct", Json.Bool tracing_within_2pct);
        ("wall_traced_full_s", Json.Float wall_traced_full);
        ("events_traced_full", Json.Int events_traced_full);
        ("wall_traced_1in16_s", Json.Float wall_traced_sampled);
        ("events_traced_1in16", Json.Int events_traced_sampled);
      ]
  in
  let run_name = scenario.Scenario.name ^ "/partial" in
  splice_bench_json
    [
      ("run", Json.String run_name);
      ("seed", Json.Int scenario.Scenario.seed);
      ("sim_duration_s", Json.Float scenario.Scenario.duration);
      ("wall_time_s", Json.Float wall);
      ("engine_events", Json.Int engine_events);
      ("sim_events_per_second", Json.Float events_per_second);
      ("queries", Json.Int report.System.queries);
      ("total_messages", Json.Int report.System.total_messages);
      ("messages_per_second", Json.Float report.System.messages_per_second);
      ("hit_rate", Json.Float report.System.hit_rate);
      ("query_cost_p50", Json.Float report.System.query_cost_p50);
      ("query_cost_p95", Json.Float report.System.query_cost_p95);
      ("query_cost_p99", Json.Float report.System.query_cost_p99);
      ( "gc",
        Json.Obj
          [
            ("minor_words_run", Json.Float minor_words_run);
            ("minor_collections_run", Json.Int minor_collections_run);
            ("minor_words_per_event", Json.Float minor_words_per_event);
          ] );
      ( "alloc",
        Json.Obj
          [
            ("event_queue_add_pop_minor_words_per_op", Json.Float queue_words_per_op);
            ("flood_scratch_minor_words_per_search", Json.Float flood_scratch_words);
            ("flood_fresh_minor_words_per_search", Json.Float flood_fresh_words);
            ("storage_expire_minor_words_per_op", Json.Float storage_expire_words);
            ("storage_put_get_minor_words_per_op", Json.Float storage_put_get_words);
            ("storage_expire_alloc_free", Json.Bool (storage_expire_words = 0.));
          ] );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, s) -> (name, Pdht_obs.Histogram.summary_to_json s))
             report.System.histograms) );
      ( "parallel",
        Json.Obj
          [
            ("cores", Json.Int cores);
            ("batch_specs", Json.Int (List.length batch_specs));
            ("jobs_single", Json.Int 1);
            ("wall_single_s", Json.Float wall_single);
            ("minor_words_single", Json.Float minor_single);
            ("jobs_parallel", Json.Int par_jobs);
            ("jobs_effective", Json.Int (min par_jobs cores));
            ("wall_parallel_s", Json.Float wall_parallel);
            ("minor_words_parallel", Json.Float minor_parallel);
            ("speedup", Json.Float speedup);
          ] );
      ("tracing", tracing_json);
    ];
  Printf.printf
    "%s: %d engine events in %.2f s wall (%.0f events/s), %.1f minor words/event\n\
     alloc: queue add+pop %.2f w/op, flood %.0f w/search with scratch vs %.0f fresh, \
     storage expire %.2f w/op (alloc-free: %b), put+get %.2f w/op\n\
     runner: %d-spec batch %.2f s on 1 domain vs %.2f s at -j %d (%.2fx on %d core(s), \
     identical output)\n\
     tracing: disabled %.3f s a run; %d ABBA pairs, B/A median %.4f (IQR %.4f-%.4f), \
     overhead %.2f%% (within 2%%: %b); enabled %.2f s for %d events (1/1), %.2f s for %d \
     events (1/16)\n\
     wrote %s\n"
    run_name engine_events wall events_per_second minor_words_per_event queue_words_per_op
    flood_scratch_words flood_fresh_words storage_expire_words
    (storage_expire_words = 0.) storage_put_get_words (List.length batch_specs)
    wall_single wall_parallel par_jobs speedup cores (quantile walls_a 0.5) tracing_pairs
    ratio_median (quantile ratios 0.25) (quantile ratios 0.75)
    (100. *. disabled_overhead_frac)
    tracing_within_2pct wall_traced_full events_traced_full wall_traced_sampled
    events_traced_sampled bench_json_path

(* ------------------------------------------------------------------ *)
(* E20, E21, E23: the selection algorithm under message loss, crashes
   and rival selection policies.  Each section first checks its
   contract (the zero value of its axis reproduces the plain report, or
   the section fails), then prints its rows and splices its block into
   BENCH_pdht.json.  The rows are deterministic; ci.sh pins them as a
   golden at two --jobs values. *)

let section_net () =
  heading "E20 - the selection algorithm under message loss"
    "(contract first: a zero-cost net - zero latency, zero loss - must reproduce\n\
     the no-net report field for field once its own net.* additions are set\n\
     aside; then a 0 -> 20% loss sweep: bounded retries, broadcast fallback)";
  let run_with net = System.run net_scenario net_partial { sim_options with System.net } in
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
  in
  if strip_net (run_with (Some Pdht_net.Config.zero_cost)) <> run_with None then
    failwith "net: zero-cost network model diverged from the no-net report";
  let loss_sweep =
    List.map
      (fun loss ->
        let cfg =
          { Pdht_net.Config.default with Pdht_net.Config.loss;
            latency = Pdht_net.Config.Constant 0.02; rpc_timeout = 0.5 }
        in
        (loss, run_with (Some cfg)))
      [ 0.0; 0.05; 0.1; 0.2 ]
  in
  let net_of (r : System.report) =
    match r.System.net with
    | Some n -> n
    | None -> failwith "net: net-enabled report lacks its net summary"
  in
  let fields =
    let report get (_, (r : System.report)) = get r in
    let net get (_, r) = get (net_of r) in
    [ Field.float ~header:"loss" ~cell:percent "loss" fst;
      Field.int "queries" (report (fun r -> r.System.queries));
      Field.int "answered" (report (fun r -> r.System.answered));
      Field.float ~header:"answer rate" "answer_rate"
        (report (fun r ->
             float_of_int r.System.answered /. float_of_int (max 1 r.System.queries)));
      Field.float ~header:"hit rate" "hit_rate" (report (fun r -> r.System.hit_rate));
      Field.float "messages_per_second" (report (fun r -> r.System.messages_per_second));
      Field.int ~header:"sent" "messages_sent" (net (fun n -> n.System.messages_sent));
      Field.int ~header:"dropped" "messages_dropped"
        (net (fun n -> n.System.messages_dropped));
      Field.int ~header:"retried" "messages_retried"
        (net (fun n -> n.System.messages_retried));
      Field.int ~header:"timed out" "messages_timed_out"
        (net (fun n -> n.System.messages_timed_out));
      Field.float ~header:"lat p50 [s]" "latency_p50" (net (fun n -> n.System.latency_p50));
      Field.float "latency_p95" (net (fun n -> n.System.latency_p95));
      Field.float ~header:"lat p99 [s]" "latency_p99"
        (net (fun n -> n.System.latency_p99)) ]
  in
  Printf.printf "network model (constant 20 ms/hop, 0.5 s timeout, %d retries):\n"
    Pdht_net.Config.default.Pdht_net.Config.rpc_retries;
  Field.print_table fields loss_sweep;
  splice_bench_json [ ("net", Json.Obj [ ("loss_sweep", Field.json fields loss_sweep) ]) ];
  spliced "net"

let section_fault () =
  heading "E21 - mass-crash recovery"
    "(contract first: an empty fault plan must reproduce the no-fault report\n\
     field for field once its own fault summary is set aside; then a 0 -> 50%\n\
     crash sweep at mid-run with anti-entropy repair: dip, recovery, overhead)";
  let run_with_fault plan =
    (* 10 s sample buckets: the dip lives in the first seconds after the
       crash (organic re-insertion repairs popular keys query-by-query),
       so the default 60 s buckets would average it away. *)
    System.run net_scenario net_partial
      { sim_options with System.sample_every = 10.; fault = plan }
  in
  if
    { (run_with_fault (Some Pdht_fault.Plan.default)) with System.fault = None }
    <> run_with_fault None
  then failwith "fault: empty fault plan diverged from the no-fault report";
  let crash_sweep =
    List.map
      (fun fraction ->
        let plan =
          {
            Pdht_fault.Plan.default with
            Pdht_fault.Plan.events =
              [ Pdht_fault.Plan.Crash { peer_fraction = fraction; at = 300. } ];
            repair = Some { Pdht_fault.Plan.every = 30.; min_fraction = 0.5 };
          }
        in
        (fraction, run_with_fault (Some plan)))
      [ 0.0; 0.1; 0.3; 0.5 ]
  in
  let fault_of (r : System.report) =
    match r.System.fault with
    | Some f -> f
    | None -> failwith "fault: fault-enabled report lacks its fault summary"
  in
  let e21 = fault_of (List.assoc 0.3 crash_sweep) in
  let e21_recovered =
    match e21.System.time_to_recover with Some _ -> true | None -> false
  in
  let recover_json = function Some t -> Json.Float t | None -> Json.Null in
  let fields =
    let fault get (_, r) = get (fault_of r) in
    [ Field.float ~header:"crash" ~cell:percent "crash_fraction" fst;
      Field.int ~header:"crashes" "crashes" (fault (fun f -> f.System.crashes));
      Field.int ~header:"entries lost" "entries_lost"
        (fault (fun f -> f.System.entries_lost));
      Field.int ~header:"content lost" "content_lost"
        (fault (fun f -> f.System.content_lost));
      Field.float ~header:"pre" "pre_fault_rate" (fault (fun f -> f.System.pre_fault_rate));
      Field.float ~header:"dip" "dip_rate" (fault (fun f -> f.System.dip_rate));
      Field.float "dip_depth"
        (fault (fun f -> f.System.pre_fault_rate -. f.System.dip_rate));
      {
        Field.key = "time_to_recover_s";
        json = fault (fun f -> recover_json f.System.time_to_recover);
        column =
          Some
            ( "recover [s]", Table.Right,
              fault (fun f ->
                  match f.System.time_to_recover with
                  | Some t -> Printf.sprintf "%.0f" t
                  | None -> "never") );
      };
      Field.int "repair_passes" (fault (fun f -> f.System.repair_passes));
      Field.int ~header:"repair msgs" "repair_messages"
        (fault (fun f -> f.System.repair_messages));
      Field.float ~header:"overhead"
        ~cell:(fun x -> Printf.sprintf "%.1f%%" (100. *. x))
        "repair_overhead"
        (fun (_, (r : System.report)) ->
          float_of_int (fault_of r).System.repair_messages
          /. float_of_int (max 1 r.System.total_messages));
      Field.int "repaired_items" (fault (fun f -> f.System.repaired_items));
      Field.int "repaired_entries" (fault (fun f -> f.System.repaired_entries)) ]
  in
  Printf.printf
    "fault injection (crash at t=300, anti-entropy every 30 s): E21-small recovered: %b\n"
    e21_recovered;
  Field.print_table fields crash_sweep;
  splice_bench_json
    [
      ( "fault",
        Json.Obj
          [
            ("crash_sweep", Field.json fields crash_sweep);
            ( "e21_small",
              Json.Obj
                [
                  ("crash_fraction", Json.Float 0.3);
                  ("pre_fault_rate", Json.Float e21.System.pre_fault_rate);
                  ("dip_rate", Json.Float e21.System.dip_rate);
                  ("time_to_recover_s", recover_json e21.System.time_to_recover);
                  ("fault_recovered", Json.Bool e21_recovered);
                ] );
          ] );
    ];
  spliced "fault"

let section_policy () =
  heading "E23 - selection-policy race across a flash crowd"
    "(contract first: an explicit [ttl] spec must build the very report the\n\
     default options do, with no selector installed; then ttl, ttl:adaptive\n\
     and cost race across a popularity flip, scored on post-shift msg/s)";
  let tiny = { net_scenario with Scenario.duration = 300. } in
  let r_default = System.run tiny net_partial sim_options in
  if
    System.run tiny net_partial
      { sim_options with System.selection_policy = Psel.Ttl Psel.Model_derived }
    <> r_default
  then failwith "policy: explicit default policy spec diverged from the default options";
  if r_default.System.policy <> None then
    failwith "policy: default-policy run unexpectedly installed a selector";
  let race_scenario =
    (* Updates every 10 minutes make the *model's* TTL conservative
       (Eq. 2 charges staleness), so the statically-derived lease is
       short; the measurement-driven policies re-learn the simulator's
       actual cost structure and recover the headroom. *)
    {
      net_scenario with
      Scenario.name = "flash-race";
      duration = 900.;
      shift = Scenario.Swap_halves_at 450.;
      update_mean_lifetime = Some 300.;
      seed = 2023;
    }
  in
  let rows =
    Experiment.policy_race ~jobs:!jobs ~options:sim_options ~scenario:race_scenario
      ~policies:[ Psel.Ttl Psel.Model_derived; Psel.Ttl Psel.Adaptive; Psel.Cost_optimal ]
      ()
  in
  (* The post-shift message rate is the empirical Eq.-17 analogue; the
     golden pins whether an adaptive policy beats the static TTL there. *)
  let adaptive_beats_static =
    match rows with
    | static :: adaptive ->
        List.exists
          (fun (r : Experiment.policy_race_row) ->
            r.Experiment.post_shift_cost < static.Experiment.post_shift_cost)
          adaptive
    | [] -> assert false
  in
  let fields =
    let race get (r : Experiment.policy_race_row) = get r in
    let count = Printf.sprintf "%.0f" in
    [ Field.string ~header:"policy" "policy" (race (fun r -> r.Experiment.policy_label));
      Field.float ~header:"hit rate" "hit_rate" (race (fun r -> r.Experiment.hit_rate));
      Field.float ~header:"msg/s" ~cell:count "messages_per_second"
        (race (fun r -> r.Experiment.messages_per_second));
      Field.float ~header:"post-shift msg/s" ~cell:count "post_shift_cost"
        (race (fun r -> r.Experiment.post_shift_cost));
      Field.float ~header:"post-shift hits" "post_shift_hit_rate"
        (race (fun r -> r.Experiment.post_shift_hit_rate));
      Field.int ~header:"rejected" "rejected_inserts"
        (race (fun r -> r.Experiment.rejected_inserts));
      Field.int ~header:"indexed" "indexed_keys_final"
        (race (fun r -> r.Experiment.indexed_keys_final)) ]
  in
  Printf.printf
    "selection policies (flash crowd, halves swap at t=450): adaptive beats static TTL \
     post-shift: %b\n"
    adaptive_beats_static;
  Field.print_table fields rows;
  splice_bench_json
    [
      ( "policy",
        Json.Obj
          [
            ("policy_adaptive_beats_static", Json.Bool adaptive_beats_static);
            ("shift_time_s", Json.Float 450.);
            ("policy_race", Field.json fields rows);
          ] );
    ];
  spliced "policy"

(* ------------------------------------------------------------------ *)
(* Decade scale sweep: 10^3 .. 10^6 peers.  Per decade, one news-scaled
   partial-index simulation (its [Pdht.create] timed as setup_s, the
   run as wall_s, Gc-measured) plus one raw-DHT lookup arm at the full
   population.  Splices a "scale" object into
   BENCH_pdht.json so ci.sh can gate on it. *)

let scale_max = ref 1_000_000

let peak_rss_mb () =
  (* VmHWM is the process high-water RSS; 0. when /proc is unreadable. *)
  match open_in "/proc/self/status" with
  | exception _ -> 0.
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else find ()
      in
      let mb = find () in
      close_in ic;
      mb

type decade = {
  peers : int;
  repl : int;
  active_members : int;
  bytes_per_peer : float;
  events_per_second : float;
  sim_mean_hops : float;
  dht_mean_hops : float;
  dht_lookup_success : float;
  dht_bytes_per_peer : float;
  dht_build_s : float;
  setup_s : float;
  wall_s : float;
}

let decade_fields =
  [ Field.int "peers" (fun d -> d.peers);
    Field.int "repl" (fun d -> d.repl);
    Field.int "active_members" (fun d -> d.active_members);
    Field.float "bytes_per_peer" (fun d -> d.bytes_per_peer);
    Field.float "events_per_second" (fun d -> d.events_per_second);
    Field.float "sim_mean_hops" (fun d -> d.sim_mean_hops);
    Field.float "dht_mean_hops" (fun d -> d.dht_mean_hops);
    Field.float "dht_lookup_success" (fun d -> d.dht_lookup_success);
    Field.float "dht_bytes_per_peer" (fun d -> d.dht_bytes_per_peer);
    Field.float "dht_build_s" (fun d -> d.dht_build_s);
    Field.float "setup_s" (fun d -> d.setup_s);
    Field.float "wall_s" (fun d -> d.wall_s) ]

let section_scale () =
  heading
    (Printf.sprintf "Scale sweep: 10^3 -> %d peers (decades)" !scale_max)
    "(per decade: a news-scaled partial-index run -- Gc-measured bytes/peer,\n\
     events/s, mean index-lookup hops -- plus a raw P-Grid lookup arm at the\n\
     full population, with its own bytes/peer and build time; bytes/peer must\n\
     stay flat while hops track log N)";
  let decades =
    List.filter (fun n -> n <= !scale_max) [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  if decades = [] then (
    Printf.printf "scale: --scale-max %d leaves no decade to run\n" !scale_max;
    exit 2);
  let log2 n = log (float_of_int n) /. log 2. in
  let rows =
    List.map
      (fun n ->
        (* Replication grows with the population (paper deployments keep
           repl a population fraction) so per-peer load stays constant;
           the duration shrinks with n to hold the event count at
           roughly 60k queries per decade -- the sweep measures memory
           and per-event cost, not ever-longer simulations. *)
        let repl = max 20 (n / 500) in
        let scenario =
          {
            (Scenario.with_scale Scenario.news_default ~peers:n ~keys:2_000) with
            Scenario.name = Printf.sprintf "scale-%d" n;
            duration = 60_000. /. (float_of_int n /. 30.);
            seed = 2004;
          }
        in
        let options = System.Options.make ~repl ~stor:100 () in
        let key_ttl = System.derive_key_ttl scenario options in
        let strategy = Strategy.Partial_index { key_ttl } in
        let active = System.plan_active_members scenario options strategy in
        (* bytes/peer: compacted live-heap growth across building the
           full system state, divided by the population. *)
        Gc.compact ();
        let live0 = (Gc.stat ()).Gc.live_words in
        let rng = Pdht_util.Rng.create ~seed:scenario.Scenario.seed in
        let config =
          Pdht_core.Config.make ~num_peers:n ~active_members:active ~keys:2_000
            ~repl ~stor:100 ~strategy ()
        in
        let t0 = Unix.gettimeofday () in
        let state = Pdht_core.Pdht.create rng config in
        let setup = Unix.gettimeofday () -. t0 in
        Gc.compact ();
        let live1 = (Gc.stat ()).Gc.live_words in
        let bytes_per_peer =
          8. *. float_of_int (live1 - live0) /. float_of_int n
        in
        ignore (Sys.opaque_identity state);
        (* Throughput: the timed simulation at this decade. *)
        let obs = Pdht_obs.Context.create () in
        let t0 = Unix.gettimeofday () in
        let report = System.run ~obs scenario strategy options in
        let wall = Unix.gettimeofday () -. t0 in
        let engine_events =
          match
            Pdht_obs.Registry.counter_value_by_name
              (Pdht_obs.Context.registry obs)
              "engine.events_processed"
          with
          | Some c -> c
          | None -> 0
        in
        let events_per_second =
          if wall > 0. then float_of_int engine_events /. wall else 0.
        in
        let sim_hops =
          match List.assoc_opt "dht.hops.p-grid" report.System.histograms with
          | Some s -> s.Pdht_obs.Histogram.mean
          | None -> 0.
        in
        (* Raw-DHT arm: the structured backend alone at the FULL
           population (the simulation's index spans active_members
           only), so the hops-vs-log-N claim is tested at n itself.
           Its bytes/peer is measured like the system's. *)
        let dht_rng = Pdht_util.Rng.create ~seed:(scenario.Scenario.seed + n) in
        Gc.compact ();
        let live0 = (Gc.stat ()).Gc.live_words in
        let t0 = Unix.gettimeofday () in
        let dht =
          Pdht_dht.Dht.create dht_rng ~backend:Pdht_dht.Dht.Pgrid_backend
            ~members:n ()
        in
        let dht_build = Unix.gettimeofday () -. t0 in
        Gc.compact ();
        let dht_bytes_per_peer =
          8. *. float_of_int ((Gc.stat ()).Gc.live_words - live0) /. float_of_int n
        in
        let online _ = true in
        let trials = 500 in
        let hops_sum = ref 0 and found = ref 0 in
        for _ = 1 to trials do
          let source = Pdht_util.Rng.int dht_rng n in
          let key = Pdht_util.Bitkey.random dht_rng in
          let o = Pdht_dht.Dht.lookup dht dht_rng ~online ~source ~key in
          hops_sum := !hops_sum + o.Pdht_dht.Dht.hops;
          if o.Pdht_dht.Dht.responsible <> None then incr found
        done;
        let dht_hops = float_of_int !hops_sum /. float_of_int trials in
        let dht_success = float_of_int !found /. float_of_int trials in
        Printf.printf
          "  n=%-8d repl=%-4d active=%-6d %8.0f B/peer  %9.0f events/s  \
           sim hops %.2f  dht hops %.2f (log2 n = %.1f, success %.2f)  dht %.0f B/peer \
           built in %.3f s  setup %.3f s  wall %.1f s\n\
           %!"
          n repl active bytes_per_peer events_per_second sim_hops dht_hops
          (log2 n) dht_success dht_bytes_per_peer dht_build setup wall;
        {
          peers = n;
          repl;
          active_members = active;
          bytes_per_peer;
          events_per_second;
          sim_mean_hops = sim_hops;
          dht_mean_hops = dht_hops;
          dht_lookup_success = dht_success;
          dht_bytes_per_peer;
          dht_build_s = dht_build;
          setup_s = setup;
          wall_s = wall;
        })
      decades
  in
  let bytes = List.map (fun d -> d.bytes_per_peer) rows in
  let bytes_per_peer_flat =
    (* Flat-representation invariant: bytes/peer must not creep up
       decade over decade (10% slack covers hash-table rounding). *)
    let rec ok = function
      | b1 :: (b2 :: _ as rest) -> b2 <= 1.10 *. b1 && ok rest
      | _ -> true
    in
    ok bytes
  in
  let ratios = List.map (fun d -> d.dht_mean_hops /. log2 d.peers) rows in
  let hops_track_log_n =
    match ratios with
    | [] -> false
    | r0 :: _ -> List.for_all (fun r -> r >= 0.4 *. r0 && r <= 2.0 *. r0) ratios
  in
  let rss = peak_rss_mb () in
  splice_bench_json
    [
      ( "scale",
        Json.Obj
          [
            ("decades", Field.json decade_fields rows);
            ("bytes_per_peer_flat", Json.Bool bytes_per_peer_flat);
            ("hops_track_log_n", Json.Bool hops_track_log_n);
            ("peak_rss_mb", Json.Float rss);
          ] );
    ];
  Printf.printf
    "bytes/peer flat across decades: %b; dht hops track log N: %b; peak RSS %.0f \
     MB\nspliced \"scale\" into %s\n"
    bytes_per_peer_flat hops_track_log_n rss bench_json_path

(* ------------------------------------------------------------------ *)
(* E26: churn-hardened routing.  Living vs frozen k-buckets under
   heavy-tailed session churn, one decade of mean session length per
   row triple; splices a "churn" object into BENCH_pdht.json so ci.sh
   can gate on it (live must beat frozen on stale-route rate at equal
   maintenance spend, and stay near the no-churn success ceiling). *)

let section_churn_routing () =
  heading "E26 - churn-hardened routing: live vs frozen k-buckets"
    "(per decade of mean session length: a no-churn baseline, living\n\
     k-buckets with replacement caches + liveness probing + bucket\n\
     refresh, and frozen tables on the live arm's measured maintenance\n\
     budget; cRtn is measured, not assumed)";
  let rows =
    Experiment.churn_routing ~jobs:!jobs ~seed:2026 ~members:600 ~duration:600.
      ~mean_sessions:[ 60.; 600.; 6_000. ] ()
  in
  let fields =
    let arm get (r : Experiment.churn_routing_row) = get r in
    [ Field.float ~header:"mean session" ~cell:(Printf.sprintf "%.0fs") "mean_session"
        (arm (fun r -> r.Experiment.mean_session));
      Field.string ~header:"arm" "arm" (arm (fun r -> r.Experiment.arm));
      Field.int ~header:"lookups" "attempted" (arm (fun r -> r.Experiment.attempted));
      Field.float ~header:"success" "success_rate"
        (arm (fun r -> r.Experiment.success_rate));
      Field.float ~header:"hops" ~cell:(Printf.sprintf "%.2f") "mean_hops"
        (arm (fun r -> r.Experiment.mean_hops));
      Field.float ~header:"stale-route" ~cell:(Printf.sprintf "%.4f") "stale_route_rate"
        (arm (fun r -> r.Experiment.stale_route_rate));
      Field.int ~header:"maint msgs" "maintenance_messages"
        (arm (fun r -> r.Experiment.maintenance_messages));
      Field.float ~header:"cRtn msg/peer/s" "crtn" (arm (fun r -> r.Experiment.crtn)) ]
  in
  Field.print_table fields rows;
  (* Per-decade contracts, spliced as booleans for the CI gate: the
     living tables must win the stale-route race at equal maintenance
     spend while staying within 5% of the no-churn success ceiling. *)
  let rec triples = function
    | b :: l :: f :: rest -> (b, l, f) :: triples rest
    | _ -> []
  in
  let ts = triples rows in
  let all f = ts <> [] && List.for_all f ts in
  let stale_ok =
    all (fun ((_, l, f) : Experiment.churn_routing_row * _ * _) ->
        l.Experiment.stale_route_rate < f.Experiment.stale_route_rate)
  in
  let success_ok =
    all (fun (b, l, _) ->
        l.Experiment.success_rate >= 0.95 *. b.Experiment.success_rate)
  in
  let budget_ok =
    all (fun (_, l, f) ->
        l.Experiment.maintenance_messages = f.Experiment.maintenance_messages)
  in
  splice_bench_json
    [
      ( "churn",
        Json.Obj
          [
            ("rows", Field.json fields rows);
            ("live_beats_frozen_stale_route", Json.Bool stale_ok);
            ("live_within_success_floor", Json.Bool success_ok);
            ("equal_maintenance_budget", Json.Bool budget_ok);
          ] );
    ];
  spliced "churn"

let sections =
  [
    ("table1", "Table 1: parameters and derived model quantities.", section_table1);
    ("fig1", "Fig. 1: total msg/s per strategy vs query frequency.", section_fig1);
    ("fig2", "Fig. 2: savings of ideal partial indexing.", section_fig2);
    ("fig3", "Fig. 3: index size and pIndxd vs query frequency.", section_fig3);
    ("fig4", "Fig. 4: savings of the TTL selection algorithm.", section_fig4);
    ("ttl_sensitivity", "Section 5.1.1: keyTtl estimation-error sensitivity.",
     section_ttl_sensitivity);
    ("sim_vs_model", "E7: event-driven simulation vs Eq. 11/12/17.", section_sim_vs_model);
    ("fullscale", "E18: the full Table-1 deployment, every message simulated.",
     section_fullscale);
    ("sim_adaptivity", "E6: hit-rate recovery across a popularity shift.",
     section_sim_adaptivity);
    ("ablation", "E8: flooding vs random walks; the four DHT backends.", section_ablation);
    ("ttl_tuning", "Fixed keyTtl grid vs the adaptive controller.", section_ttl_tuning);
    ("backends_e2e", "E19: the whole PDHT on every structured substrate.",
     section_backends_e2e);
    ("churn", "E12: the selection algorithm under churn.", section_churn);
    ("workloads", "E13: index response to workload shape.", section_workloads);
    ("seeds", "Seed replication of the headline numbers.", section_seeds);
    ("bootstrap", "E16: P-Grid self-organizing bootstrap.", section_bootstrap);
    ("membership", "E17: Chord joins, crashes and stabilization.", section_membership);
    ("diurnal", "E15: the index under a busy/calm query-rate cycle.", section_diurnal);
    ("arity", "k-ary key space (Section 3.2, footnote 3).", section_arity);
    ("replication_planning", "Replication planning for an availability target.",
     section_replication_planning);
    ("net", "E20: zero-cost net contract, then a 0-20% loss sweep; splices into \
             BENCH_pdht.json.", section_net);
    ("fault", "E21: empty-plan contract, then a 0-50% crash sweep; splices into \
               BENCH_pdht.json.", section_fault);
    ("policy", "E23: default-spec contract, then the flash-crowd policy race; splices \
                into BENCH_pdht.json.", section_policy);
    ("perf", "Host-dependent probes: headline wall, gc, alloc, parallel batch, tracing \
              overhead; writes BENCH_pdht.json.", section_perf);
    ("scale", "Decade sweep 10^3..10^6 peers (cap with $(b,--scale-max)); splices \
               into BENCH_pdht.json.", section_scale);
    ("churn_routing", "E26: live vs frozen k-buckets; splices into BENCH_pdht.json.",
     section_churn_routing);
  ]

let run names jobs_flag scale_max_flag =
  if jobs_flag < 1 then `Error (false, "--jobs must be >= 1")
  else if scale_max_flag < 1 then `Error (false, "--scale-max must be >= 1")
  else begin
    jobs := jobs_flag;
    scale_max := scale_max_flag;
    let requested =
      if names = [] then sections
      else List.map (fun name -> List.find (fun (n, _, _) -> n = name) sections) names
    in
    List.iter (fun (_, _, section) -> section ()) requested;
    `Ok ()
  end

let () =
  let names_arg =
    Arg.(value
         & pos_all (enum (List.map (fun (name, _, _) -> (name, name)) sections)) []
         & info [] ~docv:"SECTION"
             ~doc:"Sections to run, in order (default: all); see SECTIONS.")
  in
  let jobs_arg =
    Arg.(value & opt int !jobs
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for each experiment's independent simulations \
                   (default: cores - 1).  Output is byte-identical for every N.")
  in
  let scale_max_arg =
    Arg.(value & opt int !scale_max
         & info [ "scale-max" ] ~docv:"N"
             ~doc:"Largest population the $(b,scale) section runs.")
  in
  let man =
    `S "SECTIONS" :: List.map (fun (name, doc, _) -> `I (name, doc)) sections
  in
  let doc = "regenerate the paper's tables and figures and the extension experiments" in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "main" ~doc ~man)
          Term.(ret (const run $ names_arg $ jobs_arg $ scale_max_arg))))
