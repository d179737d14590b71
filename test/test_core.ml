(* Tests for Pdht_core: strategies, config, the PDHT machine itself,
   the adaptive TTL controller and the system runner. *)

module Rng = Pdht_util.Rng
module Strategy = Pdht_core.Strategy
module Config = Pdht_core.Config
module Pdht = Pdht_core.Pdht
module Adaptive = Pdht_core.Adaptive
module System = Pdht_core.System
module Run_spec = Pdht_core.Run_spec
module Run_result = Pdht_core.Run_result
module Runner = Pdht_core.Runner
module Scenario = Pdht_work.Scenario
module Metrics = Pdht_sim.Metrics

let partial ttl = Strategy.Partial_index { key_ttl = ttl }

let small_config ?(strategy = partial 300.) ?(num_peers = 200) ?(active = 60)
    ?(keys = 300) ?(repl = 10) ?(stor = 60) () =
  Config.make ~num_peers ~active_members:active ~keys ~repl ~stor ~strategy ()

let build ?(seed = 1) ?obs ?strategy ?num_peers ?active ?keys ?repl ?stor () =
  let rng = Rng.create ~seed in
  (rng, Pdht.create ?obs rng (small_config ?strategy ?num_peers ?active ?keys ?repl ?stor ()))

(* ------------------------------------------------------------------ *)
(* Strategy / Config *)

let test_strategy_accessors () =
  Alcotest.(check bool) "partial" true (Strategy.is_partial (partial 10.));
  Alcotest.(check bool) "index_all not partial" false (Strategy.is_partial Strategy.Index_all);
  Alcotest.(check string) "labels" "indexAll" (Strategy.label Strategy.Index_all);
  Alcotest.(check string) "noIndex" "noIndex" (Strategy.label Strategy.No_index);
  Alcotest.(check string) "partial" "partial" (Strategy.label (partial 1.))

let test_config_validation () =
  Alcotest.check_raises "active > peers"
    (Invalid_argument "Config.make: active_members must be in [2, num_peers]") (fun () ->
      ignore
        (Config.make ~num_peers:10 ~active_members:11 ~keys:5 ~repl:2 ~stor:5
           ~strategy:Strategy.No_index ()));
  Alcotest.check_raises "repl > peers"
    (Invalid_argument "Config.make: repl must be in [1, num_peers]") (fun () ->
      ignore
        (Config.make ~num_peers:10 ~active_members:5 ~keys:5 ~repl:20 ~stor:5
           ~strategy:Strategy.No_index ()));
  (* Every peer opens 4 overlay connections, so 4 peers are too few. *)
  Alcotest.check_raises "too few peers for the overlay degree"
    (Invalid_argument "Config.make: need more peers than the overlay degree (4)") (fun () ->
      ignore
        (Config.make ~num_peers:4 ~active_members:2 ~keys:5 ~repl:2 ~stor:5
           ~strategy:Strategy.No_index ()));
  (* 5 peers is the smallest population the overlay can be built on. *)
  ignore
    (Pdht.create (Rng.create ~seed:1)
       (Config.make ~num_peers:5 ~active_members:2 ~keys:5 ~repl:2 ~stor:5
          ~strategy:Strategy.No_index ()))

let test_config_active_members_for () =
  (* Paper sizing: 40000 keys * 50 repl / 100 stor = 20000 peers. *)
  Alcotest.(check int) "paper headline" 20_000
    (Config.active_members_for ~num_peers:20_000 ~repl:50 ~stor:100
       ~expected_index_size:40_000.);
  Alcotest.(check int) "floors at repl" 50
    (Config.active_members_for ~num_peers:20_000 ~repl:50 ~stor:100 ~expected_index_size:1.)

(* ------------------------------------------------------------------ *)
(* Pdht: basic mechanics *)

let test_pdht_no_index_broadcasts () =
  let _, p = build ~strategy:Strategy.No_index () in
  (* Query from a peer that does not hold the key itself: a replica
     would answer locally with zero messages, which is correct but not
     the broadcast path this test exercises.  Replica placement is
     random, so pick the peer relative to the actual placement rather
     than hard-coding one. *)
  let replicas = Pdht.content_replicas p ~key_index:3 in
  let peer =
    let rec free p = if Array.exists (( = ) p) replicas then free (p + 1) else p in
    free 0
  in
  let r = Pdht.query p ~now:1. ~peer ~key_index:3 in
  Alcotest.(check bool) "answered by broadcast" true (r.Pdht.source = Pdht.From_broadcast);
  Alcotest.(check int) "no index traffic" 0 r.Pdht.index_messages;
  Alcotest.(check bool) "broadcast messages charged" true (r.Pdht.broadcast_messages > 0);
  Alcotest.(check int) "metrics agree" r.Pdht.broadcast_messages
    (Metrics.count (Pdht.metrics p) Metrics.Query_unstructured)

let test_pdht_index_all_serves_from_index () =
  let _, p = build ~strategy:Strategy.Index_all () in
  for k = 0 to 49 do
    let r = Pdht.query p ~now:1. ~peer:(k mod 200) ~key_index:k in
    Alcotest.(check bool) "from index" true (r.Pdht.source = Pdht.From_index);
    Alcotest.(check int) "no broadcast" 0 r.Pdht.broadcast_messages
  done

let test_pdht_index_all_preloaded () =
  let _, p = build ~strategy:Strategy.Index_all () in
  Alcotest.(check int) "all keys indexed" 300 (Pdht.indexed_key_count p ~now:0.)

let test_pdht_partial_starts_empty () =
  let _, p = build () in
  Alcotest.(check int) "empty index" 0 (Pdht.indexed_key_count p ~now:0.)

let test_pdht_partial_miss_then_hit () =
  let _, p = build () in
  (* First query: miss -> broadcast -> insert. *)
  let r1 = Pdht.query p ~now:1. ~peer:7 ~key_index:42 in
  Alcotest.(check bool) "first from broadcast" true (r1.Pdht.source = Pdht.From_broadcast);
  Alcotest.(check bool) "insert traffic" true (r1.Pdht.insert_messages > 0);
  Alcotest.(check bool) "now indexed" true (Pdht.index_hit_probe p ~now:2. ~key_index:42);
  (* Second query: index hit, no broadcast. *)
  let r2 = Pdht.query p ~now:3. ~peer:8 ~key_index:42 in
  Alcotest.(check bool) "second from index" true (r2.Pdht.source = Pdht.From_index);
  Alcotest.(check int) "no broadcast" 0 r2.Pdht.broadcast_messages

let test_pdht_partial_key_expires () =
  let _, p = build () in
  ignore (Pdht.query p ~now:1. ~peer:7 ~key_index:9);
  Alcotest.(check bool) "indexed" true (Pdht.index_hit_probe p ~now:100. ~key_index:9);
  (* After keyTtl = 300 s with no queries the key is gone. *)
  Alcotest.(check bool) "expired" false (Pdht.index_hit_probe p ~now:302. ~key_index:9)

let test_pdht_query_refreshes_ttl () =
  let _, p = build () in
  ignore (Pdht.query p ~now:1. ~peer:7 ~key_index:9);
  (* Query again at t=200: expiry moves to 500. *)
  ignore (Pdht.query p ~now:200. ~peer:8 ~key_index:9);
  Alcotest.(check bool) "alive past original expiry" true
    (Pdht.index_hit_probe p ~now:400. ~key_index:9);
  Alcotest.(check bool) "gone after refreshed ttl" false
    (Pdht.index_hit_probe p ~now:501. ~key_index:9)

let test_pdht_offline_peer_cannot_query () =
  let _, p = build () in
  Pdht.set_online p (fun peer -> peer <> 7);
  let r = Pdht.query p ~now:1. ~peer:7 ~key_index:0 in
  Alcotest.(check bool) "not found" true (r.Pdht.source = Pdht.Not_found);
  Alcotest.(check int) "free" 0 (Pdht.total_messages r)

let test_pdht_query_result_totals () =
  let _, p = build () in
  let r = Pdht.query p ~now:1. ~peer:3 ~key_index:5 in
  Alcotest.(check int) "total = sum of parts"
    (r.Pdht.index_messages + r.Pdht.replica_flood_messages + r.Pdht.broadcast_messages
   + r.Pdht.insert_messages)
    (Pdht.total_messages r);
  Alcotest.(check int) "metrics total matches" (Pdht.total_messages r)
    (Metrics.total (Pdht.metrics p))

let test_pdht_set_key_ttl () =
  let _, p = build () in
  Pdht.set_key_ttl p 50.;
  Alcotest.(check (float 1e-9)) "ttl updated" 50. (Pdht.key_ttl p);
  ignore (Pdht.query p ~now:1. ~peer:2 ~key_index:1);
  Alcotest.(check bool) "expires with new ttl" false
    (Pdht.index_hit_probe p ~now:52. ~key_index:1);
  Alcotest.check_raises "rejects non-positive"
    (Invalid_argument "Pdht.set_key_ttl: ttl must be positive") (fun () ->
      Pdht.set_key_ttl p 0.)

let test_pdht_update_key_modes () =
  let rng, p_all = build ~strategy:Strategy.Index_all () in
  let m = Pdht.update_key p_all rng ~now:1. ~key_index:3 in
  Alcotest.(check bool) "indexAll updates cost messages" true (m > 0);
  Alcotest.(check int) "charged to update-gossip" m
    (Metrics.count (Pdht.metrics p_all) Metrics.Update_gossip);
  let rng2, p_partial = build () in
  Alcotest.(check int) "partial mode is reactive: no proactive updates" 0
    (Pdht.update_key p_partial rng2 ~now:1. ~key_index:3);
  let rng3, p_none = build ~strategy:Strategy.No_index () in
  Alcotest.(check int) "noIndex has no index to update" 0
    (Pdht.update_key p_none rng3 ~now:1. ~key_index:3)

let test_pdht_rejoin_sync () =
  (* Index_all: a member rejoining after downtime pulls per subnetwork. *)
  let rng, p = build ~strategy:Strategy.Index_all () in
  let offline = ref [] in
  Pdht.set_online p (fun peer -> not (List.mem peer !offline));
  (* Take a member offline and back online; the pull must cost messages
     and be charged to update-gossip. *)
  offline := [ 5 ];
  offline := [];
  let before = Pdht_sim.Metrics.count (Pdht.metrics p) Pdht_sim.Metrics.Update_gossip in
  let cost = Pdht.rejoin_sync p rng ~now:10. ~peer:5 in
  Alcotest.(check bool) "pull costs messages" true (cost > 0);
  Alcotest.(check int) "charged to update-gossip" (before + cost)
    (Pdht_sim.Metrics.count (Pdht.metrics p) Pdht_sim.Metrics.Update_gossip);
  (* Reactive strategies do not pull: entries just expire. *)
  let rng2, p2 = build () in
  Alcotest.(check int) "partial mode: no pull" 0 (Pdht.rejoin_sync p2 rng2 ~now:10. ~peer:5);
  (* Non-members have no subnetworks to sync. *)
  let rng3, p3 = build ~strategy:Strategy.Index_all () in
  Alcotest.(check int) "non-member: no pull" 0 (Pdht.rejoin_sync p3 rng3 ~now:10. ~peer:150)

let test_pdht_key_mapping_deterministic () =
  let _, p1 = build ~seed:5 () in
  let _, p2 = build ~seed:99 () in
  (* Key identities depend on the index only, not on the rng. *)
  for k = 0 to 10 do
    Alcotest.(check bool) "stable key ids" true
      (Pdht_util.Bitkey.equal (Pdht.key_of_index p1 k) (Pdht.key_of_index p2 k))
  done

let test_pdht_content_replicas_placed () =
  let _, p = build ~repl:10 () in
  for k = 0 to 20 do
    Alcotest.(check int) "repl content copies" 10
      (Array.length (Pdht.content_replicas p ~key_index:k))
  done

let test_pdht_popular_keys_stay_indexed () =
  let _, p = build () in
  (* Query key 0 every 100 s; it must remain indexed throughout. *)
  for i = 1 to 20 do
    ignore (Pdht.query p ~now:(float_of_int (i * 100)) ~peer:(i mod 200) ~key_index:0)
  done;
  Alcotest.(check bool) "still indexed" true
    (Pdht.index_hit_probe p ~now:2050. ~key_index:0);
  (* An unpopular key queried once at t=100 has expired by then. *)
  ignore (Pdht.query p ~now:100. ~peer:3 ~key_index:77);
  Alcotest.(check bool) "unpopular expired" false
    (Pdht.index_hit_probe p ~now:2050. ~key_index:77)

let test_pdht_under_churn_still_answers () =
  let _, p = build ~num_peers:300 ~active:100 ~repl:15 () in
  let rng = Rng.create ~seed:77 in
  let offline = Array.init 300 (fun _ -> Rng.unit_float rng < 0.2) in
  Pdht.set_online p (fun peer -> not offline.(peer));
  let answered = ref 0 and asked = ref 0 in
  for k = 0 to 99 do
    let peer = k * 3 in
    if not offline.(peer) then begin
      incr asked;
      let r = Pdht.query p ~now:1. ~peer ~key_index:k in
      if r.Pdht.source <> Pdht.Not_found then incr answered
    end
  done;
  let rate = float_of_int !answered /. float_of_int !asked in
  Alcotest.(check bool) (Printf.sprintf "answer rate %.2f > 0.9 under 20%% churn" rate)
    true (rate > 0.9)

let test_pdht_rejects_bad_key_index () =
  let rng, p = build () in
  Alcotest.check_raises "query" (Invalid_argument "Pdht.query: key_index out of range")
    (fun () -> ignore (Pdht.query p ~now:1. ~peer:0 ~key_index:300));
  Alcotest.check_raises "negative" (Invalid_argument "Pdht.query: key_index out of range")
    (fun () -> ignore (Pdht.query p ~now:1. ~peer:0 ~key_index:(-1)));
  Alcotest.check_raises "update" (Invalid_argument "Pdht.update_key: key_index out of range")
    (fun () -> ignore (Pdht.update_key p rng ~now:1. ~key_index:300));
  Alcotest.check_raises "key_of_index" (Invalid_argument "Pdht.key_of_index: out of range")
    (fun () -> ignore (Pdht.key_of_index p 300))

(* A transport and the simulated network model are two deliveries of
   the same hops: asking for both is refused before anything is built. *)
let test_pdht_net_transport_exclusive () =
  let unused _ = Alcotest.fail "store reached" in
  let transport =
    {
      Pdht.store =
        {
          Pdht.get_and_refresh = (fun ~peer ~key_index:_ ~now:_ ~ttl:_ -> unused peer);
          first_holder = (fun ~peers:_ ~count:_ ~key_index:_ ~now:_ ~ttl:_ -> unused ());
          put = (fun ~peer ~key_index:_ ~value:_ ~now:_ ~ttl:_ -> unused peer);
          peek = (fun ~peer ~key_index:_ ~now:_ -> unused peer);
          clear = (fun ~peer ~now:_ -> unused peer);
          live_count = (fun ~peer ~now:_ -> unused peer);
          census = (fun ~now:_ -> unused ());
        };
      rpc = (fun ~span:_ ~src:_ ~dst:_ -> true);
      cast = (fun ~span:_ ~src:_ ~dst:_ -> true);
    }
  in
  let net = Pdht_net.Hook.create ~rng:(Rng.create ~seed:2) Pdht_net.Config.default in
  Alcotest.check_raises "net and transport"
    (Invalid_argument "Pdht.create: a network model and a transport are mutually exclusive")
    (fun () -> ignore (Pdht.create ~net ~transport (Rng.create ~seed:1) (small_config ())))

(* ------------------------------------------------------------------ *)
(* Adaptive controller *)

let test_adaptive_needs_data () =
  let ctl = Adaptive.create () in
  let _, p = build () in
  Alcotest.(check (option (float 1e-9))) "no data, no tune" None
    (Adaptive.retune ctl p ~now:10.);
  Alcotest.(check (option (float 1e-9))) "no estimate yet" None
    (Adaptive.current_ttl_estimate ctl)

let test_adaptive_produces_estimate () =
  let ctl = Adaptive.create () in
  let _, p = build () in
  (* Generate traffic: misses (broadcast + insert) and hits. *)
  for k = 0 to 30 do
    let r = Pdht.query p ~now:(float_of_int k) ~peer:k ~key_index:k in
    Adaptive.note_query ctl r
  done;
  for k = 0 to 30 do
    let r = Pdht.query p ~now:(40. +. float_of_int k) ~peer:(k + 50) ~key_index:k in
    Adaptive.note_query ctl r
  done;
  (match Adaptive.observed_search_costs ctl with
  | Some (c_unstr, c_indx2) ->
      Alcotest.(check bool) "broadcast dearer than index search" true (c_unstr > c_indx2)
  | None -> Alcotest.fail "expected both cost observations");
  (* Fake some maintenance traffic so cRtn > 0. *)
  Metrics.charge (Pdht.metrics p) Metrics.Maintenance 500;
  match Adaptive.retune ctl p ~now:100. with
  | Some ttl ->
      Alcotest.(check bool) "positive ttl" true (ttl > 0.);
      Alcotest.(check (float 1e-9)) "applied to pdht" ttl (Pdht.key_ttl p);
      Alcotest.(check (option (float 1e-9))) "estimate stored" (Some ttl)
        (Adaptive.current_ttl_estimate ctl)
  | None -> Alcotest.fail "expected a retune"

let test_adaptive_smoothing_and_clamp () =
  Alcotest.check_raises "bad smoothing"
    (Invalid_argument "Adaptive.create: smoothing in (0,1]") (fun () ->
      ignore (Adaptive.create ~smoothing:0. ()));
  Alcotest.check_raises "bad clamp" (Invalid_argument "Adaptive.create: bad TTL clamp")
    (fun () -> ignore (Adaptive.create ~min_ttl:10. ~max_ttl:1. ()))

(* ------------------------------------------------------------------ *)
(* System runner *)

let tiny_scenario =
  {
    Scenario.news_default with
    Scenario.num_peers = 150;
    keys = 300;
    f_qry = 1. /. 10.;
    duration = 400.;
    seed = 11;
  }

let tiny_options = { System.default_options with System.repl = 10; stor = 60 }

let test_system_run_partial () =
  let ttl = System.derive_key_ttl tiny_scenario tiny_options in
  let r = System.run tiny_scenario (partial ttl) tiny_options in
  Alcotest.(check bool) "queries happened" true (r.System.queries > 1000);
  Alcotest.(check int) "all queries accounted" r.System.queries
    (r.System.answered + r.System.failed);
  Alcotest.(check int) "no failures without churn" 0 r.System.failed;
  Alcotest.(check bool) "index hits dominate under Zipf" true (r.System.hit_rate > 0.5);
  Alcotest.(check bool) "index formed" true (r.System.indexed_keys_final > 0);
  Alcotest.(check bool) "samples recorded" true (List.length r.System.samples > 3)

let test_system_run_deterministic () =
  let ttl = System.derive_key_ttl tiny_scenario tiny_options in
  let r1 = System.run tiny_scenario (partial ttl) tiny_options in
  let r2 = System.run tiny_scenario (partial ttl) tiny_options in
  Alcotest.(check int) "same total messages" r1.System.total_messages r2.System.total_messages;
  Alcotest.(check int) "same query count" r1.System.queries r2.System.queries;
  Alcotest.(check int) "same hits" r1.System.from_index r2.System.from_index

let test_system_seed_changes_run () =
  let ttl = System.derive_key_ttl tiny_scenario tiny_options in
  let r1 = System.run tiny_scenario (partial ttl) tiny_options in
  let r2 =
    System.run { tiny_scenario with Scenario.seed = 12 } (partial ttl) tiny_options
  in
  Alcotest.(check bool) "different seed, different run" true
    (r1.System.total_messages <> r2.System.total_messages)

let test_system_strategy_ordering () =
  (* At a busy query rate, partial must beat noIndex by a wide margin
     (the paper's headline claim at simulation scale). *)
  let ttl = System.derive_key_ttl tiny_scenario tiny_options in
  let partial_run = System.run tiny_scenario (partial ttl) tiny_options in
  let none_run = System.run tiny_scenario Strategy.No_index tiny_options in
  Alcotest.(check bool)
    (Printf.sprintf "partial %.0f < noIndex %.0f msg/s" partial_run.System.messages_per_second
       none_run.System.messages_per_second)
    true
    (partial_run.System.messages_per_second < none_run.System.messages_per_second)

let test_system_index_all_no_broadcast () =
  let r = System.run tiny_scenario Strategy.Index_all tiny_options in
  Alcotest.(check int) "never broadcasts" 0 r.System.from_broadcast;
  Alcotest.(check int) "unstructured traffic zero" 0
    (List.assoc Metrics.Query_unstructured r.System.messages_by_category)

let test_system_no_index_no_dht_traffic () =
  let r = System.run tiny_scenario Strategy.No_index tiny_options in
  Alcotest.(check int) "no index searches" 0
    (List.assoc Metrics.Query_index r.System.messages_by_category);
  Alcotest.(check int) "no maintenance" 0
    (List.assoc Metrics.Maintenance r.System.messages_by_category)

let test_system_with_churn () =
  let scenario =
    {
      tiny_scenario with
      Scenario.churn =
        Scenario.Exponential_sessions
          { mean_uptime = 600.; mean_downtime = 200.; initially_online_fraction = 0.75 };
    }
  in
  let ttl = System.derive_key_ttl scenario tiny_options in
  let r = System.run scenario (partial ttl) tiny_options in
  (* Offline peers skip queries; most online queries still succeed. *)
  let success = float_of_int r.System.answered /. float_of_int (max 1 r.System.queries) in
  Alcotest.(check bool) (Printf.sprintf "success %.2f > 0.85 under churn" success) true
    (success > 0.85)

let test_system_bucket_refresh () =
  (* Live k-buckets with a refresh sweep under heavy-tailed session
     churn: the run completes and still answers; the option is rejected
     outright on any backend without live-table support. *)
  let scenario =
    {
      tiny_scenario with
      Scenario.churn =
        Scenario.Sessions
          {
            Pdht_dist.Session.up = Pdht_dist.Session.Weibull { shape = 0.6 };
            down = Pdht_dist.Session.Weibull { shape = 0.6 };
            mean_uptime = 600.;
            mean_downtime = 200.;
            initially_online_fraction = 0.75;
          };
    }
  in
  let options =
    {
      tiny_options with
      System.backend = Pdht_dht.Dht.Kademlia_backend;
      bucket_refresh = Some 30.;
    }
  in
  let ttl = System.derive_key_ttl scenario options in
  let r = System.run scenario (partial ttl) options in
  let success = float_of_int r.System.answered /. float_of_int (max 1 r.System.queries) in
  Alcotest.(check bool)
    (Printf.sprintf "success %.2f > 0.85 with live buckets" success)
    true (success > 0.85);
  match
    System.run scenario (partial ttl)
      { options with System.backend = Pdht_dht.Dht.Pgrid_backend }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bucket_refresh on a non-Kademlia backend must be rejected"

let test_system_adaptive_option_runs () =
  let options =
    {
      tiny_options with
      System.selection_policy = Pdht_policy.Selector.(Ttl Adaptive);
      sample_every = 20.;
    }
  in
  let ttl = System.derive_key_ttl tiny_scenario options in
  let r = System.run tiny_scenario (partial ttl) options in
  Alcotest.(check bool) "completes and answers" true (r.System.answered > 0)

let test_system_ttl_override () =
  let options =
    { tiny_options with System.selection_policy = Pdht_policy.Selector.(Ttl (Fixed 123.)) }
  in
  Alcotest.(check (float 1e-9)) "fixed policy wins" 123.
    (System.derive_key_ttl tiny_scenario options);
  (* Adaptive runs start from the same model-derived TTL as the default
     policy; only the in-run controller differs. *)
  Alcotest.(check (float 1e-9)) "adaptive starts model-derived"
    (System.derive_key_ttl tiny_scenario tiny_options)
    (System.derive_key_ttl tiny_scenario
       { tiny_options with System.selection_policy = Pdht_policy.Selector.(Ttl Adaptive) })

let test_system_options_builders () =
  let o =
    System.Options.make ~repl:7 ~stor:42
      ~selection_policy:Pdht_policy.Selector.(Ttl (Fixed 5.))
      ()
  in
  let fixed5 = Pdht_policy.Selector.(Ttl (Fixed 5.)) in
  Alcotest.(check int) "repl" 7 o.System.repl;
  Alcotest.(check int) "stor" 42 o.System.stor;
  Alcotest.(check bool) "selection policy lands" true
    (Pdht_policy.Selector.equal o.System.selection_policy fixed5);
  Alcotest.(check int) "defaults survive" System.default_options.System.repl
    (System.Options.make ()).System.repl;
  let o2 = { o with System.repl = 3; stor = 9 } in
  Alcotest.(check int) "record update repl" 3 o2.System.repl;
  Alcotest.(check int) "record update stor" 9 o2.System.stor;
  Alcotest.(check bool) "record update keeps the rest" true
    (Pdht_policy.Selector.equal o2.System.selection_policy fixed5)

let test_system_options_make_defaults () =
  (* [Options.make ()] must be [default_options], field for field: a
     new option axis that forgets to thread its default through [make]
     silently changes every caller that builds options that way. *)
  let o = System.Options.make () in
  let d = System.default_options in
  Alcotest.(check int) "repl" d.System.repl o.System.repl;
  Alcotest.(check int) "stor" d.System.stor o.System.stor;
  Alcotest.(check bool) "selection_policy" true
    (Pdht_policy.Selector.equal d.System.selection_policy o.System.selection_policy);
  Alcotest.(check (float 0.)) "sample_every" d.System.sample_every o.System.sample_every;
  Alcotest.(check bool) "backend" true (d.System.backend = o.System.backend);
  Alcotest.(check bool) "eviction" true (d.System.eviction = o.System.eviction);
  Alcotest.(check bool) "net" true (d.System.net = o.System.net);
  Alcotest.(check bool) "fault" true (d.System.fault = o.System.fault);
  Alcotest.(check bool) "timeline_window" true
    (d.System.timeline_window = o.System.timeline_window);
  Alcotest.(check bool) "whole record" true (o = d)


let test_adaptive_retune_empty_window () =
  let ctl = Adaptive.create () in
  let _, p = build () in
  for k = 0 to 30 do
    let r = Pdht.query p ~now:(float_of_int k) ~peer:k ~key_index:k in
    Adaptive.note_query ctl r
  done;
  for k = 0 to 30 do
    let r = Pdht.query p ~now:(40. +. float_of_int k) ~peer:(k + 50) ~key_index:k in
    Adaptive.note_query ctl r
  done;
  Metrics.charge (Pdht.metrics p) Metrics.Maintenance 500;
  (match Adaptive.retune ctl p ~now:100. with
  | Some _ -> ()
  | None -> Alcotest.fail "expected the primed retune to produce a TTL");
  (* The retune reset the observation window: with nothing new observed
     the next retune must decline rather than divide by an empty
     window, and the previous estimate must survive. *)
  let before = Adaptive.current_ttl_estimate ctl in
  Alcotest.(check (option (float 1e-9))) "empty window declines" None
    (Adaptive.retune ctl p ~now:200.);
  Alcotest.(check (option (float 1e-9))) "estimate survives" before
    (Adaptive.current_ttl_estimate ctl)

let test_adaptive_retune_no_index () =
  (* Costs observed on a busy instance, but retuned against one whose
     index is empty: cRtn per indexed key is undefined, so no tune. *)
  let ctl = Adaptive.create () in
  let _, busy = build () in
  for k = 0 to 30 do
    let r = Pdht.query busy ~now:(float_of_int k) ~peer:k ~key_index:k in
    Adaptive.note_query ctl r
  done;
  for k = 0 to 30 do
    let r = Pdht.query busy ~now:(40. +. float_of_int k) ~peer:(k + 50) ~key_index:k in
    Adaptive.note_query ctl r
  done;
  let _, empty = build () in
  Metrics.charge (Pdht.metrics empty) Metrics.Maintenance 500;
  Alcotest.(check (option (float 1e-9))) "no indexed keys, no tune" None
    (Adaptive.retune ctl empty ~now:100.)

let test_adaptive_retune_clamps_to_max () =
  let max_ttl = 2.5 in
  let ctl = Adaptive.create ~min_ttl:1. ~max_ttl () in
  let _, p = build () in
  for k = 0 to 30 do
    let r = Pdht.query p ~now:(float_of_int k) ~peer:k ~key_index:k in
    Adaptive.note_query ctl r
  done;
  for k = 0 to 30 do
    let r = Pdht.query p ~now:(40. +. float_of_int k) ~peer:(k + 50) ~key_index:k in
    Adaptive.note_query ctl r
  done;
  (* Almost no maintenance traffic: the raw 1/fMin estimate is huge and
     only the clamp keeps it sane. *)
  Metrics.charge (Pdht.metrics p) Metrics.Maintenance 1;
  match Adaptive.retune ctl p ~now:100. with
  | Some ttl ->
      Alcotest.(check bool)
        (Printf.sprintf "clamped: %g <= %g" ttl max_ttl)
        true (ttl <= max_ttl)
  | None -> Alcotest.fail "expected a retune"

let test_system_query_cost_percentiles () =
  let ttl = System.derive_key_ttl tiny_scenario tiny_options in
  let r = System.run tiny_scenario (partial ttl) tiny_options in
  Alcotest.(check bool) "ordered" true
    (r.System.query_cost_p50 <= r.System.query_cost_p95
    && r.System.query_cost_p95 <= r.System.query_cost_p99);
  (* Under Zipf most queries are index hits: the median is a handful of
     messages while the tail pays for broadcasts. *)
  Alcotest.(check bool) "median is cheap" true (r.System.query_cost_p50 < 20.);
  Alcotest.(check bool) "tail is expensive" true
    (r.System.query_cost_p99 > 3. *. r.System.query_cost_p50)

let test_system_report_printable () =
  let ttl = System.derive_key_ttl tiny_scenario tiny_options in
  let r = System.run tiny_scenario (partial ttl) tiny_options in
  let s = Format.asprintf "%a" System.pp_report r in
  Alcotest.(check bool) "non-empty" true (String.length s > 50)

(* ------------------------------------------------------------------ *)
(* Run specs and the domain pool *)

let runner_scenario =
  { tiny_scenario with Scenario.num_peers = 100; keys = 200; duration = 250. }

let runner_specs () =
  let base = Run_spec.make ~options:tiny_options runner_scenario in
  Run_spec.over_seeds [ 1; 2; 3 ] base
  @ [ Run_spec.with_strategy Strategy.No_index base ]

let test_runner_jobs_parity () =
  (* The determinism contract: any jobs count yields the same reports,
     field by field, because each task's randomness derives from the
     spec alone. *)
  let reports jobs = Run_result.reports_exn (Runner.run_all ~jobs (runner_specs ())) in
  let sequential = reports 1 and parallel = reports 4 in
  Alcotest.(check int) "batch size" (List.length sequential) (List.length parallel);
  List.iter2
    (fun (a : System.report) (b : System.report) ->
      Alcotest.(check string) "scenario" a.System.scenario_name b.System.scenario_name;
      Alcotest.(check int) "queries" a.System.queries b.System.queries;
      Alcotest.(check int) "answered" a.System.answered b.System.answered;
      Alcotest.(check int) "from_index" a.System.from_index b.System.from_index;
      Alcotest.(check int) "total messages" a.System.total_messages b.System.total_messages;
      Alcotest.(check (float 0.)) "messages/s" a.System.messages_per_second
        b.System.messages_per_second;
      Alcotest.(check (float 0.)) "hit rate" a.System.hit_rate b.System.hit_rate;
      Alcotest.(check (float 0.)) "p99" a.System.query_cost_p99 b.System.query_cost_p99;
      Alcotest.(check int) "indexed keys" a.System.indexed_keys_final
        b.System.indexed_keys_final;
      Alcotest.(check int) "samples" (List.length a.System.samples)
        (List.length b.System.samples);
      Alcotest.(check int) "histograms" (List.length a.System.histograms)
        (List.length b.System.histograms);
      (* ... and every remaining field, via structural equality. *)
      Alcotest.(check bool) "whole report" true (a = b))
    sequential parallel

let test_runner_error_capture () =
  (* One poisoned spec becomes a labelled error; the rest of the batch
     still runs. *)
  let good = Run_spec.make ~options:tiny_options runner_scenario in
  let bad =
    { good with Run_spec.tag = "poisoned"; options = { tiny_options with System.repl = 0 } }
  in
  let results = Runner.run_all ~jobs:2 [ good; bad; good ] in
  (match results with
  | [ (_, Ok _); (spec, Error e); (_, Ok _) ] ->
      Alcotest.(check string) "error carries the tag" "poisoned" e.Run_result.tag;
      Alcotest.(check string) "spec preserved" "poisoned" spec.Run_spec.tag;
      Alcotest.(check bool) "message non-empty" true (String.length e.Run_result.message > 0)
  | _ -> Alcotest.fail "expected [Ok; Error; Ok]");
  Alcotest.(check int) "failures lists only the poisoned spec" 1
    (List.length (Run_result.failures results));
  Alcotest.check_raises "reports_exn surfaces the failure"
    (Run_result.Task_failed
       { Run_result.tag = "poisoned";
         message =
           (match results with
           | [ _; (_, Error e); _ ] -> e.Run_result.message
           | _ -> "") })
    (fun () -> ignore (Run_result.reports_exn results))

let test_run_spec_seeding () =
  let spec = Run_spec.make ~options:tiny_options runner_scenario in
  Alcotest.(check bool) "derived seed differs from the raw seed" true
    (Run_spec.run_seed spec <> runner_scenario.Scenario.seed);
  Alcotest.(check bool) "task_id splits the stream" true
    (Run_spec.run_seed spec <> Run_spec.run_seed { spec with Run_spec.task_id = 1 });
  Alcotest.(check int) "run_seed is a pure function of the spec"
    (Run_spec.run_seed spec) (Run_spec.run_seed spec);
  let tags = List.map (fun s -> s.Run_spec.tag) (Run_spec.over_seeds [ 7; 8 ] spec) in
  Alcotest.(check (list string)) "over_seeds tags"
    [ spec.Run_spec.tag ^ " seed=7"; spec.Run_spec.tag ^ " seed=8" ] tags;
  Alcotest.(check string) "with_strategy refreshes a defaulted tag"
    (runner_scenario.Scenario.name ^ "/" ^ Strategy.label Strategy.No_index)
    (Run_spec.with_strategy Strategy.No_index spec).Run_spec.tag;
  Alcotest.(check string) "with_strategy keeps a custom tag" "mine"
    (Run_spec.with_strategy Strategy.No_index { spec with Run_spec.tag = "mine" }).Run_spec.tag

let test_pool_map_preserves_order () =
  let squares =
    Pdht_runner.Pool.map_list ~jobs:4 ~f:(fun i x -> (i, x * x)) (List.init 40 (fun i -> i + 1))
  in
  List.iteri
    (fun i (j, sq) ->
      Alcotest.(check int) "index" i j;
      Alcotest.(check int) "value" ((i + 1) * (i + 1)) sq)
    squares;
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.try_map: jobs must be >= 1") (fun () ->
      ignore (Pdht_runner.Pool.map_list ~jobs:0 ~f:(fun _ x -> x) [ 1 ]))

(* Regression: the effective worker count is clamped to the batch size,
   so a 1-task batch runs inline on the caller's domain no matter how
   large [jobs] is — spawning 7 idle domains for one task would be pure
   stop-the-world GC overhead. *)
let test_pool_small_batch_runs_inline () =
  let caller = Domain.self () in
  let ran_on =
    Pdht_runner.Pool.map_list ~jobs:8 ~f:(fun _ () -> Domain.self ()) [ () ]
  in
  Alcotest.(check bool) "single task stays on the calling domain" true
    (ran_on = [ caller ]);
  (* Two tasks at -j 8 still need at most two domains: the caller works
     too, so at most one domain is spawned. *)
  let domains =
    Pdht_runner.Pool.map_list ~jobs:8 ~f:(fun _ () -> Domain.self ()) [ (); () ]
  in
  let distinct =
    List.fold_left
      (fun acc d -> if List.exists (fun d' -> d' = d) acc then acc else d :: acc)
      [] domains
  in
  Alcotest.(check bool) "two tasks use at most two domains" true
    (List.length distinct <= 2)

(* ------------------------------------------------------------------ *)
(* The selection algorithm's branches, driven through [Pdht]: the query
   and update plans, the selection hook and the repair rules. *)

(* Members are peers [0, active): [build]'s default is 60 of 200. *)
let members_offline peer = peer >= 60

(* The tests below use [build]'s default [repl]. *)
let replica_group p ~key_index =
  Pdht_dht.Dht.replica_group (Pdht.dht p) ~repl:10 (Pdht.key_of_index p key_index)

let source =
  let pp ppf s =
    Format.pp_print_string ppf
      (match s with
      | Pdht.From_index -> "from-index"
      | Pdht.From_broadcast -> "from-broadcast"
      | Pdht.Not_found -> "not-found")
  in
  Alcotest.testable pp ( = )

let counter obs name =
  Option.value ~default:0
    (Pdht_obs.Registry.counter_value_by_name (Pdht_obs.Context.registry obs) name)

let test_query_plan_no_index_paths () =
  let _, p = build ~strategy:Strategy.No_index () in
  let key_index = 3 in
  let reps = Pdht.content_replicas p ~key_index in
  let rec free peer = if Array.mem peer reps then free (peer + 1) else peer in
  let peer = free 100 in
  let r = Pdht.query p ~now:1. ~peer ~key_index in
  Alcotest.check source "broadcast hit" Pdht.From_broadcast r.Pdht.source;
  Alcotest.(check int) "no index traffic" 0 r.Pdht.index_messages;
  Alcotest.(check int) "never inserts" 0 r.Pdht.insert_messages;
  (* With every replica crashed the broadcast finds nothing. *)
  Array.iter (fun peer -> ignore (Pdht.crash_peer p ~peer ~now:2.)) reps;
  let r = Pdht.query p ~now:2. ~peer ~key_index in
  Alcotest.check source "broadcast miss" Pdht.Not_found r.Pdht.source;
  Alcotest.(check bool) "broadcast ran" true (r.Pdht.broadcast_messages > 0);
  Alcotest.(check int) "no index traffic on a miss" 0 r.Pdht.index_messages

let test_query_plan_index_all_paths () =
  (* The baseline has no broadcast fallback: without an entry point, or
     after an index miss, the answer is final. *)
  let _, p = build ~strategy:Strategy.Index_all () in
  let key_index = 11 in
  Pdht.set_online p members_offline;
  let r = Pdht.query p ~now:1. ~peer:100 ~key_index in
  Alcotest.check source "no entry: not found" Pdht.Not_found r.Pdht.source;
  Alcotest.(check int) "no entry: free" 0 (Pdht.total_messages r);
  Pdht.set_online p (fun _ -> true);
  let r = Pdht.query p ~now:2. ~peer:100 ~key_index in
  Alcotest.check source "hit" Pdht.From_index r.Pdht.source;
  Array.iter (fun peer -> ignore (Pdht.crash_peer p ~peer ~now:3.)) (replica_group p ~key_index);
  let r = Pdht.query p ~now:3. ~peer:100 ~key_index in
  Alcotest.check source "miss is final" Pdht.Not_found r.Pdht.source;
  Alcotest.(check bool) "the index was searched" true
    (r.Pdht.index_messages + r.Pdht.replica_flood_messages > 0);
  Alcotest.(check int) "no broadcast" 0 r.Pdht.broadcast_messages;
  Alcotest.(check int) "no unstructured traffic charged" 0
    (Metrics.count (Pdht.metrics p) Metrics.Query_unstructured)

let test_query_plan_partial_hit () =
  let _, p = build () in
  let first = Pdht.query p ~now:1. ~peer:7 ~key_index:42 in
  let r = Pdht.query p ~now:2. ~peer:8 ~key_index:42 in
  Alcotest.check source "from index" Pdht.From_index r.Pdht.source;
  Alcotest.(check (option int)) "the provider the broadcast found" first.Pdht.provider
    r.Pdht.provider;
  Alcotest.(check int) "no broadcast" 0 r.Pdht.broadcast_messages;
  Alcotest.(check int) "no re-insert" 0 r.Pdht.insert_messages

let test_query_plan_partial_miss_broadcast_insert () =
  let _, p = build () in
  let r = Pdht.query p ~now:1. ~peer:7 ~key_index:42 in
  Alcotest.check source "from broadcast" Pdht.From_broadcast r.Pdht.source;
  Alcotest.(check bool) "index searched first" true (r.Pdht.index_messages > 0);
  Alcotest.(check bool) "then broadcast" true (r.Pdht.broadcast_messages > 0);
  Alcotest.(check int) "re-insert charged" r.Pdht.insert_messages
    (Metrics.count (Pdht.metrics p) Metrics.Index_insert);
  Alcotest.(check int) "one key indexed" 1 (Pdht.indexed_key_count p ~now:2.)

let test_query_plan_partial_entry_failure_degrades () =
  (* With the index out of reach the PDHT still answers by broadcast,
     but has nowhere to re-insert what it found. *)
  let _, p = build () in
  Pdht.set_online p members_offline;
  let found = ref 0 in
  for key_index = 0 to 19 do
    let r = Pdht.query p ~now:1. ~peer:100 ~key_index in
    if r.Pdht.source = Pdht.From_broadcast then incr found;
    Alcotest.(check bool) "never from the index" true (r.Pdht.source <> Pdht.From_index);
    Alcotest.(check int) "no index traffic" 0 r.Pdht.index_messages;
    Alcotest.(check int) "no insert traffic" 0 r.Pdht.insert_messages;
    Alcotest.(check bool) "broadcast ran" true (r.Pdht.broadcast_messages > 0)
  done;
  Alcotest.(check bool) "broadcast answers" true (!found > 0);
  Alcotest.(check int) "nothing indexed" 0 (Pdht.indexed_key_count p ~now:2.)

let test_update_plan_only_index_all_runs () =
  (* The reactive strategies drop proactive updates before drawing the
     issuer, so the caller's stream is untouched. *)
  List.iter
    (fun strategy ->
      let rng, p = build ~strategy () in
      let untouched = Rng.copy rng in
      Alcotest.(check int) "no messages" 0 (Pdht.update_key p rng ~now:1. ~key_index:3);
      Alcotest.(check int64) "no draw" (Rng.bits64 untouched) (Rng.bits64 rng))
    [ partial 300.; Strategy.No_index ]

let test_update_plan_full_path () =
  let obs = Pdht_obs.Context.create () in
  let rng, p = build ~obs ~strategy:Strategy.Index_all () in
  let m = Pdht.update_key p rng ~now:1. ~key_index:3 in
  Alcotest.(check bool) "costs messages" true (m > 0);
  Alcotest.(check int) "charged to update-gossip" m
    (Metrics.count (Pdht.metrics p) Metrics.Update_gossip);
  Alcotest.(check int) "spread once" 1 (counter obs "gossip.spreads");
  Alcotest.(check bool) "still indexed" true (Pdht.index_hit_probe p ~now:2. ~key_index:3)

let test_update_plan_failures_end_undelivered () =
  (* No entry point: nothing was sent, so nothing is charged. *)
  let obs = Pdht_obs.Context.create () in
  let rng, p = build ~obs ~strategy:Strategy.Index_all () in
  Pdht.set_online p members_offline;
  Alcotest.(check int) "no entry: no messages" 0 (Pdht.update_key p rng ~now:1. ~key_index:3);
  Alcotest.(check int) "no entry: nothing charged" 0
    (Metrics.count (Pdht.metrics p) Metrics.Update_gossip);
  (* Routing fails when the key's whole group is offline: the contact
     and the lookup are charged, but nothing spreads. *)
  let key_index = 3 in
  let group = replica_group p ~key_index in
  Pdht.set_online p (fun peer -> not (Array.mem peer group));
  let m = Pdht.update_key p rng ~now:2. ~key_index in
  Alcotest.(check int) "routing failure: charged" m
    (Metrics.count (Pdht.metrics p) Metrics.Update_gossip);
  Alcotest.(check int) "routing failure: no spread" 0 (counter obs "gossip.spreads")

let test_selection_defaults () =
  (* No selector: every broadcast-resolved key is admitted with the
     system-wide lease. *)
  let _, p = build () in
  for key_index = 0 to 9 do
    let r = Pdht.query p ~now:1. ~peer:100 ~key_index in
    if r.Pdht.source = Pdht.From_broadcast then
      Alcotest.(check bool) "admitted" true (r.Pdht.insert_messages > 0)
  done;
  Alcotest.(check bool) "leased key_ttl" true (Pdht.index_hit_probe p ~now:300. ~key_index:0);
  Alcotest.(check bool) "expired after key_ttl" false
    (Pdht.index_hit_probe p ~now:302. ~key_index:0)

let test_selection_policy_consulted () =
  let module Sel = Pdht_policy.Selector in
  let _, p = build () in
  let params =
    { Pdht_model.Params.default with Pdht_model.Params.num_peers = 200; keys = 300; repl = 10 }
  in
  let sel = Sel.Cost_optimal.create ~params ~base_ttl:50. ~retune_every:300. in
  Pdht.set_selector p sel;
  (* Warm-up admits and leases the selector's base TTL, not keyTtl. *)
  let r = Pdht.query p ~now:1. ~peer:7 ~key_index:42 in
  Alcotest.(check bool) "admitted" true (r.Pdht.insert_messages > 0);
  Alcotest.(check bool) "selector lease" true (Pdht.index_hit_probe p ~now:50. ~key_index:42);
  Alcotest.(check bool) "not keyTtl" false (Pdht.index_hit_probe p ~now:52. ~key_index:42);
  (* After a fit, a cold key is rejected at zero cost. *)
  for _ = 1 to 2000 do
    Sel.Cost_optimal.observe sel ~now:100. ~key_index:0 Sel.Queried
  done;
  Sel.Cost_optimal.retune sel ~now:300.;
  let r = Pdht.query p ~now:310. ~peer:7 ~key_index:5 in
  Alcotest.check source "answered by broadcast" Pdht.From_broadcast r.Pdht.source;
  Alcotest.(check int) "rejected: no insert" 0 r.Pdht.insert_messages;
  let s = Sel.Cost_optimal.summary sel in
  Alcotest.(check int) "told of the admission" 1 s.Sel.admitted_inserts;
  Alcotest.(check int) "told of the rejection" 1 s.Sel.rejected_inserts

let live_replicas p ~online ~key_index =
  Array.fold_left
    (fun n peer -> if online peer then n + 1 else n)
    0 (Pdht.content_replicas p ~key_index)

let test_repair_threshold_and_topup () =
  (* repl 10, min_fraction 0.5: 4 live replicas is below ceil(5), so the
     item is topped back up to 10 live holders, 2 messages per copy. *)
  let rng, p = build ~strategy:Strategy.No_index () in
  let key_index = 8 in
  let reps = Pdht.content_replicas p ~key_index in
  let down = Array.sub reps 0 6 in
  let online peer = not (Array.mem peer down) in
  Pdht.set_online p online;
  Alcotest.(check int) "4 live" 4 (live_replicas p ~online ~key_index);
  let messages, items, _ = Pdht.repair_pass p rng ~now:10. ~min_fraction:0.5 in
  let after = Pdht.content_replicas p ~key_index in
  Alcotest.(check int) "one item repaired" 1 items;
  Alcotest.(check int) "back to repl live" 10 (live_replicas p ~online ~key_index);
  Alcotest.(check int) "six new copies, two messages each" 12 messages;
  Alcotest.(check int) "the copies are the new holders" 6
    (Array.length after - Array.length reps);
  (* No live replica means no source to copy from. *)
  let rng, p = build ~strategy:Strategy.No_index () in
  Pdht.set_online p (fun peer -> not (Array.mem peer reps));
  let messages, items, _ = Pdht.repair_pass p rng ~now:10. ~min_fraction:0.5 in
  Alcotest.(check int) "extinct: nothing repaired" 0 items;
  Alcotest.(check int) "extinct: nothing sent" 0 messages;
  Alcotest.(check (array int)) "extinct: replicas untouched" reps
    (Pdht.content_replicas p ~key_index)

let test_repair_remaining_ttl () =
  (* keyTtl 300: a key inserted at t=1 expires at 301.  Leave one
     holder, repair at t=100, then crash that holder too: only the
     repaired copies remain, and they must still expire at 301. *)
  let rng, p = build () in
  let key_index = 42 in
  let r = Pdht.query p ~now:1. ~peer:7 ~key_index in
  Alcotest.(check bool) "inserted" true (r.Pdht.insert_messages > 0);
  let group = replica_group p ~key_index in
  let holder = group.(0) in
  Array.iter
    (fun peer -> if peer <> holder then ignore (Pdht.crash_peer p ~peer ~now:100.))
    group;
  let _, _, copied = Pdht.repair_pass p rng ~now:100. ~min_fraction:0.5 in
  Alcotest.(check int) "copied to every other member" (Array.length group - 1) copied;
  ignore (Pdht.crash_peer p ~peer:holder ~now:100.);
  Alcotest.(check bool) "repaired copies live before expiry" true
    (Pdht.index_hit_probe p ~now:300. ~key_index);
  Alcotest.(check bool) "and gone at the original expiry" false
    (Pdht.index_hit_probe p ~now:302. ~key_index)

(* ------------------------------------------------------------------ *)
(* Index census: the index size (Eq. 15) read from the stores as a
   whole must equal the per-key scan over each key's replica group, and
   reading it must leave the stores untouched. *)

module Storage = Pdht_dht.Storage
module Dht = Pdht_dht.Dht
module Hashing = Pdht_util.Hashing

type census_case = {
  kademlia : bool;  (* live Kademlia buckets instead of P-Grid *)
  stor : int;       (* small caches run under eviction pressure *)
  ttl : float;
  churn : bool;
  crash : bool;     (* crash waves, rejoin and repair passes *)
  seed : int;
}

let census_case_print c =
  Printf.sprintf "{kademlia=%b stor=%d ttl=%g churn=%b crash=%b seed=%d}" c.kademlia c.stor
    c.ttl c.churn c.crash c.seed

let census_case_gen =
  let open QCheck.Gen in
  map3
    (fun (kademlia, stor) (ttl, churn) (crash, seed) -> { kademlia; stor; ttl; churn; crash; seed })
    (pair bool (int_range 2 40))
    (pair (float_range 5. 200.) bool)
    (pair bool (int_bound 1_000_000))

let census_keys = 120
let census_members = 40
let census_peers = 120
let census_repl = 5

(* DHT keys, for the replica groups; the stores are keyed by key
   index, like the in-process ones. *)
let census_bitkeys = Array.init census_keys Hashing.key_id
let store_key = Pdht_util.Bitkey.of_int

let live_at s ~key ~now =
  match Storage.expiry s ~key with Some e -> e > now | None -> false

(* Every (member, key) expiry the stores hold, live or not.  [expiry]
   purges nothing, so taking this snapshot cannot move the state. *)
let store_snapshot stores =
  Array.map
    (fun s -> Array.init census_keys (fun i -> Storage.expiry s ~key:(store_key i)))
    stores

(* At a sample: the census count equals the per-key scan of each key's
   replica group, bit for bit; taking it changes no store; and every
   live entry sits on a member of its key's group. *)
let census_sample p stores ~now =
  let before = store_snapshot stores in
  let census = Pdht.indexed_key_count p ~now in
  let untouched = store_snapshot stores = before in
  let bits = Pdht.Census.of_stores ~keys:census_keys ~now stores in
  let scan = ref 0 and same_bits = ref true and placed = ref true in
  Array.iteri
    (fun key_index bitkey ->
      let group = Dht.replica_group (Pdht.dht p) ~repl:census_repl bitkey in
      let key = store_key key_index in
      let in_group = Array.exists (fun member -> live_at stores.(member) ~key ~now) group in
      if in_group then incr scan;
      let bit = Char.code (Bytes.get bits (key_index lsr 3)) land (1 lsl (key_index land 7)) in
      if in_group <> (bit <> 0) then same_bits := false;
      Array.iteri
        (fun member s ->
          if live_at s ~key ~now && not (Array.mem member group) then placed := false)
        stores)
    census_bitkeys;
  census = !scan && !same_bits && untouched && !placed

(* One random small run over a transport whose stores the test owns. *)
let census_run c =
  let stores =
    Array.init census_members (fun _ -> Storage.create ~capacity:c.stor ())
  in
  let store = Pdht.local_store_ops ~stores ~keys:census_keys in
  let transport =
    {
      Pdht.store;
      rpc = (fun ~span:_ ~src:_ ~dst:_ -> true);
      cast = (fun ~span:_ ~src:_ ~dst:_ -> true);
    }
  in
  let rng = Rng.create ~seed:c.seed in
  let config =
    Config.make
      ~backend:(if c.kademlia then Dht.Kademlia_backend else Dht.Pgrid_backend)
      ~num_peers:census_peers ~active_members:census_members ~keys:census_keys
      ~repl:census_repl ~stor:c.stor ~strategy:(partial c.ttl) ()
  in
  let p = Pdht.create ~transport rng config in
  if c.kademlia then Dht.enable_live_routing (Pdht.dht p);
  let online = Array.make census_peers true in
  Pdht.set_online p (fun peer -> online.(peer));
  let crashed = ref [] in
  let ok = ref true in
  let now = ref 0. in
  for step = 1 to 300 do
    now := !now +. Rng.float rng 2.;
    (* Half the queries on a hot head, so the index both hits and
       churns its caches. *)
    let key_index =
      if Rng.bool rng then Rng.int rng 15 else Rng.int rng census_keys
    in
    ignore (Pdht.query p ~now:!now ~peer:(Rng.int rng census_peers) ~key_index);
    if c.churn && step mod 3 = 0 then begin
      let peer = Rng.int rng census_peers in
      if not (List.mem peer !crashed) then online.(peer) <- not online.(peer)
    end;
    if c.crash && step mod 60 = 20 then
      for _ = 1 to 8 do
        let peer = Rng.int rng census_members in
        if not (List.mem peer !crashed) then begin
          ignore (Pdht.crash_peer p ~peer ~now:!now);
          online.(peer) <- false;
          crashed := peer :: !crashed
        end
      done;
    if c.crash && step mod 60 = 50 then begin
      List.iter
        (fun peer ->
          online.(peer) <- true;
          ignore (Pdht.recover_peer p rng ~peer))
        !crashed;
      crashed := [];
      ignore (Pdht.repair_pass p rng ~now:!now ~min_fraction:0.5)
    end;
    if step mod 15 = 0 && not (census_sample p stores ~now:!now) then ok := false
  done;
  !ok

let census_equals_scan =
  QCheck.Test.make ~name:"census equals replica-group scan" ~count:40
    (QCheck.make ~print:census_case_print census_case_gen)
    census_run

let () =
  Alcotest.run "pdht_core"
    [
      ( "strategy-config",
        [
          Alcotest.test_case "strategy accessors" `Quick test_strategy_accessors;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "active_members_for" `Quick test_config_active_members_for;
        ] );
      ( "pdht",
        [
          Alcotest.test_case "noIndex broadcasts" `Quick test_pdht_no_index_broadcasts;
          Alcotest.test_case "indexAll serves from index" `Quick test_pdht_index_all_serves_from_index;
          Alcotest.test_case "indexAll preloaded" `Quick test_pdht_index_all_preloaded;
          Alcotest.test_case "partial starts empty" `Quick test_pdht_partial_starts_empty;
          Alcotest.test_case "miss then hit" `Quick test_pdht_partial_miss_then_hit;
          Alcotest.test_case "key expires" `Quick test_pdht_partial_key_expires;
          Alcotest.test_case "query refreshes ttl" `Quick test_pdht_query_refreshes_ttl;
          Alcotest.test_case "offline peer" `Quick test_pdht_offline_peer_cannot_query;
          Alcotest.test_case "result totals" `Quick test_pdht_query_result_totals;
          Alcotest.test_case "set_key_ttl" `Quick test_pdht_set_key_ttl;
          Alcotest.test_case "update modes" `Quick test_pdht_update_key_modes;
          Alcotest.test_case "rejoin sync" `Quick test_pdht_rejoin_sync;
          Alcotest.test_case "key mapping deterministic" `Quick test_pdht_key_mapping_deterministic;
          Alcotest.test_case "content replicas" `Quick test_pdht_content_replicas_placed;
          Alcotest.test_case "popular keys persist" `Quick test_pdht_popular_keys_stay_indexed;
          Alcotest.test_case "answers under churn" `Quick test_pdht_under_churn_still_answers;
          Alcotest.test_case "rejects bad key index" `Quick test_pdht_rejects_bad_key_index;
          Alcotest.test_case "net and transport exclusive" `Quick
            test_pdht_net_transport_exclusive;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "needs data" `Quick test_adaptive_needs_data;
          Alcotest.test_case "produces estimate" `Quick test_adaptive_produces_estimate;
          Alcotest.test_case "validation" `Quick test_adaptive_smoothing_and_clamp;
          Alcotest.test_case "empty window declines" `Quick test_adaptive_retune_empty_window;
          Alcotest.test_case "no index declines" `Quick test_adaptive_retune_no_index;
          Alcotest.test_case "clamps to max" `Quick test_adaptive_retune_clamps_to_max;
        ] );
      ( "system",
        [
          Alcotest.test_case "run partial" `Quick test_system_run_partial;
          Alcotest.test_case "deterministic" `Quick test_system_run_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_system_seed_changes_run;
          Alcotest.test_case "partial beats noIndex" `Quick test_system_strategy_ordering;
          Alcotest.test_case "indexAll never broadcasts" `Quick test_system_index_all_no_broadcast;
          Alcotest.test_case "noIndex has no DHT traffic" `Quick test_system_no_index_no_dht_traffic;
          Alcotest.test_case "with churn" `Quick test_system_with_churn;
          Alcotest.test_case "bucket refresh" `Quick test_system_bucket_refresh;
          Alcotest.test_case "adaptive option" `Quick test_system_adaptive_option_runs;
          Alcotest.test_case "ttl override" `Quick test_system_ttl_override;
          Alcotest.test_case "options builders" `Quick test_system_options_builders;
          Alcotest.test_case "make defaults" `Quick test_system_options_make_defaults;
          Alcotest.test_case "query cost percentiles" `Quick test_system_query_cost_percentiles;
          Alcotest.test_case "report printable" `Quick test_system_report_printable;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs parity" `Quick test_runner_jobs_parity;
          Alcotest.test_case "error capture" `Quick test_runner_error_capture;
          Alcotest.test_case "run_spec seeding" `Quick test_run_spec_seeding;
          Alcotest.test_case "pool order" `Quick test_pool_map_preserves_order;
          Alcotest.test_case "pool inlines small batches" `Quick
            test_pool_small_batch_runs_inline;
        ] );
      ( "query_plan",
        [
          Alcotest.test_case "no-index paths" `Quick test_query_plan_no_index_paths;
          Alcotest.test_case "index-all paths" `Quick test_query_plan_index_all_paths;
          Alcotest.test_case "partial hit" `Quick test_query_plan_partial_hit;
          Alcotest.test_case "partial miss broadcast insert" `Quick
            test_query_plan_partial_miss_broadcast_insert;
          Alcotest.test_case "partial entry failure degrades" `Quick
            test_query_plan_partial_entry_failure_degrades;
        ] );
      ( "update_plan",
        [
          Alcotest.test_case "only index-all runs" `Quick test_update_plan_only_index_all_runs;
          Alcotest.test_case "full path" `Quick test_update_plan_full_path;
          Alcotest.test_case "failures end undelivered" `Quick
            test_update_plan_failures_end_undelivered;
        ] );
      ( "selection",
        [
          Alcotest.test_case "defaults" `Quick test_selection_defaults;
          Alcotest.test_case "policy consulted" `Quick test_selection_policy_consulted;
        ] );
      ( "repair_rules",
        [
          Alcotest.test_case "threshold and topup" `Quick test_repair_threshold_and_topup;
          Alcotest.test_case "remaining ttl" `Quick test_repair_remaining_ttl;
        ] );
      ("census", [ QCheck_alcotest.to_alcotest census_equals_scan ]);
    ]
