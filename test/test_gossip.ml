(* Tests for Pdht_gossip: replica subnetworks and rumor spreading. *)

module Rng = Pdht_util.Rng
module Replica_net = Pdht_gossip.Replica_net
module Rumor = Pdht_gossip.Rumor
module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Strategy = Pdht_core.Strategy
module Runner = Pdht_core.Runner
module Run_spec = Pdht_core.Run_spec
module Run_result = Pdht_core.Run_result

let all_online _ = true

let build ~seed ~replicas ~chords =
  let rng = Rng.create ~seed in
  (rng, Replica_net.build rng ~replicas ~chords)

(* ------------------------------------------------------------------ *)
(* Replica_net *)

let test_net_membership () =
  let replicas = [| 10; 20; 30; 40; 50 |] in
  let _, net = build ~seed:1 ~replicas ~chords:1 in
  Alcotest.(check int) "size" 5 (Replica_net.size net);
  Alcotest.(check (array int)) "replicas kept" replicas (Replica_net.replicas net);
  Alcotest.(check (option int)) "member lookup" (Some 2) (Replica_net.member_of_peer net 30);
  Alcotest.(check (option int)) "non-member" None (Replica_net.member_of_peer net 99)

let test_net_ring_connectivity () =
  (* Even with zero chords the ring makes the subnet connected. *)
  let replicas = Array.init 20 (fun i -> 100 + i) in
  let _, net = build ~seed:2 ~replicas ~chords:0 in
  let r = Replica_net.flood net ~online:all_online ~from_peer:100 in
  Alcotest.(check int) "flood reaches all" 20 r.Replica_net.reached

let test_net_neighbors_are_members () =
  let replicas = Array.init 10 (fun i -> i * 7 ) in
  let _, net = build ~seed:3 ~replicas ~chords:2 in
  let member_set = Array.to_list replicas in
  for m = 0 to 9 do
    Array.iter
      (fun peer ->
        Alcotest.(check bool) "neighbor is a replica" true (List.mem peer member_set))
      (Replica_net.neighbors net ~member:m)
  done

let test_net_flood_counts_duplicates () =
  let replicas = Array.init 10 Fun.id in
  let _, net = build ~seed:4 ~replicas ~chords:0 in
  let r = Replica_net.flood net ~online:all_online ~from_peer:0 in
  (* Plain ring: 2 messages per member. *)
  Alcotest.(check int) "2E messages" 20 r.Replica_net.messages;
  Alcotest.(check (float 1e-9)) "dup2 = 2 on a ring" 2.
    (float_of_int r.Replica_net.messages /. float_of_int r.Replica_net.reached)

let test_net_flood_offline_members () =
  let replicas = Array.init 10 Fun.id in
  let _, net = build ~seed:5 ~replicas ~chords:0 in
  (* Two opposite offline members split the ring. *)
  let online p = p <> 3 && p <> 8 in
  let r = Replica_net.flood net ~online ~from_peer:0 in
  Alcotest.(check bool) "partial reach" true (r.Replica_net.reached < 8);
  Alcotest.(check bool) "still reaches some" true (r.Replica_net.reached > 1)

let reference_bfs net ~online ~from_peer =
  (* Independent connectivity oracle: breadth-first search over the
     subnetwork restricted to online members. *)
  match Replica_net.member_of_peer net from_peer with
  | None -> 0
  | Some _ when not (online from_peer) -> 0
  | Some source ->
      let n = Replica_net.size net in
      let visited = Array.make n false in
      visited.(source) <- true;
      let queue = Queue.create () in
      Queue.add source queue;
      let reached = ref 1 in
      while not (Queue.is_empty queue) do
        let m = Queue.pop queue in
        Array.iter
          (fun peer ->
            match Replica_net.member_of_peer net peer with
            | Some m' when (not visited.(m')) && online peer ->
                visited.(m') <- true;
                incr reached;
                Queue.add m' queue
            | _ -> ())
          (Replica_net.neighbors net ~member:m)
      done;
      !reached

let test_net_flood_majority_offline_matches_bfs () =
  (* Fault-tolerance degradation contract: with a majority of the ring
     offline in long runs, ring connectivity breaks and [reached] must
     equal what an independent BFS over online members computes — on a
     bare ring (where the source is trapped in its own online segment)
     and with chords (whose long-range links partially save reach). *)
  let replicas = Array.init 30 (fun i -> 200 + i) in
  (* Offline in runs of three out of every five members: 60% down. *)
  let online p = (p - 200) mod 5 >= 3 in
  let check ~chords =
    let _, net = build ~seed:11 ~replicas ~chords in
    let r = Replica_net.flood net ~online ~from_peer:203 in
    let expected = reference_bfs net ~online ~from_peer:203 in
    Alcotest.(check int)
      (Printf.sprintf "reached matches BFS (chords=%d)" chords)
      expected r.Replica_net.reached;
    expected
  in
  let ring_only = check ~chords:0 in
  let with_chords = check ~chords:3 in
  (* The bare ring strands the source with its sole online segment
     neighbour; chords must reach at least as far. *)
  Alcotest.(check int) "ring segment of two" 2 ring_only;
  Alcotest.(check bool) "chords save reach" true (with_chords >= ring_only);
  (* Sanity: nobody ever exceeds the online population. *)
  let online_total = Array.fold_left (fun a p -> if online p then a + 1 else a) 0 replicas in
  Alcotest.(check bool) "bounded by online members" true (with_chords <= online_total)

let test_net_flood_from_nonmember () =
  let replicas = [| 1; 2; 3 |] in
  let _, net = build ~seed:6 ~replicas ~chords:0 in
  let r = Replica_net.flood net ~online:all_online ~from_peer:77 in
  Alcotest.(check int) "no-op" 0 r.Replica_net.messages

let test_net_singleton () =
  let _, net = build ~seed:7 ~replicas:[| 42 |] ~chords:3 in
  let r = Replica_net.flood net ~online:all_online ~from_peer:42 in
  Alcotest.(check int) "reaches itself" 1 r.Replica_net.reached;
  Alcotest.(check int) "no messages" 0 r.Replica_net.messages

let test_net_validation () =
  let rng = Rng.create ~seed:8 in
  Alcotest.check_raises "empty" (Invalid_argument "Replica_net.build: empty replica set")
    (fun () -> ignore (Replica_net.build rng ~replicas:[||] ~chords:0))

(* Wide subnets end to end, pinned byte for byte: the same run as
     pdht simulate --peers 20000 --keys 500 --repl 200 --duration 120
       --churn weibull:up=600:down=200:shape=0.6
   which builds 200-member replica subnets on the query path and sends
   about 1.1 million replica-flood messages over them while members go
   offline and come back. *)
let test_wide_subnets_match_golden () =
  let scenario =
    {
      Scenario.news_default with
      Scenario.num_peers = 20_000;
      keys = 500;
      duration = 120.;
      churn =
        Scenario.Sessions
          (Result.get_ok (Pdht_dist.Session.of_string "weibull:up=600:down=200:shape=0.6"));
    }
  in
  let options = System.Options.make ~repl:200 ~stor:100 () in
  let strategy = Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options } in
  let report =
    Runner.run_all [ Run_spec.make ~strategy ~options scenario ]
    |> List.hd |> snd |> Run_result.report_exn
  in
  Golden.check "wide_subnet_report.txt" (Format.asprintf "%a@." System.pp_report report)

(* ------------------------------------------------------------------ *)
(* Rumor *)

let test_rumor_reaches_all_online () =
  let replicas = Array.init 30 Fun.id in
  let rng, net = build ~seed:10 ~replicas ~chords:1 in
  let r = Rumor.spread rng ~net ~online:all_online ~origin_peer:0 ~push_fanout:2 ~max_rounds:50 in
  Alcotest.(check int) "everyone informed" 30 r.Rumor.informed;
  Alcotest.(check int) "online count" 30 r.Rumor.online_members;
  Alcotest.(check bool) "few rounds (epidemic)" true (r.Rumor.rounds <= 12)

let test_rumor_skips_offline () =
  let replicas = Array.init 20 Fun.id in
  let rng, net = build ~seed:11 ~replicas ~chords:1 in
  let online p = p < 10 in
  let r = Rumor.spread rng ~net ~online ~origin_peer:0 ~push_fanout:2 ~max_rounds:50 in
  Alcotest.(check int) "only online informed" 10 r.Rumor.informed;
  Alcotest.(check int) "online members" 10 r.Rumor.online_members

let test_rumor_offline_origin () =
  let replicas = Array.init 10 Fun.id in
  let rng, net = build ~seed:12 ~replicas ~chords:1 in
  let online p = p <> 0 in
  let r = Rumor.spread rng ~net ~online ~origin_peer:0 ~push_fanout:2 ~max_rounds:50 in
  Alcotest.(check int) "nothing spreads" 0 r.Rumor.informed;
  Alcotest.(check int) "no messages" 0 r.Rumor.messages

let test_rumor_message_cost_scales () =
  (* Eq. 9 shape: messages grow roughly linearly with the replica count. *)
  let cost n seed =
    let replicas = Array.init n Fun.id in
    let rng, net = build ~seed ~replicas ~chords:1 in
    let r = Rumor.spread rng ~net ~online:all_online ~origin_peer:0 ~push_fanout:2 ~max_rounds:100 in
    r.Rumor.messages
  in
  let small = cost 10 13 in
  let large = cost 80 13 in
  Alcotest.(check bool) "larger nets cost more" true (large > small);
  Alcotest.(check bool) "sub-quadratic" true (large < 64 * small)

let test_rumor_max_rounds_cutoff () =
  let replicas = Array.init 50 Fun.id in
  let rng, net = build ~seed:14 ~replicas ~chords:1 in
  let r = Rumor.spread rng ~net ~online:all_online ~origin_peer:0 ~push_fanout:1 ~max_rounds:1 in
  Alcotest.(check int) "stopped at round 1" 1 r.Rumor.rounds;
  Alcotest.(check bool) "not everyone informed yet" true (r.Rumor.informed < 50)

let test_rumor_validation () =
  let replicas = [| 0; 1 |] in
  let rng, net = build ~seed:15 ~replicas ~chords:0 in
  Alcotest.check_raises "fanout" (Invalid_argument "Rumor.spread: push_fanout must be >= 1")
    (fun () ->
      ignore (Rumor.spread rng ~net ~online:all_online ~origin_peer:0 ~push_fanout:0 ~max_rounds:5))

let test_pull_missed_updates () =
  let replicas = Array.init 10 Fun.id in
  let rng, net = build ~seed:16 ~replicas ~chords:1 in
  let answered, messages = Rumor.pull_missed_updates rng ~net ~online:all_online ~rejoining_peer:3 in
  (match answered with
  | Some p -> Alcotest.(check bool) "answered by another replica" true (p <> 3)
  | None -> Alcotest.fail "expected an answer with everyone online");
  Alcotest.(check bool) "cheap" true (messages <= 4)

let test_pull_alone_offline () =
  let replicas = Array.init 5 Fun.id in
  let rng, net = build ~seed:17 ~replicas ~chords:1 in
  let online p = p = 3 in
  let answered, messages = Rumor.pull_missed_updates rng ~net ~online ~rejoining_peer:3 in
  Alcotest.(check (option int)) "nobody answers" None answered;
  Alcotest.(check bool) "bounded attempts" true (messages <= 10)

let test_pull_nonmember () =
  let replicas = [| 1; 2 |] in
  let rng, net = build ~seed:18 ~replicas ~chords:0 in
  let answered, messages = Rumor.pull_missed_updates rng ~net ~online:all_online ~rejoining_peer:9 in
  Alcotest.(check (option int)) "no-op" None answered;
  Alcotest.(check int) "free" 0 messages

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"flood reach bounded by online members" ~count:60
      (triple (int_range 1 60) (int_range 0 3) small_int)
      (fun (n, chords, seed) ->
        let replicas = Array.init n Fun.id in
        let rng = Rng.create ~seed in
        let net = Replica_net.build rng ~replicas ~chords in
        let online p = p mod 2 = 0 in
        let r = Replica_net.flood net ~online ~from_peer:0 in
        let online_total = (n + 1) / 2 in
        r.Replica_net.reached <= online_total);
    Test.make ~name:"rumor informed never exceeds online members" ~count:60
      (pair (int_range 1 50) small_int)
      (fun (n, seed) ->
        let replicas = Array.init n Fun.id in
        let rng = Rng.create ~seed in
        let net = Replica_net.build rng ~replicas ~chords:1 in
        let online p = p mod 3 <> 0 in
        let r = Rumor.spread rng ~net ~online ~origin_peer:1 ~push_fanout:2 ~max_rounds:30 in
        r.Rumor.informed <= r.Rumor.online_members);
  ]

let () =
  Alcotest.run "pdht_gossip"
    [
      ( "replica-net",
        [
          Alcotest.test_case "membership" `Quick test_net_membership;
          Alcotest.test_case "ring connectivity" `Quick test_net_ring_connectivity;
          Alcotest.test_case "neighbors are members" `Quick test_net_neighbors_are_members;
          Alcotest.test_case "flood counts duplicates" `Quick test_net_flood_counts_duplicates;
          Alcotest.test_case "flood with offline" `Quick test_net_flood_offline_members;
          Alcotest.test_case "majority offline matches reference" `Quick
            test_net_flood_majority_offline_matches_bfs;
          Alcotest.test_case "flood from non-member" `Quick test_net_flood_from_nonmember;
          Alcotest.test_case "singleton" `Quick test_net_singleton;
          Alcotest.test_case "validation" `Quick test_net_validation;
          Alcotest.test_case "wide subnets under churn match golden" `Slow
            test_wide_subnets_match_golden;
        ] );
      ( "rumor",
        [
          Alcotest.test_case "reaches all online" `Quick test_rumor_reaches_all_online;
          Alcotest.test_case "skips offline" `Quick test_rumor_skips_offline;
          Alcotest.test_case "offline origin" `Quick test_rumor_offline_origin;
          Alcotest.test_case "cost scales" `Quick test_rumor_message_cost_scales;
          Alcotest.test_case "max rounds cutoff" `Quick test_rumor_max_rounds_cutoff;
          Alcotest.test_case "validation" `Quick test_rumor_validation;
          Alcotest.test_case "pull missed updates" `Quick test_pull_missed_updates;
          Alcotest.test_case "pull alone" `Quick test_pull_alone_offline;
          Alcotest.test_case "pull non-member" `Quick test_pull_nonmember;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
