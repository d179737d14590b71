(* Tests for Pdht_overlay: topologies, flooding, random walks,
   replication, and the unified unstructured search. *)

module Rng = Pdht_util.Rng
module Topology = Pdht_overlay.Topology
module Flood = Pdht_overlay.Flood
module Random_walk = Pdht_overlay.Random_walk
module Replication = Pdht_overlay.Replication
module Search = Pdht_overlay.Unstructured_search

let all_online _ = true

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_random_graph_shape () =
  let rng = Rng.create ~seed:1 in
  let t = Topology.random_regularish rng ~peers:200 ~degree:4 in
  Alcotest.(check int) "peer count" 200 (Topology.peer_count t);
  Alcotest.(check bool) "mean degree ~ 2x opened" true
    (Topology.mean_degree t >= 6. && Topology.mean_degree t <= 9.);
  for p = 0 to 199 do
    let nbrs = Topology.neighbors t p in
    Array.iter (fun q -> Alcotest.(check bool) "no self loop" true (q <> p)) nbrs;
    let distinct = Array.to_list nbrs |> List.sort_uniq compare in
    Alcotest.(check int) "no duplicate edges" (Array.length nbrs) (List.length distinct)
  done

let test_random_graph_symmetric () =
  let rng = Rng.create ~seed:2 in
  let t = Topology.random_regularish rng ~peers:100 ~degree:3 in
  for p = 0 to 99 do
    Array.iter
      (fun q ->
        let back = Array.exists (fun r -> r = p) (Topology.neighbors t q) in
        Alcotest.(check bool) "undirected" true back)
      (Topology.neighbors t p)
  done

let test_random_graph_connected () =
  let rng = Rng.create ~seed:3 in
  let t = Topology.random_regularish rng ~peers:500 ~degree:4 in
  Alcotest.(check bool) "connected" true (Topology.is_connected t)

let test_barabasi_albert_power_law_head () =
  let rng = Rng.create ~seed:4 in
  let t = Topology.barabasi_albert rng ~peers:500 ~attach:3 in
  Alcotest.(check int) "peer count" 500 (Topology.peer_count t);
  Alcotest.(check bool) "connected" true (Topology.is_connected t);
  (* Preferential attachment produces hubs: max degree far above mean. *)
  let max_deg = ref 0 in
  for p = 0 to 499 do
    max_deg := max !max_deg (Topology.degree t p)
  done;
  Alcotest.(check bool) "has hubs" true
    (float_of_int !max_deg > 3. *. Topology.mean_degree t)

let test_ring_lattice () =
  let t = Topology.ring_lattice ~peers:10 ~k:2 in
  Alcotest.(check bool) "connected" true (Topology.is_connected t);
  for p = 0 to 9 do
    Alcotest.(check int) "regular degree 2k" 4 (Topology.degree t p)
  done;
  Alcotest.(check int) "edges = n*k" 20 (Topology.edge_count t)

let test_topology_validation () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "1 peer" (Invalid_argument "Topology.random_regularish: need >= 2 peers")
    (fun () -> ignore (Topology.random_regularish rng ~peers:1 ~degree:1));
  Alcotest.check_raises "bad attach"
    (Invalid_argument "Topology.barabasi_albert: need peers > attach >= 1") (fun () ->
      ignore (Topology.barabasi_albert rng ~peers:3 ~attach:3))

let test_connected_fraction_with_offline () =
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  (* Cutting two opposite peers splits a plain ring in half. *)
  let online p = p <> 0 && p <> 5 in
  let frac = Topology.connected_fraction_from t ~online 1 in
  Alcotest.(check (float 1e-9)) "half reachable" 0.5 frac;
  Alcotest.(check (float 1e-9)) "offline start" 0.
    (Topology.connected_fraction_from t ~online 0)

let test_watts_strogatz_regimes () =
  let rng = Rng.create ~seed:30 in
  let lattice = Topology.watts_strogatz rng ~peers:100 ~k:2 ~beta:0. in
  (* beta 0 is exactly the ring lattice. *)
  for p = 0 to 99 do
    Alcotest.(check int) "lattice degree" 4 (Topology.degree lattice p)
  done;
  let small_world = Topology.watts_strogatz rng ~peers:200 ~k:3 ~beta:0.1 in
  Alcotest.(check int) "peer count" 200 (Topology.peer_count small_world);
  Alcotest.(check bool) "edges conserved by rewiring" true
    (Topology.edge_count small_world <= 600);
  (* Rewiring shortens paths: a TTL-5 flood reaches further than on the
     pure lattice of the same size. *)
  let reach t =
    (Flood.search t ~online:all_online ~holds:(fun _ -> false) ~source:0 ~ttl:5)
      .Flood.peers_reached
  in
  let lattice200 = Topology.ring_lattice ~peers:200 ~k:3 in
  Alcotest.(check bool) "small world floods further" true
    (reach small_world > reach lattice200)

let test_watts_strogatz_validation () =
  let rng = Rng.create ~seed:31 in
  Alcotest.check_raises "beta range"
    (Invalid_argument "Topology.watts_strogatz: beta outside [0,1]") (fun () ->
      ignore (Topology.watts_strogatz rng ~peers:10 ~k:2 ~beta:1.5))

(* ------------------------------------------------------------------ *)
(* Expanding ring *)

module Expanding_ring = Pdht_overlay.Expanding_ring

let test_expanding_ring_finds_close_items_cheaply () =
  let t = Topology.ring_lattice ~peers:100 ~k:2 in
  (* Item two hops away: found in the first or second ring, far cheaper
     than the full flood. *)
  let r =
    Expanding_ring.search t ~online:all_online ~holds:(fun p -> p = 4) ~source:0
      ~initial_ttl:1 ~growth:1 ~max_ttl:50
  in
  Alcotest.(check (option int)) "found" (Some 4) r.Expanding_ring.found_at;
  Alcotest.(check bool) "few rings" true (r.Expanding_ring.rings <= 2);
  let full = Flood.search t ~online:all_online ~holds:(fun _ -> false) ~source:0 ~ttl:50 in
  Alcotest.(check bool) "cheaper than full flood" true
    (r.Expanding_ring.messages < full.Flood.messages)

let test_expanding_ring_gives_up_at_max_ttl () =
  let t = Topology.ring_lattice ~peers:50 ~k:1 in
  let r =
    Expanding_ring.search t ~online:all_online ~holds:(fun _ -> false) ~source:0
      ~initial_ttl:1 ~growth:2 ~max_ttl:5
  in
  Alcotest.(check (option int)) "not found" None r.Expanding_ring.found_at;
  Alcotest.(check int) "stopped at max ttl" 5 r.Expanding_ring.final_ttl

let test_expanding_ring_stops_when_component_covered () =
  (* 10-peer ring fully covered by TTL 5; growth must stop early even
     though max_ttl is huge. *)
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  let r =
    Expanding_ring.search t ~online:all_online ~holds:(fun _ -> false) ~source:0
      ~initial_ttl:4 ~growth:1 ~max_ttl:1000
  in
  Alcotest.(check bool) "stopped long before max_ttl" true (r.Expanding_ring.final_ttl < 10)

let test_expanding_ring_validation () =
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  Alcotest.check_raises "ttl order"
    (Invalid_argument "Expanding_ring.search: max_ttl < initial_ttl") (fun () ->
      ignore
        (Expanding_ring.search t ~online:all_online ~holds:(fun _ -> false) ~source:0
           ~initial_ttl:5 ~growth:1 ~max_ttl:2))

(* ------------------------------------------------------------------ *)
(* Flood *)

let test_flood_reaches_connected_component () =
  let rng = Rng.create ~seed:6 in
  let t = Topology.random_regularish rng ~peers:100 ~degree:4 in
  let r = Flood.search t ~online:all_online ~holds:(fun _ -> false) ~source:0 ~ttl:100 in
  Alcotest.(check int) "reaches everyone" 100 r.Flood.peers_reached;
  Alcotest.(check (option int)) "no holder found" None r.Flood.found_at

let test_flood_finds_holder () =
  let t = Topology.ring_lattice ~peers:20 ~k:1 in
  let r = Flood.search t ~online:all_online ~holds:(fun p -> p = 5) ~source:0 ~ttl:100 in
  Alcotest.(check (option int)) "found" (Some 5) r.Flood.found_at;
  Alcotest.(check (option int)) "at BFS depth 5" (Some 5) r.Flood.hops_to_hit

let test_flood_ttl_limits_reach () =
  let t = Topology.ring_lattice ~peers:20 ~k:1 in
  let r = Flood.search t ~online:all_online ~holds:(fun _ -> false) ~source:0 ~ttl:3 in
  (* Ring: ttl 3 reaches 3 peers in each direction plus the source. *)
  Alcotest.(check int) "bounded reach" 7 r.Flood.peers_reached

let test_flood_message_count_ring () =
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  let r = Flood.search t ~online:all_online ~holds:(fun _ -> false) ~source:0 ~ttl:100 in
  (* Every peer forwards to both neighbors except where the message
     came from; total = 2 * edges = 20 messages on a full ring flood. *)
  Alcotest.(check int) "2E messages" 20 r.Flood.messages;
  Alcotest.(check (float 1e-9)) "dup factor" 2. (Flood.duplication_factor r)

let test_flood_offline_source () =
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  let r = Flood.search t ~online:(fun p -> p <> 0) ~holds:(fun _ -> true) ~source:0 ~ttl:5 in
  Alcotest.(check int) "nothing happens" 0 r.Flood.messages;
  Alcotest.(check (option int)) "no result" None r.Flood.found_at

let test_flood_routes_around_offline () =
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  (* Peer 1 offline: the flood must go the other way around. *)
  let online p = p <> 1 in
  let r = Flood.search t ~online ~holds:(fun p -> p = 2) ~source:0 ~ttl:100 in
  Alcotest.(check (option int)) "found the long way" (Some 2) r.Flood.found_at;
  Alcotest.(check (option int)) "depth 8 around the ring" (Some 8) r.Flood.hops_to_hit

(* ------------------------------------------------------------------ *)
(* Random walks *)

let test_walk_finds_common_item () =
  let rng = Rng.create ~seed:7 in
  let t = Topology.random_regularish rng ~peers:200 ~degree:4 in
  (* 10% of peers hold the item: walks find it fast. *)
  let holders = Array.init 20 (fun i -> 10 * i) in
  let r =
    Random_walk.search t rng ~online:all_online ~holders ~source:1 ~walkers:8
      ~max_steps:1000 ~check_every:4
  in
  Alcotest.(check bool) "found" true (r.Random_walk.found_at <> None);
  Alcotest.(check bool) "cheaper than flooding" true (r.Random_walk.messages < 800)

let test_walk_gives_up () =
  let rng = Rng.create ~seed:8 in
  let t = Topology.random_regularish rng ~peers:50 ~degree:3 in
  let r =
    Random_walk.search t rng ~online:all_online ~holders:[||] ~source:0
      ~walkers:4 ~max_steps:20 ~check_every:4
  in
  Alcotest.(check (option int)) "not found" None r.Random_walk.found_at;
  Alcotest.(check bool) "bounded work" true (r.Random_walk.steps_taken <= 4 * 20)

let test_walk_source_holds () =
  let rng = Rng.create ~seed:9 in
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  let r =
    Random_walk.search t rng ~online:all_online ~holders:[| 3 |] ~source:3
      ~walkers:4 ~max_steps:100 ~check_every:4
  in
  Alcotest.(check (option int)) "immediate hit" (Some 3) r.Random_walk.found_at;
  Alcotest.(check int) "free" 0 r.Random_walk.messages

let test_walk_offline_source () =
  let rng = Rng.create ~seed:10 in
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  let r =
    Random_walk.search t rng ~online:(fun p -> p <> 0) ~holders:(Array.init 10 Fun.id)
      ~source:0 ~walkers:4 ~max_steps:100 ~check_every:4
  in
  Alcotest.(check int) "no work" 0 r.Random_walk.messages

let test_walk_validation () =
  let rng = Rng.create ~seed:11 in
  let t = Topology.ring_lattice ~peers:10 ~k:1 in
  Alcotest.check_raises "walkers" (Invalid_argument "Random_walk.search: walkers must be >= 1")
    (fun () ->
      ignore
        (Random_walk.search t rng ~online:all_online ~holders:[||] ~source:0
           ~walkers:0 ~max_steps:10 ~check_every:4));
  List.iter
    (fun online ->
      Alcotest.check_raises "holder out of range"
        (Invalid_argument "Random_walk.search: holder out of range") (fun () ->
          ignore
            (Random_walk.search t rng ~online ~holders:[| 2; 10 |] ~source:0 ~walkers:1
               ~max_steps:10 ~check_every:4)))
    [ all_online; (fun p -> p <> 0) ]

(* Every offline peer holds the item and no online peer does: a walk
   that stepped onto an offline peer would find it, or count it as
   visited. *)
let test_walk_respects_offline_peers () =
  let t = Topology.ring_lattice ~peers:20 ~k:2 in
  let offline p = p >= 10 in
  let holders = Array.init 10 (fun i -> 10 + i) in
  for seed = 1 to 20 do
    let rng = Rng.create ~seed in
    let r =
      Random_walk.search t rng ~online:(fun p -> not (offline p)) ~holders ~source:0
        ~walkers:4 ~max_steps:50 ~check_every:4
    in
    Alcotest.(check (option int)) "no offline holder found" None r.Random_walk.found_at;
    Alcotest.(check bool) "visits online peers only" true (r.Random_walk.distinct_visited <= 10)
  done

(* ------------------------------------------------------------------ *)
(* Replication *)

let test_replication_place_and_hold () =
  let rng = Rng.create ~seed:13 in
  let r = Replication.create ~peers:100 in
  Replication.place r rng ~item:7 ~repl:10;
  let reps = Replication.replicas r ~item:7 in
  Alcotest.(check int) "10 replicas" 10 (Array.length reps);
  Array.iter
    (fun p -> Alcotest.(check bool) "holds" true (Replication.holds r ~peer:p ~item:7))
    reps;
  Alcotest.(check int) "factor" 10 (Replication.replication_factor r ~item:7)

let test_replication_replaces_previous () =
  let rng = Rng.create ~seed:14 in
  let r = Replication.create ~peers:50 in
  Replication.place r rng ~item:1 ~repl:5;
  Replication.place r rng ~item:1 ~repl:5;
  Alcotest.(check int) "still 5" 5 (Array.length (Replication.replicas r ~item:1));
  (* Old placement fully removed: total holders is exactly 5. *)
  let holders = ref 0 in
  for p = 0 to 49 do
    if Replication.holds r ~peer:p ~item:1 then incr holders
  done;
  Alcotest.(check int) "no stale holders" 5 !holders

let test_replication_remove () =
  let rng = Rng.create ~seed:15 in
  let r = Replication.create ~peers:50 in
  Replication.place r rng ~item:2 ~repl:5;
  Replication.remove r ~item:2;
  Alcotest.(check int) "gone" 0 (Array.length (Replication.replicas r ~item:2))

let test_replication_repl_capped_at_peers () =
  let rng = Rng.create ~seed:16 in
  let r = Replication.create ~peers:5 in
  Replication.place r rng ~item:0 ~repl:50;
  Alcotest.(check int) "capped" 5 (Array.length (Replication.replicas r ~item:0))

let test_replication_items_at () =
  let r = Replication.create ~peers:10 in
  Replication.place_on r ~item:1 ~replicas:[| 3; 4 |];
  Replication.place_on r ~item:2 ~replicas:[| 3 |];
  Alcotest.(check (list int)) "items at 3" [ 1; 2 ] (Replication.items_at r ~peer:3);
  Alcotest.(check (list int)) "items at 4" [ 1 ] (Replication.items_at r ~peer:4);
  (* A peer outside the population is refused before the sampler's
     bitmaps are touched, and the placement stays as it was. *)
  Alcotest.check_raises "bad peer" (Invalid_argument "Sampling.sorted_distinct: out of range")
    (fun () -> Replication.place_on r ~item:1 ~replicas:[| 5; 10 |]);
  Replication.place_on r ~item:2 ~replicas:[| 9; 3; 9 |];
  Alcotest.(check (list int)) "items at 3 after" [ 1; 2 ] (Replication.items_at r ~peer:3);
  Alcotest.(check (list int)) "items at 5" [] (Replication.items_at r ~peer:5)

let test_replication_availability () =
  let r = Replication.create ~peers:10 in
  Replication.place_on r ~item:1 ~replicas:[| 0; 1; 2; 3 |];
  let online p = p < 2 in
  Alcotest.(check (float 1e-9)) "half online" 0.5
    (Replication.availability r ~online ~item:1);
  Alcotest.(check (float 1e-9)) "unplaced item" 0.
    (Replication.availability r ~online ~item:99)

(* ------------------------------------------------------------------ *)
(* Unified search *)

let build_search ~seed ~peers ~repl ~strategy =
  let rng = Rng.create ~seed in
  let topology = Topology.random_regularish rng ~peers ~degree:4 in
  let replication = Replication.create ~peers in
  for item = 0 to 19 do
    Replication.place replication rng ~item ~repl
  done;
  (rng, Search.create ~topology ~replication ~strategy)

let test_search_walks_find () =
  let rng, s =
    build_search ~seed:18 ~peers:200 ~repl:20
      ~strategy:{ Search.walkers = 8; max_steps = 400; check_every = 4 }
  in
  let found = ref 0 in
  for item = 0 to 19 do
    let o = Search.search s rng ~online:all_online ~source:(item * 3) ~item in
    if o.Search.found then incr found;
    match o.Search.provider with
    | Some p ->
        Alcotest.(check bool) "provider holds item" true
          (Replication.holds (Search.replication s) ~peer:p ~item)
    | None -> ()
  done;
  Alcotest.(check int) "all found" 20 !found

let test_search_cost_scales_with_replication () =
  (* More replicas, cheaper unstructured search (Eq. 6 intuition). *)
  let cost ~repl ~seed =
    let rng, s =
      build_search ~seed ~peers:300 ~repl
        ~strategy:{ Search.walkers = 8; max_steps = 1000; check_every = 4 }
    in
    let total = ref 0 in
    for item = 0 to 19 do
      let o = Search.search s rng ~online:all_online ~source:item ~item in
      total := !total + o.Search.messages
    done;
    float_of_int !total /. 20.
  in
  let sparse = cost ~repl:3 ~seed:19 in
  let dense = cost ~repl:60 ~seed:19 in
  Alcotest.(check bool)
    (Printf.sprintf "dense (%.0f) cheaper than sparse (%.0f)" dense sparse)
    true (dense < sparse)

let test_search_unplaced_item_not_found () =
  (* An item with no replicas: every walker runs out its budget and the
     front end reports a miss with no provider, still counting the cost. *)
  let rng, s =
    build_search ~seed:21 ~peers:100 ~repl:10
      ~strategy:{ Search.walkers = 4; max_steps = 50; check_every = 5 }
  in
  let o = Search.search s rng ~online:all_online ~source:0 ~item:99 in
  Alcotest.(check bool) "not found" false o.Search.found;
  Alcotest.(check (option int)) "no provider" None o.Search.provider;
  Alcotest.(check bool) "walk steps counted" true (o.Search.messages >= 4 * 50);
  Alcotest.(check int) "ran the whole budget" 50 o.Search.rounds

let test_search_mismatched_sizes_rejected () =
  let topology = Topology.ring_lattice ~peers:10 ~k:1 in
  let replication = Replication.create ~peers:11 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument
       "Unstructured_search.create: topology and replication disagree on peer count")
    (fun () ->
      ignore
        (Search.create ~topology ~replication
           ~strategy:{ Search.walkers = 1; max_steps = 2; check_every = 1 }))

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"flood never exceeds 2E messages" ~count:50
      (pair (int_range 10 80) small_int)
      (fun (peers, seed) ->
        let rng = Rng.create ~seed in
        let t = Topology.random_regularish rng ~peers ~degree:3 in
        let r = Flood.search t ~online:all_online ~holds:(fun _ -> false) ~source:0 ~ttl:peers in
        r.Flood.messages <= 2 * Topology.edge_count t);
    Test.make ~name:"flood reach monotone in ttl" ~count:50
      (pair (int_range 10 60) small_int)
      (fun (peers, seed) ->
        let rng = Rng.create ~seed in
        let t = Topology.random_regularish rng ~peers ~degree:3 in
        let reach ttl =
          (Flood.search t ~online:all_online ~holds:(fun _ -> false) ~source:0 ~ttl)
            .Flood.peers_reached
        in
        reach 1 <= reach 2 && reach 2 <= reach 4 && reach 4 <= reach peers);
    Test.make ~name:"replication places exactly min(repl,peers) distinct" ~count:100
      (triple (int_range 1 50) (int_range 1 80) small_int)
      (fun (repl, peers, seed) ->
        let rng = Rng.create ~seed in
        let r = Replication.create ~peers in
        Replication.place r rng ~item:0 ~repl;
        Array.length (Replication.replicas r ~item:0) = min repl peers);
    (* Long lists with many repeats drive [place_on]'s quicksort path,
       not only its insertion-sort runs. *)
    Test.make ~name:"place_on keeps the sorted distinct set" ~count:200
      (pair (int_range 1 400) (list_of_size Gen.(int_range 0 600) (int_bound 399)))
      (fun (peers, ps) ->
        let ps = List.map (fun p -> p mod peers) ps in
        let r = Replication.create ~peers in
        Replication.place_on r ~item:0 ~replicas:(Array.of_list ps);
        Replication.replicas r ~item:0 = Array.of_list (List.sort_uniq compare ps));
    (* Scratch reuse must be observationally invisible: a single scratch
       threaded through a whole sequence of searches (so it carries
       stamps, frontier contents and walker positions from previous
       calls) returns exactly what fresh per-call allocation returns.
       Holds/online predicates vary per query to exercise stale state. *)
    Test.make ~name:"flood: shared scratch == fresh allocation" ~count:50
      (triple (int_range 10 80) (int_range 1 10) small_int)
      (fun (peers, ttl, seed) ->
        let rng = Rng.create ~seed in
        let t = Topology.random_regularish rng ~peers ~degree:3 in
        let online p = (p * 7) mod 13 <> seed mod 13 in
        let scratch = Pdht_overlay.Scratch.create () in
        List.for_all
          (fun q ->
            let holds p = p mod (q + 2) = 0 in
            let source = q * 3 mod peers in
            Flood.search ~scratch t ~online ~holds ~source ~ttl
            = Flood.search t ~online ~holds ~source ~ttl)
          [ 0; 1; 2; 3; 4 ]);
    Test.make ~name:"expanding ring: shared scratch == fresh allocation" ~count:50
      (triple (int_range 10 60) (int_range 2 8) small_int)
      (fun (peers, max_ttl, seed) ->
        let rng = Rng.create ~seed in
        let t = Topology.random_regularish rng ~peers ~degree:3 in
        let online p = (p * 5) mod 11 <> seed mod 11 in
        let scratch = Pdht_overlay.Scratch.create () in
        List.for_all
          (fun q ->
            let holds p = p mod (q + 3) = 1 in
            let source = q * 5 mod peers in
            Expanding_ring.search ~scratch t ~online ~holds ~source ~initial_ttl:1
              ~growth:1 ~max_ttl
            = Expanding_ring.search t ~online ~holds ~source ~initial_ttl:1 ~growth:1
                ~max_ttl)
          [ 0; 1; 2; 3; 4 ]);
    Test.make ~name:"random walk: shared scratch == fresh (same RNG stream)" ~count:50
      (triple (int_range 10 60) (int_range 1 8) small_int)
      (fun (peers, walkers, seed) ->
        let rng = Rng.create ~seed in
        let t = Topology.random_regularish rng ~peers ~degree:3 in
        let online p = (p * 3) mod 7 <> seed mod 7 in
        let scratch = Pdht_overlay.Scratch.create () in
        List.for_all
          (fun q ->
            let holders =
              Array.of_list (List.filter (fun p -> p mod (q + 4) = 2) (List.init peers Fun.id))
            in
            let source = q * 7 mod peers in
            (* Identical RNG state for both runs: equality covers the
               draw sequence, not just the aggregate result. *)
            let r1 = Rng.copy rng in
            let r2 = Rng.copy rng in
            ignore (Rng.bits64 rng);
            Random_walk.search ~scratch t r1 ~online ~holders ~source ~walkers
              ~max_steps:50 ~check_every:4
            = Random_walk.search t r2 ~online ~holders ~source ~walkers ~max_steps:50
                ~check_every:4
            && Rng.bits64 r1 = Rng.bits64 r2)
          [ 0; 1; 2; 3; 4 ]);
  ]

let () =
  Alcotest.run "pdht_overlay"
    [
      ( "topology",
        [
          Alcotest.test_case "random graph shape" `Quick test_random_graph_shape;
          Alcotest.test_case "symmetric adjacency" `Quick test_random_graph_symmetric;
          Alcotest.test_case "connected" `Quick test_random_graph_connected;
          Alcotest.test_case "barabasi-albert hubs" `Quick test_barabasi_albert_power_law_head;
          Alcotest.test_case "ring lattice" `Quick test_ring_lattice;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "connected fraction offline" `Quick test_connected_fraction_with_offline;
          Alcotest.test_case "watts-strogatz regimes" `Quick test_watts_strogatz_regimes;
          Alcotest.test_case "watts-strogatz validation" `Quick test_watts_strogatz_validation;
        ] );
      ( "expanding-ring",
        [
          Alcotest.test_case "close items cheap" `Quick test_expanding_ring_finds_close_items_cheaply;
          Alcotest.test_case "gives up at max ttl" `Quick test_expanding_ring_gives_up_at_max_ttl;
          Alcotest.test_case "stops when covered" `Quick test_expanding_ring_stops_when_component_covered;
          Alcotest.test_case "validation" `Quick test_expanding_ring_validation;
        ] );
      ( "flood",
        [
          Alcotest.test_case "reaches component" `Quick test_flood_reaches_connected_component;
          Alcotest.test_case "finds holder" `Quick test_flood_finds_holder;
          Alcotest.test_case "ttl limits reach" `Quick test_flood_ttl_limits_reach;
          Alcotest.test_case "message count on ring" `Quick test_flood_message_count_ring;
          Alcotest.test_case "offline source" `Quick test_flood_offline_source;
          Alcotest.test_case "routes around offline" `Quick test_flood_routes_around_offline;
        ] );
      ( "random-walk",
        [
          Alcotest.test_case "finds common item" `Quick test_walk_finds_common_item;
          Alcotest.test_case "gives up at budget" `Quick test_walk_gives_up;
          Alcotest.test_case "source holds" `Quick test_walk_source_holds;
          Alcotest.test_case "offline source" `Quick test_walk_offline_source;
          Alcotest.test_case "validation" `Quick test_walk_validation;
          Alcotest.test_case "respects offline" `Quick test_walk_respects_offline_peers;
        ] );
      ( "replication",
        [
          Alcotest.test_case "place and hold" `Quick test_replication_place_and_hold;
          Alcotest.test_case "replaces previous" `Quick test_replication_replaces_previous;
          Alcotest.test_case "remove" `Quick test_replication_remove;
          Alcotest.test_case "repl capped" `Quick test_replication_repl_capped_at_peers;
          Alcotest.test_case "items_at" `Quick test_replication_items_at;
          Alcotest.test_case "availability" `Quick test_replication_availability;
        ] );
      ( "search",
        [
          Alcotest.test_case "walks find" `Quick test_search_walks_find;
          Alcotest.test_case "cost vs replication" `Quick test_search_cost_scales_with_replication;
          Alcotest.test_case "size mismatch rejected" `Quick test_search_mismatched_sizes_rejected;
          Alcotest.test_case "unplaced item not found" `Quick test_search_unplaced_item_not_found;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
