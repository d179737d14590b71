(* Scale-representation tests: the flat/SoA refactors (open-addressed
   storage, trie-walking Kademlia, CSR topology, compact replication,
   streaming workloads) must be invisible in behaviour.  Three angles:

   - the representation battery (nine simulated arms across backends,
     strategies, churn and a small cache) is pinned byte-for-byte
     against a golden rendering generated before the refactors;
   - the battery is byte-identical across runner -j values;
   - the rewritten substrates match brute-force reference models on
     random operation sequences. *)

module Rng = Pdht_util.Rng
module Bitkey = Pdht_util.Bitkey
module Storage = Pdht_dht.Storage
module Kademlia = Pdht_dht.Kademlia
module Replica_net = Pdht_gossip.Replica_net
module Topology = Pdht_overlay.Topology
module Replication = Pdht_overlay.Replication
module Experiment = Pdht_core.Experiment

(* Render once; the golden diff and the -j equality both read it. *)
let battery_j1 = lazy (Experiment.render_reports (Experiment.representation_battery ~jobs:1 ()))

let test_battery_matches_golden () =
  Golden.check "representation_reports.txt" (Lazy.force battery_j1)

(* Set-up builds the same key ids, placements, overlay and next draw. *)
let test_setup_state_matches_golden () =
  Golden.check "setup_state.txt" (Experiment.render_setup_state ())

let test_battery_jobs_invariant () =
  let j4 = Experiment.render_reports (Experiment.representation_battery ~jobs:4 ()) in
  Alcotest.(check bool) "-j1 == -j4 battery rendering" true
    (String.equal (Lazy.force battery_j1) j4)

(* ------------------------------------------------------------------ *)
(* Storage vs a reference model.

   The model is an association list mirroring the documented semantics:
   expiry instants, reads that leave expired entries in place, puts
   that drop them first.  Capacity is kept above the live key
   count so no eviction fires — victim identity is the eviction
   property's job below; here we check the bookkeeping the
   open-addressed table must get right (probe sequences, backward-shift
   deletion, in-place expiry). *)

(* Each timed op carries a clock *increment*: simulated time is
   monotone, and the lazy purge only matches the model under a monotone
   clock (a physically present but expired entry must never be observed
   again at an earlier time). *)
type op =
  | Put of int * float * float (* key, dt, ttl *)
  | Get of int * float
  | Refresh of int * float * float
  | Mem of int * float
  | Remove of int
  | Expire of float
  | Live_count of float
  | Live_keys of float
  | Clear

let op_gen =
  let open QCheck.Gen in
  let key = int_bound 40 in
  let dt = map (fun t -> float_of_int t /. 4.) (int_bound 40) in
  let ttl = map (fun t -> 1. +. (float_of_int t /. 8.)) (int_bound 200) in
  frequency
    [
      (6, map3 (fun k n t -> Put (k, n, t)) key dt ttl);
      (4, map2 (fun k n -> Get (k, n)) key dt);
      (2, map3 (fun k n t -> Refresh (k, n, t)) key dt ttl);
      (2, map2 (fun k n -> Mem (k, n)) key dt);
      (2, map (fun k -> Remove k) key);
      (2, map (fun n -> Expire n) dt);
      (1, map (fun n -> Live_count n) dt);
      (2, map (fun n -> Live_keys n) dt);
      (1, return Clear);
    ]

let op_print = function
  | Put (k, n, t) -> Printf.sprintf "Put(%d,+%g,%g)" k n t
  | Get (k, n) -> Printf.sprintf "Get(%d,+%g)" k n
  | Refresh (k, n, t) -> Printf.sprintf "Refresh(%d,+%g,%g)" k n t
  | Mem (k, n) -> Printf.sprintf "Mem(%d,+%g)" k n
  | Remove k -> Printf.sprintf "Remove(%d)" k
  | Expire n -> Printf.sprintf "Expire(+%g)" n
  | Live_count n -> Printf.sprintf "LiveCount(+%g)" n
  | Live_keys n -> Printf.sprintf "LiveKeys(+%g)" n
  | Clear -> "Clear"

(* model: (key, (value, expiry)) assoc, insertion order irrelevant.
   It mirrors the store's *physical* contents: [put], [expire] and
   [live_count] sweep every expired entry, and reads purge nothing. *)
let model_purge model now = List.filter (fun (_, (_, e)) -> e > now) model

let model_live model k now =
  match List.assoc_opt k model with Some (v, e) when e > now -> Some v | _ -> None

let storage_model_test =
  QCheck.Test.make ~name:"storage matches reference model" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 120) (make ~print:op_print op_gen))
    (fun ops ->
      let store = Storage.create ~capacity:64 () in
      let model = ref [] in
      let clock = ref 0. in
      let ok = ref true in
      let check b = if not b then ok := false in
      let tick dt =
        clock := !clock +. dt;
        !clock
      in
      (* [iter_live] yields exactly the model's live keys and leaves
         the physical contents — every key's expiry, live or not — as
         the model has them. *)
      let live_keys now =
        let physical () = List.init 41 (fun k -> Storage.expiry store ~key:(Bitkey.of_int k)) in
        let before = physical () in
        let got = ref [] in
        Storage.iter_live store ~now (fun k -> got := Bitkey.to_int k :: !got);
        let want = List.filter_map (fun (k, (_, e)) -> if e > now then Some k else None) !model in
        check (List.sort compare !got = List.sort compare want);
        check (before = List.init 41 (fun k -> Option.map snd (List.assoc_opt k !model)));
        check (physical () = before)
      in
      List.iter
        (fun op ->
          match op with
          | Put (k, dt, ttl) ->
              let now = tick dt in
              Storage.put store ~key:(Bitkey.of_int k) ~value:k ~now ~ttl;
              model := (k, (k, now +. ttl)) :: List.remove_assoc k (model_purge !model now)
          | Get (k, dt) ->
              let now = tick dt in
              let got = Storage.get store ~key:(Bitkey.of_int k) ~now in
              check (got = model_live !model k now)
          | Refresh (k, dt, ttl) -> (
              let now = tick dt in
              let got = Storage.get_and_refresh store ~key:(Bitkey.of_int k) ~now ~ttl in
              match model_live !model k now with
              | Some v ->
                  model := (k, (v, now +. ttl)) :: List.remove_assoc k !model;
                  check (got = Some v)
              | None -> check (got = None))
          | Mem (k, dt) ->
              let now = tick dt in
              let got = Storage.peek store ~key:(Bitkey.of_int k) ~now <> None in
              check (got = (model_live !model k now <> None))
          | Remove k ->
              Storage.remove store ~key:(Bitkey.of_int k);
              model := List.remove_assoc k !model
          | Expire dt ->
              let now = tick dt in
              let evicted = Storage.expire store ~now in
              let purged = model_purge !model now in
              check (evicted = List.length !model - List.length purged);
              model := purged
          | Live_count dt ->
              let now = tick dt in
              let got = Storage.live_count store ~now in
              model := model_purge !model now;
              check (got = List.length !model)
          | Live_keys dt -> live_keys (tick dt)
          | Clear ->
              let n = Storage.clear store ~now:!clock in
              check (n = List.length (model_purge !model !clock));
              model := [])
        ops;
      live_keys !clock;
      !ok)

let storage_capacity_test =
  QCheck.Test.make ~name:"storage never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 1 200) small_nat))
    (fun (capacity, keys) ->
      let store = Storage.create ~capacity () in
      List.iteri
        (fun i k -> Storage.put store ~key:(Bitkey.of_int k) ~value:i ~now:0. ~ttl:1_000.)
        keys;
      Storage.live_count store ~now:0. <= capacity)

(* Victim identity under pressure: a small store (4-8 entries) over 16
   keys, driven by puts and refreshes on a monotone clock.  Before and
   after every put, [expiry] (which sees entries whether live or not,
   and purges nothing) snapshots the physical contents.  No expired
   entry may survive a put.  A live entry goes only when the put's key
   is not live and the store holds [capacity] live entries: then
   exactly one goes, one whose expiry is <= every survivor's. *)
let storage_eviction_test =
  let op =
    QCheck.Gen.(
      triple bool (int_bound 15)
        (pair (map (fun t -> float_of_int t /. 4.) (int_bound 12))
           (map (fun t -> 1. +. float_of_int t) (int_bound 24))))
  in
  let print (put, k, (dt, ttl)) =
    Printf.sprintf "%s(%d,+%g,%g)" (if put then "Put" else "Refresh") k dt ttl
  in
  QCheck.Test.make ~name:"storage evicts the soonest expiry" ~count:300
    QCheck.(pair (int_range 4 8) (list_of_size Gen.(int_range 1 150) (make ~print op)))
    (fun (capacity, ops) ->
      let store = Storage.create ~capacity () in
      let snapshot () =
        List.filter_map
          (fun k -> Option.map (fun e -> (k, e)) (Storage.expiry store ~key:(Bitkey.of_int k)))
          (List.init 16 Fun.id)
      in
      let clock = ref 0. in
      List.for_all
        (fun (put, k, (dt, ttl)) ->
          clock := !clock +. dt;
          let now = !clock in
          let key = Bitkey.of_int k in
          if not put then begin
            ignore (Storage.get_and_refresh store ~key ~now ~ttl);
            true
          end
          else begin
            let before = snapshot () in
            Storage.put store ~key ~value:k ~now ~ttl;
            let after = snapshot () in
            let live = List.filter (fun (_, e) -> e > now) before in
            let evicted = List.filter (fun (k', _) -> not (List.mem_assoc k' after)) live in
            List.for_all (fun (_, e) -> e > now) after
            &&
            if List.mem_assoc k live || List.length live < capacity then evicted = []
            else
              match evicted with
              | [ (_, victim) ] -> List.for_all (fun (k', e) -> k' = k || victim <= e) after
              | _ -> false
          end)
        ops)

(* Slot-exact differential check against [Storage_ref], a copy of the
   store as it was when it found its victim by a strict-< scan in slot
   order, verbatim but for the rule that reads leave expired entries in
   place and every put drops them first.  The eviction property above
   accepts any victim tied on expiry; this one pins the exact one, and
   the physical slot order after every step (read through
   [iter_live ~now:neg_infinity], which yields every stored key,
   expired or not).  Capacities 1-12 over 24
   keys cross the [grow] thresholds; [dt = 0] steps and the 1e15
   ([forever]) regimes make expiry ties common, and the two-lease
   regime (a short and a long TTL, as the cost policy's [ttl_out] and
   [ttl_in]) keeps linking entries mid-list. *)
let storage_ref_test =
  let forever = 1e15 in
  let case =
    let open QCheck.Gen in
    let* capacity = int_range 1 12 in
    let* regime = int_bound 3 in
    let finite = map (fun t -> 1. +. (float_of_int t /. 4.)) (int_bound 40) in
    let ttl =
      match regime with
      | 0 -> finite
      | 1 -> frequency [ (1, finite); (1, return forever) ]
      | 2 -> frequency [ (1, return 2.); (1, return 9.) ]
      | _ -> return forever
    in
    let key = int_bound 23 in
    let dt =
      frequency [ (3, return 0.); (2, map (fun t -> float_of_int t /. 4.) (int_range 1 12)) ]
    in
    let op =
      frequency
        [
          (8, map3 (fun k n t -> Put (k, n, t)) key dt ttl);
          (2, map2 (fun k n -> Get (k, n)) key dt);
          (4, map3 (fun k n t -> Refresh (k, n, t)) key dt ttl);
          (2, map2 (fun k n -> Mem (k, n)) key dt);
          (1, map (fun k -> Remove k) key);
          (1, map (fun n -> Expire n) dt);
          (1, map (fun n -> Live_count n) dt);
          (1, map (fun n -> Live_keys n) dt);
          (1, return Clear);
        ]
    in
    let+ ops = list_size (int_range 1 300) op in
    (capacity, ops)
  in
  let print (capacity, ops) =
    Printf.sprintf "capacity %d: %s" capacity (String.concat " " (List.map op_print ops))
  in
  QCheck.Test.make ~name:"storage matches the slot-scan reference" ~count:400
    (QCheck.make ~print case) (fun (capacity, ops) ->
      let store = Storage.create ~capacity () in
      let reference = Storage_ref.create ~capacity () in
      let clock = ref 0. and step = ref 0 in
      let tick dt =
        clock := !clock +. dt;
        !clock
      in
      let slot_order iter s ~now =
        let got = ref [] in
        iter s ~now (fun k -> got := Bitkey.to_int k :: !got);
        !got
      in
      let same_contents () =
        List.for_all
          (fun k ->
            let key = Bitkey.of_int k in
            Storage.expiry store ~key = Storage_ref.expiry reference ~key)
          (List.init 24 Fun.id)
        && slot_order Storage.iter_live store ~now:neg_infinity
           = slot_order Storage_ref.iter_live reference ~now:neg_infinity
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Put (k, dt, ttl) ->
                let now = tick dt and key = Bitkey.of_int k in
                incr step;
                Storage.put store ~key ~value:!step ~now ~ttl;
                Storage_ref.put reference ~key ~value:!step ~now ~ttl;
                true
            | Get (k, dt) ->
                let now = tick dt and key = Bitkey.of_int k in
                Storage.get store ~key ~now = Storage_ref.get reference ~key ~now
            | Refresh (k, dt, ttl) ->
                let now = tick dt and key = Bitkey.of_int k in
                Storage.get_and_refresh store ~key ~now ~ttl
                = Storage_ref.get_and_refresh reference ~key ~now ~ttl
            | Mem (k, dt) ->
                let now = tick dt and key = Bitkey.of_int k in
                Storage.peek store ~key ~now = Storage_ref.peek reference ~key ~now
            | Remove k ->
                let key = Bitkey.of_int k in
                Storage.remove store ~key;
                Storage_ref.remove reference ~key;
                true
            | Expire dt ->
                let now = tick dt in
                Storage.expire store ~now = Storage_ref.expire reference ~now
            | Live_count dt ->
                let now = tick dt in
                Storage.live_count store ~now = Storage_ref.live_count reference ~now
            | Live_keys dt ->
                let now = tick dt in
                slot_order Storage.iter_live store ~now
                = slot_order Storage_ref.iter_live reference ~now
            | Clear ->
                let now = !clock in
                let live = Storage_ref.live_count reference ~now in
                ignore (Storage_ref.clear reference);
                Storage.clear store ~now = live
          in
          same && same_contents ())
        ops)

(* The expiry-order bookkeeping allocates nothing: 10,000 puts that
   each evict from a full store, then 10,000 refreshes that each relink
   an entry, after a warm-up that leaves the table at its final size
   (no [grow] inside the count).  Clock values come pre-boxed from a
   list, so passing [~now] boxes nothing; a refresh's one allocation is
   its [Some] result (2 words), which the count allows. *)
let test_storage_bookkeeping_alloc_free () =
  let capacity = 64 and n = 10_000 in
  let store = Storage.create ~capacity () in
  let clock lo len = List.init len (fun i -> float_of_int (lo + i)) in
  let put_all ~first nows =
    List.iteri
      (fun i now -> Storage.put store ~key:(Bitkey.of_int (first + i)) ~value:i ~now ~ttl:100.)
      nows
  in
  put_all ~first:0 (clock 1 (2 * capacity));
  let puts = clock (1 + (2 * capacity)) n and refreshes = clock (1 + (2 * capacity) + n) n in
  let first = 2 * capacity in
  let w0 = Gc.minor_words () in
  put_all ~first puts;
  let w1 = Gc.minor_words () in
  let hits = ref 0 in
  List.iteri
    (fun i now ->
      let key = Bitkey.of_int (first + n - capacity + (i mod capacity)) in
      match Storage.get_and_refresh store ~key ~now ~ttl:100. with
      | Some _ -> incr hits
      | None -> ())
    refreshes;
  let w2 = Gc.minor_words () in
  Alcotest.(check int) "every refresh hits" n !hits;
  Alcotest.(check int) "store stays full" capacity (Storage.live_count store ~now:0.);
  let per_op words = words /. float_of_int n in
  let put_words = per_op (w1 -. w0) and refresh_words = per_op (w2 -. w1) -. 2. in
  if put_words >= 0.01 || refresh_words >= 0.01 then
    Alcotest.failf "minor words/op beyond the result: put-with-evict %.4f, refresh %.4f" put_words
      refresh_words

(* ------------------------------------------------------------------ *)
(* Overlay construction vs [Overlay_ref], verbatim copies of the
   replica-subnet builder, the topology generators and the placement
   table as they were before their flat-scratch rewrites.  Each side
   gets its own generator from one seed; after construction both must
   hold the same adjacency and the same edge count, and the next draw
   from either generator must agree, so the rewrite consumed exactly
   the draws the reference did. *)

let same_next_draw a b = Rng.bits64 a = Rng.bits64 b && Rng.int a 1_000_003 = Rng.int b 1_000_003

(* Sizes 1-3 get their own weight: there the ring successor, the
   predecessor and every chord collide, so the dedup and the
   self-loop drop carry the result.  Floods start from every member and
   from one non-member under a random online mask, so stamps from
   earlier floods of the same subnet are live when each one runs. *)
let replica_net_ref_test =
  let case =
    QCheck.Gen.(
      pair
        (quad
           (frequency [ (2, int_range 1 3); (3, int_range 4 40); (1, int_range 41 300) ])
           (int_range 0 3) small_nat small_nat)
        (int_range 0 80))
  in
  let print ((n, chords, seed, offset), offline_pct) =
    Printf.sprintf "n=%d chords=%d seed=%d offset=%d offline=%d%%" n chords seed offset offline_pct
  in
  QCheck.Test.make ~name:"replica_net matches the dense-row reference" ~count:300
    (QCheck.make ~print case) (fun ((n, chords, seed, offset), offline_pct) ->
      (* Distinct global peer ids, descending in member order; [offset + 1]
         is never one of them. *)
      let replicas = Array.init n (fun i -> offset + (3 * (n - 1 - i))) in
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let net = Replica_net.build rng ~replicas ~chords in
      let reference = Overlay_ref.Replica_net.build rng_ref ~replicas ~chords in
      let mask_rng = Rng.create ~seed:(seed + 1) in
      let online_peer = Array.make (offset + (3 * n) + 1) true in
      Array.iter
        (fun peer -> if Rng.int mask_rng 100 < offline_pct then online_peer.(peer) <- false)
        replicas;
      let online peer = online_peer.(peer) in
      let same_flood from_peer =
        let a = Replica_net.flood net ~online ~from_peer
        and b = Overlay_ref.Replica_net.flood reference ~online ~from_peer in
        a.Replica_net.reached = b.Overlay_ref.Replica_net.reached
        && a.Replica_net.messages = b.Overlay_ref.Replica_net.messages
      in
      Replica_net.size net = Overlay_ref.Replica_net.size reference
      && List.for_all
           (fun member ->
             Replica_net.neighbors net ~member
             = Overlay_ref.Replica_net.neighbors reference ~member)
           (List.init n Fun.id)
      && same_next_draw rng rng_ref
      && Array.for_all same_flood replicas
      && same_flood (offset + 1))

type generator =
  | Regularish of int * int (* peers, degree *)
  | Barabasi of int * int (* peers, attach *)

let topology_ref_test =
  let case =
    let open QCheck.Gen in
    let* peers = frequency [ (2, int_range 3 12); (3, int_range 13 400) ] in
    let* g =
      frequency
        [
          ( 3,
            (* Degrees near [peers] reach the capped-retry corner. *)
            map (fun d -> Regularish (peers, d)) (int_range 1 (min (peers - 1) 10)) );
          (3, map (fun a -> Barabasi (peers, a)) (int_range 1 (min (peers - 1) 6)));
        ]
    in
    let+ seed = small_nat in
    (g, seed)
  in
  let print (g, seed) =
    (match g with
    | Regularish (n, d) -> Printf.sprintf "random_regularish peers=%d degree=%d" n d
    | Barabasi (n, a) -> Printf.sprintf "barabasi_albert peers=%d attach=%d" n a)
    ^ Printf.sprintf " seed=%d" seed
  in
  QCheck.Test.make ~name:"topology generators match the Int_set reference" ~count:300
    (QCheck.make ~print case) (fun (g, seed) ->
      let module R = Overlay_ref.Topology in
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let t, reference =
        match g with
        | Regularish (peers, degree) ->
            ( Topology.random_regularish rng ~peers ~degree,
              R.random_regularish rng_ref ~peers ~degree )
        | Barabasi (peers, attach) ->
            (Topology.barabasi_albert rng ~peers ~attach, R.barabasi_albert rng_ref ~peers ~attach)
      in
      let n = Topology.peer_count t in
      n = R.peer_count reference
      && Topology.edge_count t = R.edge_count reference
      && List.for_all
           (fun p ->
             Topology.neighbors t p = R.neighbors reference p
             && Topology.degree t p = R.degree reference p)
           (List.init n Fun.id)
      && same_next_draw rng rng_ref)

type placement_op =
  | Place of int * int (* item, repl *)
  | Place_on of int * int list (* item, replicas (duplicates allowed) *)
  | Remove_item of int
  | Remove_peer of int
  | Items_at of int
  | Holds of int * int (* peer, item *)

let placement_op_print = function
  | Place (i, r) -> Printf.sprintf "Place(%d,%d)" i r
  | Place_on (i, ps) ->
      Printf.sprintf "Place_on(%d,[%s])" i (String.concat ";" (List.map string_of_int ps))
  | Remove_item i -> Printf.sprintf "Remove(%d)" i
  | Remove_peer p -> Printf.sprintf "Remove_peer(%d)" p
  | Items_at p -> Printf.sprintf "Items_at(%d)" p
  | Holds (p, i) -> Printf.sprintf "Holds(%d,%d)" p i

(* Items reach past the table's initial 64 slots, so [ensure_item]'s
   growth is inside the run; after every step the whole table (every
   item's replicas, every peer's holdings) must match. *)
let replication_ref_test =
  let items = 100 in
  let case =
    let open QCheck.Gen in
    let* peers = int_range 1 30 in
    let item = int_bound (items - 1) and peer = int_bound (peers - 1) in
    let op =
      frequency
        [
          (4, map2 (fun i r -> Place (i, r)) item (int_range 1 (peers + 3)));
          (3, map2 (fun i ps -> Place_on (i, ps)) item (list_size (int_bound 8) peer));
          (1, map (fun i -> Remove_item i) item);
          (2, map (fun p -> Remove_peer p) peer);
          (1, map (fun p -> Items_at p) peer);
          (2, map2 (fun p i -> Holds (p, i)) peer item);
        ]
    in
    let* ops = list_size (int_range 1 120) op in
    let+ seed = small_nat in
    (peers, ops, seed)
  in
  let print (peers, ops, seed) =
    Printf.sprintf "peers %d seed %d: %s" peers seed
      (String.concat " " (List.map placement_op_print ops))
  in
  QCheck.Test.make ~name:"replication matches the inverse-view reference" ~count:300
    (QCheck.make ~print case) (fun (peers, ops, seed) ->
      let module R = Overlay_ref.Replication in
      let t = Replication.create ~peers and reference = R.create ~peers in
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let same_table () =
        List.for_all
          (fun item ->
            Replication.replicas t ~item = R.replicas reference ~item
            && Replication.replication_factor t ~item = R.replication_factor reference ~item)
          (List.init (items + 1) Fun.id)
        && List.for_all
             (fun peer -> Replication.items_at t ~peer = R.items_at reference ~peer)
             (List.init peers Fun.id)
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Place (item, repl) ->
                Replication.place t rng ~item ~repl;
                R.place reference rng_ref ~item ~repl;
                true
            | Place_on (item, ps) ->
                let replicas = Array.of_list ps in
                Replication.place_on t ~item ~replicas;
                R.place_on reference ~item ~replicas;
                true
            | Remove_item item ->
                Replication.remove t ~item;
                R.remove reference ~item;
                true
            | Remove_peer peer -> Replication.remove_peer t ~peer = R.remove_peer reference ~peer
            | Items_at peer -> Replication.items_at t ~peer = R.items_at reference ~peer
            | Holds (peer, item) -> Replication.holds t ~peer ~item = R.holds reference ~peer ~item
          in
          same && same_table ())
        ops
      && same_next_draw rng rng_ref)

(* The miss path: the live walk against the copy that asked a [holds]
   closure at every step.  Graphs of 2-300 peers (random or
   preferential-attachment), random offline subsets, holder lists that
   are empty, hold the source, hold offline peers or repeat a peer, and
   a lossy [deliver] that drops by call order and logs every call.
   Three searches run back to back through one live scratch, so stamps
   left by a previous search are inside the run; each must match a
   fresh reference search in its whole result, its [deliver] calls and
   the next draw. *)
type walk_query = {
  source : int;
  holders : int list;
  walkers : int;
  max_steps : int;
  check_every : int;
  lossy : int option; (* drop every [m]-th delivery *)
  closure_checks_online : bool;
}

let walk_ref_test =
  let case =
    let open QCheck.Gen in
    let* peers = frequency [ (2, int_range 2 12); (3, int_range 13 300) ] in
    let* ba = bool in
    let* attach = int_range 1 (min (peers - 1) 4) in
    let* offline_pct = oneofl [ 0; 10; 30; 80 ] in
    let peer = int_bound (peers - 1) in
    let query =
      let* source = peer in
      let* holders =
        frequency
          [
            (1, return []);
            (3, list_size (int_range 1 (min peers 20)) peer);
            (1, map (fun hs -> source :: hs) (list_size (int_bound 4) peer));
          ]
      in
      let* walkers = int_range 1 16 and* check_every = int_range 1 5 in
      let* max_steps = int_range 0 (2 * peers) in
      let* lossy = frequency [ (2, return None); (1, map Option.some (int_range 2 5)) ] in
      let+ closure_checks_online = bool in
      { source; holders; walkers; max_steps; check_every; lossy; closure_checks_online }
    in
    let* queries = list_repeat 3 query in
    let+ seed = small_nat in
    (peers, ba, attach, offline_pct, queries, seed)
  in
  let print (peers, ba, attach, offline_pct, queries, seed) =
    Printf.sprintf "peers=%d %s attach=%d offline=%d%% seed=%d: %s" peers
      (if ba then "barabasi" else "regularish")
      attach offline_pct seed
      (String.concat " | "
         (List.map
            (fun q ->
              Printf.sprintf "src=%d holders=[%s] w=%d steps=%d every=%d lossy=%s online&&=%b"
                q.source
                (String.concat ";" (List.map string_of_int q.holders))
                q.walkers q.max_steps q.check_every
                (match q.lossy with None -> "-" | Some m -> string_of_int m)
                q.closure_checks_online)
            queries))
  in
  QCheck.Test.make ~name:"random walk matches the holds-closure reference" ~count:300
    (QCheck.make ~print case) (fun (peers, ba, attach, offline_pct, queries, seed) ->
      let module R = Overlay_ref.Random_walk in
      let rng = Rng.create ~seed in
      let topo =
        if ba then Topology.barabasi_albert rng ~peers ~attach
        else Topology.random_regularish rng ~peers ~degree:attach
      in
      let up = Array.init peers (fun _ -> Rng.int rng 100 >= offline_pct) in
      let online p = up.(p) in
      let scratch = Pdht_overlay.Scratch.create () in
      List.for_all
        (fun q ->
          let logged () =
            let calls = ref [] and count = ref 0 in
            let deliver =
              Option.map
                (fun m ~span:_ ~src ~dst ->
                  calls := (src, dst) :: !calls;
                  incr count;
                  !count mod m <> 0)
                q.lossy
            in
            (calls, deliver)
          in
          let calls, deliver = logged () and calls_ref, deliver_ref = logged () in
          let holds p =
            (if q.closure_checks_online then online p else true) && List.mem p q.holders
          in
          let live_rng = Rng.copy rng and ref_rng = Rng.copy rng in
          ignore (Rng.bits64 rng);
          let r =
            Pdht_overlay.Random_walk.search ~scratch ?deliver topo live_rng ~online
              ~holders:(Array.of_list q.holders) ~source:q.source ~walkers:q.walkers
              ~max_steps:q.max_steps ~check_every:q.check_every
          in
          let e =
            R.search ?deliver:deliver_ref topo ref_rng ~online ~holds ~source:q.source
              ~walkers:q.walkers ~max_steps:q.max_steps ~check_every:q.check_every
          in
          let open Pdht_overlay.Random_walk in
          r.found_at = e.R.found_at
          && r.steps_taken = e.R.steps_taken
          && r.messages = e.R.messages
          && r.distinct_visited = e.R.distinct_visited
          && r.rounds = e.R.rounds
          && !calls = !calls_ref
          && same_next_draw live_rng ref_rng)
        queries)

(* The placement sampler against its [Hashtbl] copy: every n from 1 to
   5,000 with k at 0, at n, or anywhere between, plus one sample from a
   population of one and 200 of 10^6.  The one-shot draw must equal the
   reference's; a reused sorted sampler must then hand back the next
   two reference samples ascending, its stale stamps and emptied
   bitmaps from the first inside the second. *)
let sampling_ref_test =
  let case =
    let open QCheck.Gen in
    let* n, k =
      frequency
        [
          (1, oneofl [ (1, 0); (1, 1); (1_000_000, 200) ]);
          ( 12,
            let* n =
              frequency [ (2, int_range 1 8); (3, int_range 9 500); (1, int_range 501 5_000) ]
            in
            let+ k = frequency [ (1, return 0); (1, return n); (4, int_range 0 n) ] in
            (n, k) );
        ]
    in
    let+ seed = small_nat in
    (n, k, seed)
  in
  let print (n, k, seed) = Printf.sprintf "n=%d k=%d seed=%d" n k seed in
  QCheck.Test.make ~name:"sampling matches the Hashtbl reference" ~count:300
    (QCheck.make ~print case) (fun (n, k, seed) ->
      let module S = Pdht_util.Sampling in
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let sorted a =
        let a = Array.copy a in
        Array.sort Int.compare a;
        a
      in
      let sampler = S.sampler ~n in
      let reused () =
        S.sample_sorted sampler rng ~k
        = sorted (Overlay_ref.Sampling.sample_without_replacement rng_ref ~k ~n)
      in
      S.sample_without_replacement rng ~k ~n
      = Overlay_ref.Sampling.sample_without_replacement rng_ref ~k ~n
      && reused () && reused ()
      && same_next_draw rng rng_ref)

(* Construction scratch is sized to the output.  Words allocated
   (minor plus direct major, promotions counted once) stay within a
   small multiple of the members or peers built; a dense n x (n - 1)
   row scratch (about 200 words per member at n = 200), a boxed row
   per subnet member (15, where the flat rows take 9), a tree set per
   peer (about 250 words per peer) or a growable boxed row per peer
   (26 at degree 4, where [Topology.of_slots] takes 13: 4 slots, an
   offset and 8 cells) fails these bounds.  The minor
   heap is emptied first: a minor collection inside the window would
   otherwise charge it for objects allocated before it.  Minor words
   come from [Gc.minor_words]: on OCaml 5.1 the minor figure of
   [Gc.counters] reads an eighth of the words allocated. *)
let allocated_words f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let result = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity result);
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

let test_replica_net_build_alloc () =
  List.iter
    (fun n ->
      let replicas = Array.init n (fun i -> 3 * i) in
      let rng = Rng.create ~seed:n in
      let words = allocated_words (fun () -> Replica_net.build rng ~replicas ~chords:1) in
      if words > 12. *. float_of_int n then
        Alcotest.failf "Replica_net.build at n = %d allocated %.0f words (%.1f per member)" n words
          (words /. float_of_int n))
    [ 200; 2_000 ]

(* Set-up allocates its output and little else.  Once the table's
   scratch has grown to the sample size, a placement allocates only its
   row, k + 1 words (a copy or a sort's scratch per row would double
   it); a key id allocates nothing (a boxed [int64] per hashed byte
   took about 30 words a key); and [Pdht.create] at the cold-keys shape
   stays within 60 words a key (it measures 45; a string and a boxed
   hash per key id and a sorted copy per row took 275). *)
let test_placement_alloc () =
  List.iter
    (fun (peers, k) ->
      let t = Replication.create ~peers and rng = Rng.create ~seed:peers in
      let items = 64 in
      Replication.place t rng ~item:(items - 1) ~repl:k;
      let words =
        allocated_words (fun () ->
            for item = 0 to items - 1 do
              Replication.place t rng ~item ~repl:k
            done)
      in
      let per_call = words /. float_of_int items in
      if per_call > float_of_int (k + 2) then
        Alcotest.failf "Replication.place (k = %d of %d) allocated %.1f words a call" k peers
          per_call)
    [ (1_000, 20); (100_000, 200); (5, 20) ]

let test_key_id_alloc () =
  let keys = 20_000 and sink = ref 0 in
  let words =
    allocated_words (fun () ->
        for i = 0 to keys - 1 do
          sink := !sink lxor Bitkey.to_int (Pdht_util.Hashing.key_id i)
        done)
  in
  if words > 0. then
    Alcotest.failf "Hashing.key_id allocated %.2f words a key" (words /. float_of_int keys)

let test_create_alloc () =
  let config = List.assoc "cold-keys" (Experiment.setup_shapes ()) in
  let words =
    allocated_words (fun () -> Pdht_core.Pdht.create (Rng.create ~seed:1) config)
  in
  let per_key = words /. float_of_int config.Pdht_core.Config.keys in
  if per_key > 60. then
    Alcotest.failf "Pdht.create at the cold-keys shape allocated %.1f words a key" per_key

(* The replica probe allocates nothing.  Under the index-everything
   baseline an index miss is final, so once every member of a key's
   replica group has crashed and rejoined empty, each query of the key
   misses at the responsible member, probes every other member, and
   ends there.  Such a query allocates the same words at repl 5 and 20
   (nothing per member: a candidate buffer per probe or a boxed lease
   per member fails it) and at most 44 words in all, the DHT lookup's
   and the query's results (it measures 40; a closure per probe took
   49). *)
let test_replica_probe_alloc () =
  let per_query repl =
    let config =
      Pdht_core.Config.make ~num_peers:400 ~active_members:100 ~keys:50 ~repl ~stor:20
        ~strategy:Pdht_core.Strategy.Index_all ()
    in
    let rng = Rng.create ~seed:3 in
    let p = Pdht_core.Pdht.create rng config in
    let key_index = 7 in
    let group =
      Pdht_dht.Dht.replica_group (Pdht_core.Pdht.dht p) ~repl
        (Pdht_core.Pdht.key_of_index p key_index)
    in
    Array.iter
      (fun peer ->
        ignore (Pdht_core.Pdht.crash_peer p ~peer ~now:0.);
        ignore (Pdht_core.Pdht.recover_peer p rng ~peer))
      group;
    let query () = Pdht_core.Pdht.query p ~now:1. ~peer:0 ~key_index in
    let r = query () in
    if r.Pdht_core.Pdht.source <> Pdht_core.Pdht.Not_found
       || r.Pdht_core.Pdht.replica_flood_messages = 0
    then Alcotest.failf "repl %d: the query did not miss through the replica probe" repl;
    let queries = 1_000 in
    allocated_words (fun () ->
        for _ = 1 to queries do
          ignore (Sys.opaque_identity (query ()))
        done)
    /. float_of_int queries
  in
  let small = per_query 5 and large = per_query 20 in
  if small <> large || large > 44. then
    Alcotest.failf "a query missing through the replica probe allocated %.2f words at repl 5, \
                    %.2f at repl 20" small large

(* A built P-Grid retains its flat rows and little else.  At the DHT
   shapes [Pdht.create] builds for the benchmark (453 and 1,000 members
   with leaf 20, 6,000 with leaf 200, 3 references a level) it keeps
   23.8, 27.9 and 23.8 words a member; string paths, a table holding a
   copy of every prefix's peers and boxed reference levels kept 37.1,
   42.7 and 34.3. *)
let test_pgrid_build_retained () =
  List.iter
    (fun (members, leaf_size, bound) ->
      let g =
        Pdht_dht.Pgrid.build (Rng.create ~seed:1) ~members ~leaf_size ~refs_per_level:3
      in
      let per_member =
        float_of_int (Obj.reachable_words (Obj.repr g)) /. float_of_int members
      in
      if per_member > bound then
        Alcotest.failf "Pgrid.build (%d members, leaf %d) retains %.1f words a member" members
          leaf_size per_member)
    [ (453, 20, 25.); (1_000, 20, 29.); (6_000, 200, 25.) ]

(* A draw allocates nothing: [Rng.step] is inlined into every draw, so
   its [int64] temporaries stay unboxed (a step that stops inlining
   boxes its result, 3 words a draw).  The float draws hand their result
   back boxed across the library boundary, 2 words, which the count
   allows. *)
let test_rng_draw_alloc () =
  let rng = Rng.create ~seed:1 and draws = 100_000 in
  let per_draw ~result_words name draw =
    let sink = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to draws do
      if draw () then incr sink
    done;
    let words = ((Gc.minor_words () -. w0) /. float_of_int draws) -. result_words in
    ignore (Sys.opaque_identity !sink);
    if words > 0. then Alcotest.failf "Rng.%s allocated %.2f minor words a draw" name words
  in
  per_draw ~result_words:0. "int below 2^30" (fun () -> Rng.int rng 453 = 0);
  per_draw ~result_words:0. "int above 2^30" (fun () -> Rng.int rng (1 lsl 40) = 0);
  per_draw ~result_words:2. "unit_float" (fun () -> Rng.unit_float rng < 0.5);
  per_draw ~result_words:0. "bool" (fun () -> Rng.bool rng);
  per_draw ~result_words:0. "bernoulli" (fun () -> Rng.bernoulli rng ~p:0.3);
  per_draw ~result_words:2. "exponential" (fun () -> Rng.exponential rng ~rate:2. < 0.5)

let test_topology_alloc () =
  let peers = 100_000 in
  let rng = Rng.create ~seed:1 in
  let words = allocated_words (fun () -> Topology.random_regularish rng ~peers ~degree:4) in
  let per_peer = words /. float_of_int peers in
  if per_peer > 16. then
    Alcotest.failf "random_regularish at 10^5 peers allocated %.1f words per peer" per_peer

(* One lossless RPC rung writes the flat virtual clock, reuses the
   hook's own attempt closure and passes attempt 0 the config's own
   timeout, so it allocates nothing (the closure-per-call ladder with a
   boxed clock took about 40 words).  The bound is one word a call: a
   closure per call (4 words) or a boxed timeout on attempt 0 (2)
   fails it. *)
let test_hook_rpc_alloc () =
  let config =
    { Pdht_net.Config.default with latency = Pdht_net.Config.Constant 0.02; loss = 0. }
  in
  let hook = Pdht_net.Hook.create ~rng:(Rng.create ~seed:1) config in
  Pdht_net.Hook.begin_op hook ~now:0.;
  let calls = 10_000 in
  ignore (Pdht_net.Hook.rpc hook ~src:0 ~dst:1);
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    ignore (Pdht_net.Hook.rpc hook ~src:(i land 7) ~dst:((i + 1) land 7))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  if per_call > 1. then Alcotest.failf "a lossless Hook.rpc allocated %.1f minor words" per_call

(* ------------------------------------------------------------------ *)
(* Kademlia's trie walk vs brute force over the id space. *)

let kademlia_closest_test =
  QCheck.Test.make ~name:"kademlia closest_members = sorted brute force" ~count:100
    QCheck.(triple (int_range 1 200) (int_range 0 16) small_nat)
    (fun (members, k, seed) ->
      let rng = Rng.create ~seed in
      let t = Kademlia.create rng ~members () in
      let key = Bitkey.random rng in
      let got = Kademlia.closest_members t key ~k in
      let brute = Array.init members Fun.id in
      let dist m = Bitkey.xor_distance (Kademlia.id_of t m) key in
      Array.sort (fun a b -> compare (dist a) (dist b)) brute;
      let want = Array.sub brute 0 (min k members) in
      got = want)

let kademlia_responsible_test =
  QCheck.Test.make ~name:"kademlia responsible = closest online" ~count:100
    QCheck.(triple (int_range 1 100) (int_range 0 99) small_nat)
    (fun (members, offline_mod, seed) ->
      let rng = Rng.create ~seed in
      let t = Kademlia.create rng ~members () in
      let key = Bitkey.random rng in
      let online m = offline_mod = 0 || m mod (offline_mod + 1) <> 0 in
      let got = Kademlia.responsible t ~online key in
      let dist m = Bitkey.xor_distance (Kademlia.id_of t m) key in
      let want =
        let best = ref None in
        for m = 0 to members - 1 do
          if online m then
            match !best with
            | Some b when dist b <= dist m -> ()
            | _ -> best := Some m
        done;
        !best
      in
      got = want)

(* Flat-row Kademlia vs [Kademlia_ref], the jagged-table module kept
   verbatim.  Both are built from one seed and driven by one operation
   list; churn flips members between operations and [deliver] drops
   every [m]-th call, so lookups route around dead and unreachable
   contacts in both disciplines.  After every operation the returns,
   the [deliver] call logs, [live_stats], [contact_stats], every
   member's table size and bucket count and the next draw must agree. *)
type kad_op =
  | K_lookup of int * int (* source, key *)
  | K_lookup_id of int * int (* source, member whose id is the key *)
  | K_probe of int * int (* peer, probes *)
  | K_refresh
  | K_forget of int
  | K_rebuild of int
  | K_drain
  | K_flip of int (* toggle a member online/offline *)

let kad_op_print = function
  | K_lookup (s, k) -> Printf.sprintf "lookup(%d,%d)" s k
  | K_lookup_id (s, m) -> Printf.sprintf "lookup-id(%d,%d)" s m
  | K_probe (p, n) -> Printf.sprintf "probe(%d,%d)" p n
  | K_refresh -> "refresh"
  | K_forget p -> Printf.sprintf "forget(%d)" p
  | K_rebuild p -> Printf.sprintf "rebuild(%d)" p
  | K_drain -> "drain"
  | K_flip m -> Printf.sprintf "flip(%d)" m

let kademlia_ref_test =
  let case =
    let open QCheck.Gen in
    let* members =
      frequency [ (3, int_range 1 40); (2, int_range 41 200); (1, int_range 201 600) ]
    in
    let* bucket_size = int_range 1 8 in
    let* alpha = int_range 1 4 in
    let* live = frequency [ (1, return None); (2, map Option.some (int_range 0 3)) ] in
    let* offline_pct = oneofl [ 0; 10; 30; 50; 80 ] in
    let* drop_every = oneofl [ 0; 2; 3; 5; 7 ] in
    let* seed = int_bound 1_000_000 in
    let m = int_bound (members - 1) in
    let op =
      frequency
        [
          (8, map2 (fun s k -> K_lookup (s, k)) m (int_bound max_int));
          (2, map2 (fun s t -> K_lookup_id (s, t)) m m);
          (3, map2 (fun p n -> K_probe (p, n)) m (int_range 0 6));
          (1, return K_refresh);
          (1, map (fun p -> K_forget p) m);
          (1, map (fun p -> K_rebuild p) m);
          (1, return K_drain);
          (3, map (fun p -> K_flip p) m);
        ]
    in
    let+ ops = list_size (int_range 1 40) op in
    (members, bucket_size, alpha, live, offline_pct, drop_every, seed, ops)
  in
  let print (members, bucket_size, alpha, live, offline_pct, drop_every, seed, ops) =
    Printf.sprintf "members %d k %d alpha %d live %s offline %d%% drop-every %d seed %d: %s"
      members bucket_size alpha
      (match live with None -> "frozen" | Some r -> Printf.sprintf "retries=%d" r)
      offline_pct drop_every seed
      (String.concat " " (List.map kad_op_print ops))
  in
  QCheck.Test.make ~name:"kademlia matches the jagged-table reference" ~count:150
    (QCheck.make ~print case)
    (fun (members, bucket_size, alpha, live, offline_pct, drop_every, seed, ops) ->
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let t = Kademlia.create rng ~members ~bucket_size ~alpha () in
      let r = Kademlia_ref.create rng_ref ~members ~bucket_size ~alpha () in
      Option.iter
        (fun probe_retries ->
          Kademlia.enable_live_routing ~probe_retries t;
          Kademlia_ref.enable_live_routing ~probe_retries r)
        live;
      let mask = Rng.create ~seed:(seed + 1) in
      let up = Array.init members (fun _ -> Rng.int mask 100 >= offline_pct) in
      let online m = up.(m) in
      (* Each side gets its own counter, so both drop the same calls
         exactly when both make the same calls. *)
      let deliverer () =
        let calls = ref 0 and log = ref [] in
        let deliver ~span ~src ~dst =
          incr calls;
          log := (span, src, dst) :: !log;
          drop_every = 0 || !calls mod drop_every <> 0
        in
        (deliver, log)
      in
      let deliver, log = deliverer () and deliver_ref, log_ref = deliverer () in
      let live_stats () =
        Option.map
          (fun (s : Kademlia.live_stats) ->
            ( s.probes,
              s.probe_messages,
              s.refresh_messages,
              (s.evictions, s.promotions, s.insertions, s.cache_fills) ))
          (Kademlia.live_stats t)
      in
      let live_stats_ref () =
        Option.map
          (fun (s : Kademlia_ref.live_stats) ->
            ( s.probes,
              s.probe_messages,
              s.refresh_messages,
              (s.evictions, s.promotions, s.insertions, s.cache_fills) ))
          (Kademlia_ref.live_stats r)
      in
      let same_tables () =
        let ok = ref true in
        for m = 0 to members - 1 do
          if
            Kademlia.routing_table_size t m <> Kademlia_ref.routing_table_size r m
            || Kademlia.bucket_count t m <> Kademlia_ref.bucket_count r m
          then ok := false
        done;
        !ok
      in
      let lookup step source key =
        let span = if step mod 2 = 0 then Some step else None in
        let o = Kademlia.lookup ?span ~deliver t ~online ~source ~key in
        let o_ref = Kademlia_ref.lookup ?span ~deliver:deliver_ref r ~online ~source ~key in
        o.responsible = o_ref.responsible && o.messages = o_ref.messages && o.hops = o_ref.hops
      in
      let rec run step = function
        | [] -> true
        | op :: rest ->
            let same =
              match op with
              | K_lookup (source, k) ->
                  lookup step source (Bitkey.of_int (k land ((1 lsl Bitkey.width) - 1)))
              | K_lookup_id (source, m) -> lookup step source (Kademlia.id_of t m)
              | K_probe (peer, probes) ->
                  Kademlia.probe_and_repair t rng ~online ~peer ~probes
                  = Kademlia_ref.probe_and_repair r rng_ref ~online ~peer ~probes
              | K_refresh ->
                  Kademlia.refresh_sweep t rng ~online
                  = Kademlia_ref.refresh_sweep r rng_ref ~online
              | K_forget peer ->
                  Kademlia.forget_routes t ~peer;
                  Kademlia_ref.forget_routes r ~peer;
                  true
              | K_rebuild peer ->
                  Kademlia.rebuild_routes t rng ~peer = Kademlia_ref.rebuild_routes r rng_ref ~peer
              | K_drain -> Kademlia.drain_probe_cost t = Kademlia_ref.drain_probe_cost r
              | K_flip m ->
                  up.(m) <- not up.(m);
                  true
            in
            same && !log = !log_ref
            && live_stats () = live_stats_ref ()
            && Kademlia.contact_stats t = Kademlia_ref.contact_stats r
            && same_tables () && same_next_draw rng rng_ref
            && run (step + 1) rest
      in
      run 0 ops)

let qcheck_tests =
  [
    storage_model_test;
    storage_capacity_test;
    storage_eviction_test;
    storage_ref_test;
    replica_net_ref_test;
    topology_ref_test;
    replication_ref_test;
    walk_ref_test;
    sampling_ref_test;
    kademlia_closest_test;
    kademlia_responsible_test;
    kademlia_ref_test;
  ]

let () =
  Alcotest.run "pdht_scale"
    [
      ( "battery",
        [
          Alcotest.test_case "matches golden" `Slow test_battery_matches_golden;
          Alcotest.test_case "-j invariant" `Slow test_battery_jobs_invariant;
          Alcotest.test_case "setup state" `Quick test_setup_state_matches_golden;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "alloc",
        [
          Alcotest.test_case "storage put-evict and refresh" `Quick
            test_storage_bookkeeping_alloc_free;
          Alcotest.test_case "replica_net build scratch" `Quick test_replica_net_build_alloc;
          Alcotest.test_case "topology build scratch" `Quick test_topology_alloc;
          Alcotest.test_case "rng draws" `Quick test_rng_draw_alloc;
          Alcotest.test_case "lossless hook rpc" `Quick test_hook_rpc_alloc;
          Alcotest.test_case "placement row" `Quick test_placement_alloc;
          Alcotest.test_case "key ids" `Quick test_key_id_alloc;
          Alcotest.test_case "create at cold-keys" `Quick test_create_alloc;
          Alcotest.test_case "replica probe" `Quick test_replica_probe_alloc;
          Alcotest.test_case "pgrid build" `Quick test_pgrid_build_retained;
        ] );
    ]
