(* Tests for Pdht_dht: churn model, TTL storage, Chord, P-Grid, the
   facade, and routing-table maintenance. *)

module Rng = Pdht_util.Rng
module Bitkey = Pdht_util.Bitkey
module Churn = Pdht_dht.Churn
module Storage = Pdht_dht.Storage
module Chord = Pdht_dht.Chord
module Pgrid = Pdht_dht.Pgrid
module Dht = Pdht_dht.Dht
module Maintenance = Pdht_dht.Maintenance

let all_online _ = true

(* ------------------------------------------------------------------ *)
(* Churn *)

let test_churn_static () =
  let c = Churn.always_online ~peers:10 in
  Alcotest.(check int) "all online" 10 (Churn.online_count c);
  Alcotest.(check (float 1e-9)) "availability 1" 1. (Churn.availability c);
  let engine = Pdht_sim.Engine.create () in
  Churn.attach c engine;
  Pdht_sim.Engine.run engine ~until:1000.;
  Alcotest.(check int) "no transitions" 0 (Churn.session_changes c)

let session_spec up down ~mean_uptime ~mean_downtime ~on =
  {
    Pdht_dist.Session.up;
    down;
    mean_uptime;
    mean_downtime;
    initially_online_fraction = on;
  }

(* Classic exponential sessions (the [MaCa03] fit). *)
let exp_churn rng ~peers ~mean_uptime ~mean_downtime ~on =
  Churn.create rng ~peers
    (session_spec Pdht_dist.Session.Exponential Pdht_dist.Session.Exponential
       ~mean_uptime ~mean_downtime ~on)

let test_churn_stationary_fraction () =
  let rng = Rng.create ~seed:80 in
  let c =
    exp_churn rng ~peers:2000 ~mean_uptime:300. ~mean_downtime:100. ~on:0.75
  in
  let engine = Pdht_sim.Engine.create () in
  Churn.attach c engine;
  Pdht_sim.Engine.run engine ~until:2000.;
  let frac = float_of_int (Churn.online_count c) /. 2000. in
  Alcotest.(check (float 0.05)) "stationary fraction = availability"
    (Churn.availability c) frac;
  Alcotest.(check bool) "transitions happened" true (Churn.session_changes c > 1000)

let test_churn_callbacks () =
  let rng = Rng.create ~seed:81 in
  let c =
    exp_churn rng ~peers:5 ~mean_uptime:10. ~mean_downtime:10. ~on:1.
  in
  let events = ref 0 in
  let consistent = ref true in
  Churn.on_toggle c (fun ~peer ~now_online ~time:_ ->
      incr events;
      if Churn.online c peer <> now_online then consistent := false);
  let engine = Pdht_sim.Engine.create () in
  Churn.attach c engine;
  Pdht_sim.Engine.run engine ~until:100.;
  Alcotest.(check bool) "callbacks fired" true (!events > 0);
  Alcotest.(check int) "callback count matches" (Churn.session_changes c) !events;
  Alcotest.(check bool) "state consistent inside callback" true !consistent

let test_churn_validation () =
  let rng = Rng.create ~seed:82 in
  Alcotest.check_raises "bad uptime"
    (Invalid_argument "Churn.create: mean uptime 0 must be finite and > 0") (fun () ->
      ignore (exp_churn rng ~peers:2 ~mean_uptime:0. ~mean_downtime:1. ~on:1.))

let test_churn_callback_registration_order () =
  (* Thousands of registrations (the per-peer rejoin-hook pattern) must
     fire in exact registration order on every toggle. *)
  let rng = Rng.create ~seed:83 in
  let c =
    exp_churn rng ~peers:3 ~mean_uptime:10. ~mean_downtime:10. ~on:1.
  in
  let n = 5_000 in
  let order = ref [] in
  for i = 0 to n - 1 do
    Churn.on_toggle c (fun ~peer:_ ~now_online:_ ~time:_ -> order := i :: !order)
  done;
  Churn.toggle c 0 1.0;
  let got = List.rev !order in
  Alcotest.(check int) "every callback fired once" n (List.length got);
  List.iteri
    (fun slot i ->
      if slot <> i then
        Alcotest.failf "callback %d fired in slot %d (registration order broken)"
          i slot)
    got;
  (* A second toggle replays the same order, appended. *)
  Churn.toggle c 1 2.0;
  Alcotest.(check int) "second toggle fired them all again" (2 * n)
    (List.length !order)

let churn_trajectory c ~until =
  let engine = Pdht_sim.Engine.create () in
  Churn.attach c engine;
  Pdht_sim.Engine.run engine ~until;
  (Churn.session_changes c, List.init (Churn.peers c) (Churn.online c))

let test_churn_spec_exponential_equivalence () =
  (* An all-exponential spec must reproduce the classic model draw for
     draw (one uniform per session through [Rng.exponential]): the
     trajectory below was recorded from the dedicated exponential
     constructor this one replaced. *)
  let c =
    exp_churn (Rng.create ~seed:84) ~peers:200 ~mean_uptime:300. ~mean_downtime:100. ~on:0.75
  in
  let changes, states = churn_trajectory c ~until:1000. in
  let bits = String.concat "" (List.map (fun b -> if b then "1" else "0") states) in
  Alcotest.(check int) "transition count" 1027 changes;
  Alcotest.(check int) "online at the end" 160 (Churn.online_count c);
  Alcotest.(check string) "end states" "1ff0e7d1b1b581b7051e81182d49c582"
    (Digest.to_hex (Digest.string bits))

let test_churn_spec_heavy_tailed () =
  let spec =
    session_spec
      (Pdht_dist.Session.Weibull { shape = 0.6 })
      (Pdht_dist.Session.Weibull { shape = 0.6 })
      ~mean_uptime:300. ~mean_downtime:150. ~on:(2. /. 3.)
  in
  let c = Churn.create (Rng.create ~seed:85) ~peers:1000 spec in
  Alcotest.(check (float 1e-9)) "availability from the spec means" (2. /. 3.)
    (Churn.availability c);
  let changes, states = churn_trajectory c ~until:3000. in
  Alcotest.(check bool) "transitions happened" true (changes > 1000);
  let frac =
    float_of_int (List.length (List.filter Fun.id states)) /. 1000.
  in
  Alcotest.(check (float 0.08)) "hovers near stationary availability" (2. /. 3.)
    frac

let test_churn_spec_validates () =
  let bad =
    session_spec Pdht_dist.Session.Exponential Pdht_dist.Session.Exponential
      ~mean_uptime:300. ~mean_downtime:100. ~on:1.5
  in
  match Churn.create (Rng.create ~seed:86) ~peers:10 bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted an out-of-range online fraction"

(* ------------------------------------------------------------------ *)
(* Storage *)

let key i = Pdht_util.Hashing.hash_to_key (string_of_int i)

let test_storage_put_get () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:"a" ~now:0. ~ttl:10.;
  Alcotest.(check (option string)) "hit" (Some "a") (Storage.get s ~key:(key 1) ~now:5.);
  Alcotest.(check (option string)) "miss other key" None (Storage.get s ~key:(key 2) ~now:5.)

let test_storage_expiry () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:10.;
  Alcotest.(check (option int)) "live before ttl" (Some 1) (Storage.get s ~key:(key 1) ~now:9.9);
  Alcotest.(check (option int)) "expired at ttl" None (Storage.get s ~key:(key 1) ~now:10.)

let test_storage_get_does_not_refresh () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:10.;
  ignore (Storage.get s ~key:(key 1) ~now:9.);
  Alcotest.(check (option int)) "expired despite get" None (Storage.get s ~key:(key 1) ~now:11.)

let test_storage_refresh_extends () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:10.;
  ignore (Storage.get_and_refresh s ~key:(key 1) ~now:9. ~ttl:10.);
  Alcotest.(check (option int)) "alive past original expiry" (Some 1)
    (Storage.get s ~key:(key 1) ~now:15.);
  Alcotest.(check (option int)) "new expiry is 19" None (Storage.get s ~key:(key 1) ~now:19.)

let test_storage_overwrite_updates_value_and_ttl () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:"old" ~now:0. ~ttl:5.;
  Storage.put s ~key:(key 1) ~value:"new" ~now:4. ~ttl:5.;
  Alcotest.(check (option string)) "new value" (Some "new") (Storage.get s ~key:(key 1) ~now:8.)

let test_storage_capacity_eviction () =
  let s = Storage.create ~capacity:3 () in
  (* Keys with staggered expiries; inserting a 4th evicts the one
     closest to expiry. *)
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:5.;
  Storage.put s ~key:(key 2) ~value:2 ~now:0. ~ttl:50.;
  Storage.put s ~key:(key 3) ~value:3 ~now:0. ~ttl:500.;
  Storage.put s ~key:(key 4) ~value:4 ~now:1. ~ttl:100.;
  Alcotest.(check (option int)) "soonest evicted" None (Storage.get s ~key:(key 1) ~now:1.);
  Alcotest.(check (option int)) "others kept (2)" (Some 2) (Storage.get s ~key:(key 2) ~now:1.);
  Alcotest.(check (option int)) "others kept (3)" (Some 3) (Storage.get s ~key:(key 3) ~now:1.);
  Alcotest.(check (option int)) "new key stored" (Some 4) (Storage.get s ~key:(key 4) ~now:1.)

let test_storage_prefers_purging_expired () =
  let s = Storage.create ~capacity:2 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:1.;
  Storage.put s ~key:(key 2) ~value:2 ~now:0. ~ttl:100.;
  (* Key 1 has expired by now = 2; the insert purges it rather than
     evicting the live key 2. *)
  Storage.put s ~key:(key 3) ~value:3 ~now:2. ~ttl:100.;
  Alcotest.(check (option int)) "live key survives" (Some 2) (Storage.get s ~key:(key 2) ~now:2.);
  Alcotest.(check (option int)) "new key present" (Some 3) (Storage.get s ~key:(key 3) ~now:2.)

let test_storage_live_count_and_fold () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:5.;
  Storage.put s ~key:(key 2) ~value:2 ~now:0. ~ttl:50.;
  Alcotest.(check int) "two live" 2 (Storage.live_count s ~now:1.);
  Alcotest.(check int) "one live after expiry" 1 (Storage.live_count s ~now:10.);
  let live = ref [] in
  Storage.iter_live s ~now:10. (fun k -> live := Pdht_util.Bitkey.to_int k :: !live);
  Alcotest.(check (list int)) "iter sees survivors" [ Pdht_util.Bitkey.to_int (key 2) ] !live

let test_storage_remove_and_expire () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:5.;
  Storage.put s ~key:(key 2) ~value:2 ~now:0. ~ttl:5.;
  Storage.remove s ~key:(key 1);
  Alcotest.(check (option int)) "removed" None (Storage.get s ~key:(key 1) ~now:0.);
  Alcotest.(check int) "expire purges the rest" 1 (Storage.expire s ~now:100.)

let test_storage_expiry_inspection () =
  let s = Storage.create ~capacity:10 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:2. ~ttl:5.;
  Alcotest.(check (option (float 1e-9))) "expiry instant" (Some 7.)
    (Storage.expiry s ~key:(key 1))

let test_storage_full_of_expired_purges_without_eviction () =
  (* A full store whose entries are ALL expired: the insert makes room
     purely by purging, so every expired entry is gone afterwards.  An
     eviction alone would drop only one of them and leave the other two
     physically present ([expiry] sees entries whether live or not). *)
  let s = Storage.create ~capacity:3 () in
  for i = 0 to 2 do
    Storage.put s ~key:(key i) ~value:i ~now:0. ~ttl:1.
  done;
  Storage.put s ~key:(key 10) ~value:10 ~now:10. ~ttl:1000.;
  List.iter
    (fun i ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "expired key %d purged" i)
        None
        (Storage.expiry s ~key:(key i)))
    [ 0; 1; 2 ];
  Alcotest.(check (option int)) "new key admitted" (Some 10) (Storage.get s ~key:(key 10) ~now:10.);
  Alcotest.(check int) "only the new key remains" 1 (Storage.live_count s ~now:10.)

(* Every put drops the expired entries first, so a store whose each
   entry expires before the next put never holds more than one, and
   keeps its first 8-slot table through 1,000 distinct keys: it retains
   exactly the words of a fresh store after one put.  A store that
   dropped expired entries only when full would grow to 256 slots. *)
let test_storage_put_reclaims_expired () =
  let words s = Obj.reachable_words (Obj.repr s) in
  let one = Storage.create ~capacity:100 () in
  Storage.put one ~key:(key 0) ~value:0 ~now:0. ~ttl:1.;
  let s = Storage.create ~capacity:100 () in
  for i = 0 to 999 do
    Storage.put s ~key:(key i) ~value:i ~now:(float_of_int (2 * i)) ~ttl:1.
  done;
  Alcotest.(check int) "retained words" (words one) (words s)

let test_storage_validation () =
  Alcotest.check_raises "capacity" (Invalid_argument "Storage.create: capacity must be >= 1")
    (fun () -> ignore (Storage.create ~capacity:0 () : int Storage.t));
  let s = Storage.create ~capacity:1 () in
  Alcotest.check_raises "ttl" (Invalid_argument "Storage.put: ttl must be positive")
    (fun () -> Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:0.)

(* A NaN expiry compares false both ways, so it could neither expire nor
   keep the expiry order; both TTL-taking operations refuse it with the
   non-positive ones, and still accept [forever] (1e15). *)
let test_storage_ttl_must_be_positive () =
  let s = Storage.create ~capacity:4 () in
  Storage.put s ~key:(key 1) ~value:1 ~now:0. ~ttl:5.;
  List.iter
    (fun ttl ->
      let name = Printf.sprintf "ttl %g" ttl in
      Alcotest.check_raises ("put " ^ name) (Invalid_argument "Storage.put: ttl must be positive")
        (fun () -> Storage.put s ~key:(key 2) ~value:2 ~now:1. ~ttl);
      Alcotest.check_raises ("refresh " ^ name)
        (Invalid_argument "Storage.get_and_refresh: ttl must be positive") (fun () ->
          ignore (Storage.get_and_refresh s ~key:(key 1) ~now:1. ~ttl)))
    [ Float.nan; 0.; -1.; neg_infinity ];
  Alcotest.(check (option (float 0.))) "rejected refresh leaves the expiry" (Some 5.)
    (Storage.expiry s ~key:(key 1));
  Alcotest.(check (option (float 0.))) "rejected put stores nothing" None
    (Storage.expiry s ~key:(key 2));
  Storage.put s ~key:(key 2) ~value:2 ~now:1. ~ttl:1e15;
  Alcotest.(check (option int)) "forever refresh" (Some 1)
    (Storage.get_and_refresh s ~key:(key 1) ~now:1. ~ttl:1e15);
  Alcotest.(check (option (float 0.))) "forever expiry" (Some (1. +. 1e15))
    (Storage.expiry s ~key:(key 2))

(* ------------------------------------------------------------------ *)
(* Chord *)

let test_chord_successor_ordering () =
  let rng = Rng.create ~seed:90 in
  let c = Chord.create rng ~members:200 in
  (* The successor of any key has the smallest id >= key (or wraps). *)
  for _ = 1 to 100 do
    let k = Bitkey.random rng in
    let succ = Chord.successor_member c k in
    let id = Chord.id_of c succ in
    for m = 0 to 199 do
      let idm = Chord.id_of c m in
      if Bitkey.compare idm k >= 0 && Bitkey.compare id k >= 0 then
        Alcotest.(check bool) "no closer successor" true (Bitkey.compare id idm <= 0)
    done
  done

let test_chord_lookup_reaches_responsible () =
  let rng = Rng.create ~seed:91 in
  let c = Chord.create rng ~members:300 in
  for _ = 1 to 200 do
    let k = Bitkey.random rng in
    let source = Rng.int rng 300 in
    let o = Chord.lookup c ~online:all_online ~source ~key:k in
    Alcotest.(check (option int)) "reaches successor"
      (Some (Chord.successor_member c k)) o.Chord.responsible
  done

let test_chord_lookup_logarithmic () =
  let rng = Rng.create ~seed:92 in
  let c = Chord.create rng ~members:1024 in
  let total_hops = ref 0 in
  let trials = 300 in
  for _ = 1 to trials do
    let k = Bitkey.random rng in
    let o = Chord.lookup c ~online:all_online ~source:(Rng.int rng 1024) ~key:k in
    total_hops := !total_hops + o.Chord.hops
  done;
  let mean = float_of_int !total_hops /. float_of_int trials in
  (* Eq. 7 expectation: 0.5 * log2 1024 = 5 hops. *)
  Alcotest.(check bool) (Printf.sprintf "mean hops %.2f within [3,8]" mean) true
    (mean >= 3. && mean <= 8.)

let test_chord_lookup_self_responsible () =
  let rng = Rng.create ~seed:93 in
  let c = Chord.create rng ~members:50 in
  let m = 7 in
  let o = Chord.lookup c ~online:all_online ~source:m ~key:(Chord.id_of c m) in
  Alcotest.(check (option int)) "own id" (Some m) o.Chord.responsible;
  Alcotest.(check int) "zero messages" 0 o.Chord.messages

let test_chord_lookup_under_churn () =
  let rng = Rng.create ~seed:94 in
  let c = Chord.create rng ~members:300 in
  let offline = Array.init 300 (fun _ -> Rng.unit_float rng < 0.3) in
  let online p = not offline.(p) in
  let successes = ref 0 in
  let attempts = ref 0 in
  for _ = 1 to 200 do
    let source = Rng.int rng 300 in
    if online source then begin
      incr attempts;
      let k = Bitkey.random rng in
      let o = Chord.lookup c ~online ~source ~key:k in
      match o.Chord.responsible with
      | Some r ->
          Alcotest.(check bool) "responsible is online" true (online r);
          incr successes
      | None -> ()
    end
  done;
  Alcotest.(check bool) "lookups survive 30% churn" true (!successes = !attempts)

let test_chord_successors () =
  let rng = Rng.create ~seed:95 in
  let c = Chord.create rng ~members:50 in
  let k = Bitkey.random rng in
  let succ = Chord.successors c k ~k:5 in
  Alcotest.(check int) "five successors" 5 (Array.length succ);
  Alcotest.(check int) "first is the owner" (Chord.successor_member c k) succ.(0);
  let distinct = Array.to_list succ |> List.sort_uniq compare in
  Alcotest.(check int) "distinct" 5 (List.length distinct);
  Alcotest.(check int) "capped at members" 50 (Array.length (Chord.successors c k ~k:100))

let test_chord_probe_repairs_fingers () =
  let rng = Rng.create ~seed:96 in
  let c = Chord.create rng ~members:200 in
  let offline = Array.make 200 false in
  (* Knock out a third of members, then probe heavily. *)
  for m = 0 to 199 do
    if m mod 3 = 0 then offline.(m) <- true
  done;
  let online p = not offline.(p) in
  for m = 0 to 199 do
    if online m then ignore (Chord.probe_and_repair c rng ~online ~peer:m ~probes:400)
  done;
  (* After heavy probing most finger entries of online peers are online. *)
  let stale = ref 0 and total = ref 0 in
  for m = 0 to 199 do
    if online m then
      Array.iter
        (fun f ->
          incr total;
          if not (online f) then incr stale)
        (Chord.finger_targets c m)
  done;
  let stale_frac = float_of_int !stale /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "stale fraction %.3f < 0.05" stale_frac)
    true (stale_frac < 0.05)

let test_chord_single_member () =
  let rng = Rng.create ~seed:97 in
  let c = Chord.create rng ~members:1 in
  let o = Chord.lookup c ~online:all_online ~source:0 ~key:(Bitkey.random rng) in
  Alcotest.(check (option int)) "self" (Some 0) o.Chord.responsible

(* ------------------------------------------------------------------ *)
(* P-Grid *)

let test_pgrid_paths_partition_keyspace () =
  let rng = Rng.create ~seed:100 in
  let g = Pgrid.build rng ~members:64 ~leaf_size:1 ~refs_per_level:3 in
  (* Every key has exactly one responsible leaf. *)
  for _ = 1 to 200 do
    let k = Bitkey.random rng in
    let peers = Pgrid.responsible_peers g k in
    Alcotest.(check int) "singleton leaf" 1 (Array.length peers);
    Alcotest.(check bool) "path prefixes key" true
      (let path = Pgrid.path_of g peers.(0) in
       let rec check i =
         i >= String.length path || (Bitkey.bit k i = (path.[i] = '1') && check (i + 1))
       in
       check 0)
  done

let test_pgrid_balanced_depth () =
  let rng = Rng.create ~seed:101 in
  let g = Pgrid.build rng ~members:128 ~leaf_size:1 ~refs_per_level:3 in
  for m = 0 to 127 do
    Alcotest.(check int) "balanced tree depth" 7 (String.length (Pgrid.path_of g m))
  done;
  Alcotest.(check int) "max depth" 7 (Pgrid.stats g).max_path_length

let test_pgrid_leaf_groups_replicate () =
  let rng = Rng.create ~seed:102 in
  let g = Pgrid.build rng ~members:100 ~leaf_size:10 ~refs_per_level:3 in
  let k = Bitkey.random rng in
  let group = Pgrid.responsible_peers g k in
  Alcotest.(check bool) "group within leaf_size bound" true
    (Array.length group >= 1 && Array.length group <= 10);
  (* All group members share the same path. *)
  let path = Pgrid.path_of g group.(0) in
  Array.iter
    (fun m -> Alcotest.(check string) "same path" path (Pgrid.path_of g m))
    group;
  (* Replica subnetworks keep the group, so every key of the leaf gets
     the one shared array rather than a copy each. *)
  Alcotest.(check bool) "one shared array" true (Pgrid.responsible_peers g k == group)

let test_pgrid_lookup_reaches_leaf () =
  let rng = Rng.create ~seed:103 in
  let g = Pgrid.build rng ~members:256 ~leaf_size:1 ~refs_per_level:3 in
  for _ = 1 to 200 do
    let k = Bitkey.random rng in
    let source = Rng.int rng 256 in
    let o = Pgrid.lookup g rng ~online:all_online ~source ~key:k in
    match o.Pgrid.responsible with
    | Some r ->
        let expected = Pgrid.responsible_peers g k in
        Alcotest.(check bool) "landed in responsible leaf" true
          (Array.exists (fun m -> m = r) expected)
    | None -> Alcotest.fail "lookup failed with everyone online"
  done

let test_pgrid_lookup_hop_bound () =
  let rng = Rng.create ~seed:104 in
  let g = Pgrid.build rng ~members:256 ~leaf_size:1 ~refs_per_level:3 in
  for _ = 1 to 100 do
    let k = Bitkey.random rng in
    let o = Pgrid.lookup g rng ~online:all_online ~source:(Rng.int rng 256) ~key:k in
    Alcotest.(check bool) "hops <= max path length" true
      (o.Pgrid.hops <= (Pgrid.stats g).max_path_length)
  done

let test_pgrid_lookup_under_churn () =
  let rng = Rng.create ~seed:105 in
  let g = Pgrid.build rng ~members:256 ~leaf_size:4 ~refs_per_level:5 in
  let offline = Array.init 256 (fun _ -> Rng.unit_float rng < 0.25) in
  let online p = not offline.(p) in
  let ok = ref 0 and attempts = ref 0 in
  for _ = 1 to 300 do
    let source = Rng.int rng 256 in
    if online source then begin
      incr attempts;
      let k = Bitkey.random rng in
      let o = Pgrid.lookup g rng ~online ~source ~key:k in
      match o.Pgrid.responsible with
      | Some r -> if online r then incr ok
      | None -> ()
    end
  done;
  (* With 5 refs per level and 25% churn, the vast majority of lookups
     must still succeed. *)
  let rate = float_of_int !ok /. float_of_int !attempts in
  Alcotest.(check bool) (Printf.sprintf "success rate %.2f > 0.9" rate) true (rate > 0.9)

let test_pgrid_refs_point_to_complement () =
  let rng = Rng.create ~seed:106 in
  let g = Pgrid.build rng ~members:64 ~leaf_size:2 ~refs_per_level:3 in
  for m = 0 to 63 do
    let path = Pgrid.path_of g m in
    for l = 0 to String.length path - 1 do
      Array.iter
        (fun r ->
          let rpath = Pgrid.path_of g r in
          Alcotest.(check string) "agrees on prefix" (String.sub path 0 l)
            (String.sub rpath 0 l);
          Alcotest.(check bool) "differs at level bit" true (rpath.[l] <> path.[l]))
        (Pgrid.refs_at g ~peer:m ~level:l)
    done
  done

let test_pgrid_probe_repair () =
  let rng = Rng.create ~seed:107 in
  let g = Pgrid.build rng ~members:128 ~leaf_size:2 ~refs_per_level:4 in
  let offline = Array.init 128 (fun i -> i mod 4 = 0) in
  let online p = not offline.(p) in
  for m = 0 to 127 do
    if online m then ignore (Pgrid.probe_and_repair g rng ~online ~peer:m ~probes:300)
  done;
  let stale = ref 0 and total = ref 0 in
  for m = 0 to 127 do
    if online m then
      for l = 0 to String.length (Pgrid.path_of g m) - 1 do
        Array.iter
          (fun r ->
            incr total;
            if not (online r) then incr stale)
          (Pgrid.refs_at g ~peer:m ~level:l)
      done
  done;
  let frac = float_of_int !stale /. float_of_int !total in
  Alcotest.(check bool) (Printf.sprintf "stale %.3f < 0.08" frac) true (frac < 0.08)

(* [responsible] answers with the first online member of the group in
   the split's order, not the lowest index: the goldens pin that order. *)
let test_pgrid_responsible_first_online () =
  let rng = Rng.create ~seed:3 in
  let g = Pgrid.build rng ~members:100 ~leaf_size:10 ~refs_per_level:3 in
  let key = Bitkey.random rng in
  Alcotest.(check (array int)) "split order" [| 67; 15; 18; 7; 31; 64 |]
    (Pgrid.responsible_peers g key);
  Alcotest.(check (option int)) "all online" (Some 67) (Pgrid.responsible g ~online:all_online key);
  Alcotest.(check (option int)) "first two offline" (Some 18)
    (Pgrid.responsible g ~online:(fun p -> p <> 67 && p <> 15) key);
  let offline = Array.init 100 (fun _ -> Rng.bool rng) in
  for _ = 1 to 200 do
    let key = Bitkey.random rng in
    let first_online =
      Array.fold_left
        (fun acc p -> if acc = None && not offline.(p) then Some p else acc)
        None (Pgrid.responsible_peers g key)
    in
    Alcotest.(check (option int)) "first online member" first_online
      (Pgrid.responsible g ~online:(fun p -> not offline.(p)) key)
  done

let test_pgrid_single_member () =
  let rng = Rng.create ~seed:108 in
  let g = Pgrid.build rng ~members:1 ~leaf_size:1 ~refs_per_level:1 in
  Alcotest.(check string) "empty path" "" (Pgrid.path_of g 0);
  let o = Pgrid.lookup g rng ~online:all_online ~source:0 ~key:(Bitkey.random rng) in
  Alcotest.(check (option int)) "self-lookup" (Some 0) o.Pgrid.responsible

(* ------------------------------------------------------------------ *)
(* Dynamic Chord (joins, leaves, stabilization) *)

let grow_ring rng t ~target =
  let first = Chord.bootstrap t in
  let members = ref [ first ] in
  while Chord.node_count t < target do
    let alive = List.filter (Chord.is_member t) !members in
    let via = List.nth alive (Rng.int rng (List.length alive)) in
    (match Chord.join t ~via with
    | Ok (node, _) -> members := node :: !members
    | Error _ -> ());
    ignore (Chord.stabilize t rng)
  done;
  for _ = 1 to 15 do
    ignore (Chord.stabilize t rng)
  done;
  !members

let correct_lookup_count rng t members ~trials =
  let alive = List.filter (Chord.is_member t) members in
  let ok = ref 0 in
  for _ = 1 to trials do
    let key = Bitkey.random rng in
    let src = List.nth alive (Rng.int rng (List.length alive)) in
    let o = Chord.route t ~source:src ~key in
    if o.Chord.responsible = Chord.ideal_responsible t key then incr ok
  done;
  !ok

let test_dynamic_bootstrap_and_join () =
  let rng = Rng.create ~seed:150 in
  let t = Chord.empty rng ~capacity:50 in
  let members = grow_ring rng t ~target:30 in
  Alcotest.(check int) "thirty nodes" 30 (Chord.node_count t);
  Alcotest.(check bool) "ring consistent after growth" true (Chord.ring_consistent t);
  Alcotest.(check int) "all lookups correct" 100 (correct_lookup_count rng t members ~trials:100)

let test_dynamic_graceful_leave () =
  let rng = Rng.create ~seed:151 in
  let t = Chord.empty rng ~capacity:40 in
  let members = grow_ring rng t ~target:25 in
  let alive = List.filter (Chord.is_member t) members in
  List.iteri (fun i m -> if i mod 5 = 0 then ignore (Chord.leave t ~node:m)) alive;
  for _ = 1 to 10 do
    ignore (Chord.stabilize t rng)
  done;
  Alcotest.(check int) "five departed" 20 (Chord.node_count t);
  Alcotest.(check bool) "still consistent" true (Chord.ring_consistent t);
  Alcotest.(check int) "lookups stay correct" 100 (correct_lookup_count rng t members ~trials:100)

let test_dynamic_crash_recovery () =
  let rng = Rng.create ~seed:152 in
  let t = Chord.empty rng ~capacity:120 in
  let members = grow_ring rng t ~target:80 in
  let alive = List.filter (Chord.is_member t) members in
  List.iteri (fun i m -> if i mod 4 = 0 then Chord.crash t ~node:m) alive;
  Alcotest.(check bool) "broken right after crashes" false (Chord.ring_consistent t);
  for _ = 1 to 25 do
    ignore (Chord.stabilize t rng)
  done;
  Alcotest.(check bool) "stabilization heals the ring" true (Chord.ring_consistent t);
  Alcotest.(check int) "lookups correct after healing" 100
    (correct_lookup_count rng t members ~trials:100)

let test_dynamic_join_via_dead_rejected () =
  let rng = Rng.create ~seed:153 in
  let t = Chord.empty rng ~capacity:10 in
  let first = Chord.bootstrap t in
  Chord.crash t ~node:first;
  match Chord.join t ~via:first with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "joining via a dead node must fail"

let test_dynamic_capacity_limit () =
  let rng = Rng.create ~seed:154 in
  let t = Chord.empty rng ~capacity:2 in
  let first = Chord.bootstrap t in
  (match Chord.join t ~via:first with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  for _ = 1 to 5 do
    ignore (Chord.stabilize t rng)
  done;
  match Chord.join t ~via:first with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ring beyond capacity"

(* ------------------------------------------------------------------ *)
(* P-Grid bootstrap *)

let converged_bootstrap ~seed ~members ~meetings =
  let rng = Rng.create ~seed in
  let t = Pgrid.unspecialized ~members in
  Pgrid.run_exchanges t rng ~meetings;
  (rng, t)

(* The peers whose current path prefixes the key (a scan: a grown trie
   has no split segments). *)
let grown_responsible t key =
  List.filter
    (fun p ->
      let path = Pgrid.path_of t p in
      Bitkey.matches_prefix key ~prefix:(Bitkey.of_bits path) ~len:(String.length path))
    (List.init (Pgrid.members t) Fun.id)

let test_bootstrap_initial_state () =
  let t = Pgrid.unspecialized ~members:10 in
  for p = 0 to 9 do
    Alcotest.(check string) "empty path" "" (Pgrid.path_of t p)
  done;
  (* With empty paths, everyone is responsible for everything. *)
  let rng = Rng.create ~seed:140 in
  Alcotest.(check int) "all responsible" 10
    (List.length (grown_responsible t (Bitkey.random rng)))

let test_bootstrap_coverage_invariant () =
  (* At every stage of the bootstrap every key keeps a responsible
     peer — splits and specializations never abandon a region. *)
  let rng = Rng.create ~seed:141 in
  let t = Pgrid.unspecialized ~members:64 in
  for _ = 1 to 20 do
    Pgrid.run_exchanges t rng ~meetings:50;
    for _ = 1 to 50 do
      let key = Bitkey.random rng in
      Alcotest.(check bool) "some peer responsible" true (grown_responsible t key <> [])
    done
  done

let test_bootstrap_converges_to_log_depth () =
  let _, t = converged_bootstrap ~seed:142 ~members:256 ~meetings:4_000 in
  let s = Pgrid.stats t in
  (* log2 256 = 8; allow a generous band for the unbalanced basic
     protocol. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean depth %.2f in [6,11]" s.Pgrid.mean_path_length)
    true
    (s.Pgrid.mean_path_length >= 6. && s.Pgrid.mean_path_length <= 11.);
  Alcotest.(check bool) "most paths distinct" true (s.Pgrid.distinct_paths >= 240)

let test_bootstrap_lookups_succeed () =
  let rng, t = converged_bootstrap ~seed:143 ~members:256 ~meetings:4_000 in
  let rate = Pgrid.lookup_success_rate t rng ~trials:300 in
  Alcotest.(check bool) (Printf.sprintf "success %.3f > 0.95" rate) true (rate > 0.95)

let test_bootstrap_lookups_succeed_early () =
  (* Even a half-built trie routes: coverage holds throughout. *)
  let rng, t = converged_bootstrap ~seed:144 ~members:256 ~meetings:600 in
  let rate = Pgrid.lookup_success_rate t rng ~trials:300 in
  Alcotest.(check bool) (Printf.sprintf "early success %.3f > 0.8" rate) true (rate > 0.8)

let test_bootstrap_refs_point_across () =
  let _, t = converged_bootstrap ~seed:145 ~members:128 ~meetings:3_000 in
  (* A reference recorded at level l was on the complementary side at
     exchange time; after further specialization it must still agree on
     the first l bits or have moved deeper only. *)
  for p = 0 to 127 do
    let path = Pgrid.path_of t p in
    for l = 0 to min (String.length path - 1) 5 do
      Array.iter
        (fun r ->
          let rpath = Pgrid.path_of t r in
          Alcotest.(check bool) "ref still shares the level prefix" true
            (String.length rpath >= l
            && String.equal (String.sub rpath 0 l) (String.sub path 0 l)))
        (Pgrid.refs_at t ~peer:p ~level:l)
    done
  done

let test_bootstrap_single_member () =
  let rng = Rng.create ~seed:146 in
  let t = Pgrid.unspecialized ~members:1 in
  Pgrid.run_exchanges t rng ~meetings:100;
  Alcotest.(check string) "alone, never splits" "" (Pgrid.path_of t 0)

(* ------------------------------------------------------------------ *)
(* Kademlia *)

module Kademlia = Pdht_dht.Kademlia

let test_kademlia_closest_members_ordering () =
  let rng = Rng.create ~seed:120 in
  let k = Kademlia.create rng ~members:100 () in
  let key = Bitkey.random rng in
  let closest = Kademlia.closest_members k key ~k:10 in
  Alcotest.(check int) "ten members" 10 (Array.length closest);
  (* Nearest-first in XOR distance, and truly the global minimum. *)
  for i = 0 to 8 do
    Alcotest.(check bool) "sorted by xor distance" true
      (Bitkey.xor_distance key (Kademlia.id_of k closest.(i))
       <= Bitkey.xor_distance key (Kademlia.id_of k closest.(i + 1)))
  done;
  for m = 0 to 99 do
    if not (Array.exists (fun c -> c = m) closest) then
      Alcotest.(check bool) "no outsider is closer" true
        (Bitkey.xor_distance key (Kademlia.id_of k m)
         >= Bitkey.xor_distance key (Kademlia.id_of k closest.(9)))
  done

let test_kademlia_lookup_reaches_closest () =
  let rng = Rng.create ~seed:121 in
  let k = Kademlia.create rng ~members:300 () in
  let ok = ref 0 in
  for _ = 1 to 200 do
    let key = Bitkey.random rng in
    let source = Rng.int rng 300 in
    let o = Kademlia.lookup k ~online:all_online ~source ~key in
    let expected = (Kademlia.closest_members k key ~k:1).(0) in
    if o.Kademlia.responsible = Some expected then incr ok
  done;
  Alcotest.(check int) "always converges to the XOR-closest member" 200 !ok

let test_kademlia_lookup_logarithmic_rounds () =
  let rng = Rng.create ~seed:122 in
  let k = Kademlia.create rng ~members:1024 () in
  let rounds = ref 0 in
  for _ = 1 to 100 do
    let key = Bitkey.random rng in
    let o = Kademlia.lookup k ~online:all_online ~source:(Rng.int rng 1024) ~key in
    rounds := !rounds + o.Kademlia.hops
  done;
  let mean = float_of_int !rounds /. 100. in
  Alcotest.(check bool) (Printf.sprintf "mean rounds %.2f within [1,7]" mean) true
    (mean >= 1. && mean <= 7.)

let test_kademlia_lookup_under_churn () =
  let rng = Rng.create ~seed:123 in
  let k = Kademlia.create rng ~members:256 () in
  let offline = Array.init 256 (fun _ -> Rng.unit_float rng < 0.2) in
  let online p = not offline.(p) in
  let ok = ref 0 and attempts = ref 0 in
  for _ = 1 to 200 do
    let source = Rng.int rng 256 in
    if online source then begin
      incr attempts;
      let key = Bitkey.random rng in
      let o = Kademlia.lookup k ~online ~source ~key in
      if o.Kademlia.responsible <> None then incr ok
    end
  done;
  let rate = float_of_int !ok /. float_of_int !attempts in
  Alcotest.(check bool) (Printf.sprintf "success %.2f > 0.95 at 20%% churn" rate) true
    (rate > 0.95)

let test_kademlia_routing_table_bounded () =
  let rng = Rng.create ~seed:124 in
  let k = Kademlia.create rng ~members:200 ~bucket_size:5 () in
  for m = 0 to 199 do
    Alcotest.(check bool) "buckets bounded" true
      (Kademlia.routing_table_size k m <= 5 * Bitkey.width);
    Alcotest.(check bool) "has some buckets" true (Kademlia.bucket_count k m > 0)
  done

let test_kademlia_probe_repair () =
  let rng = Rng.create ~seed:125 in
  let k = Kademlia.create rng ~members:128 ~bucket_size:4 () in
  let offline = Array.init 128 (fun i -> i mod 4 = 0) in
  let online p = not offline.(p) in
  for m = 0 to 127 do
    if online m then ignore (Kademlia.probe_and_repair k rng ~online ~peer:m ~probes:200)
  done;
  (* Probing must have repaired most of the stale entries it can find a
     same-bucket replacement for. *)
  let o = Kademlia.lookup k ~online ~source:1 ~key:(Bitkey.random rng) in
  Alcotest.(check bool) "lookup still works after repair" true
    (o.Kademlia.responsible <> None)

(* ------------------------------------------------------------------ *)
(* Kademlia live routing tables *)

let test_kademlia_live_enable_consumes_no_rng () =
  let rng_a = Rng.create ~seed:220 and rng_b = Rng.create ~seed:220 in
  let _frozen = Kademlia.create rng_a ~members:64 () in
  let live = Kademlia.create rng_b ~members:64 () in
  Kademlia.enable_live_routing live;
  Alcotest.(check bool) "live mode on" true (Kademlia.live_stats live <> None);
  (* Both streams must sit at exactly the same position. *)
  Alcotest.(check int) "enabling drew nothing" (Rng.int rng_a 1_000_000)
    (Rng.int rng_b 1_000_000);
  Kademlia.enable_live_routing live;
  Alcotest.(check bool) "idempotent" true (Kademlia.live_stats live <> None)

let test_kademlia_live_contacts_maintain_buckets () =
  let rng = Rng.create ~seed:221 in
  let k = Kademlia.create rng ~members:128 ~bucket_size:4 () in
  Kademlia.enable_live_routing k;
  for _ = 1 to 200 do
    ignore
      (Kademlia.lookup k ~online:all_online ~source:(Rng.int rng 128)
         ~key:(Bitkey.random rng))
  done;
  match Kademlia.live_stats k with
  | None -> Alcotest.fail "live stats missing in live mode"
  | Some s ->
      Alcotest.(check bool) "contacts promoted entries" true
        (s.Kademlia.promotions > 0);
      Alcotest.(check int) "nobody dead, nobody evicted" 0 s.Kademlia.evictions;
      (* Full buckets probed their LRS entries; everyone answered, so
         each probe cost exactly one message. *)
      Alcotest.(check int) "alive probes cost one message each"
        s.Kademlia.probes s.Kademlia.probe_messages;
      Alcotest.(check int) "probe cost drains once" s.Kademlia.probe_messages
        (Kademlia.drain_probe_cost k);
      Alcotest.(check int) "second drain is empty" 0 (Kademlia.drain_probe_cost k)

let test_kademlia_live_dead_entries_churned_out () =
  let rng = Rng.create ~seed:222 in
  let members = 256 in
  let k = Kademlia.create rng ~members ~bucket_size:4 () in
  Kademlia.enable_live_routing ~probe_retries:2 k;
  let offline = Array.init members (fun _ -> Rng.unit_float rng < 0.3) in
  let online p = not offline.(p) in
  (* Lookups route around dead contacts and record them. *)
  for _ = 1 to 150 do
    let source = Rng.int rng members in
    if online source then
      ignore (Kademlia.lookup k ~online ~source ~key:(Bitkey.random rng))
  done;
  let contacts0, dead0 = Kademlia.contact_stats k in
  Alcotest.(check bool) "lookups saw stale routes" true
    (contacts0 > 0 && dead0 > 0);
  (* Maintenance probing then churns the dead entries out... *)
  for _ = 1 to 3 do
    for m = 0 to members - 1 do
      if online m then
        ignore (Kademlia.probe_and_repair k rng ~online ~peer:m ~probes:4)
    done
  done;
  (match Kademlia.live_stats k with
  | None -> Alcotest.fail "live stats missing"
  | Some s ->
      Alcotest.(check bool) "dead entries evicted" true (s.Kademlia.evictions > 0);
      Alcotest.(check bool) "dead probes cost the 3-attempt ladder" true
        (s.Kademlia.probe_messages > s.Kademlia.probes));
  (* ...so fresh lookups hit fewer of them. *)
  for _ = 1 to 150 do
    let source = Rng.int rng members in
    if online source then
      ignore (Kademlia.lookup k ~online ~source ~key:(Bitkey.random rng))
  done;
  let contacts1, dead1 = Kademlia.contact_stats k in
  let rate0 = float_of_int dead0 /. float_of_int contacts0 in
  let rate1 =
    float_of_int (dead1 - dead0) /. float_of_int (contacts1 - contacts0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "stale-route rate dropped (%.3f -> %.3f)" rate0 rate1)
    true (rate1 < rate0)

let test_kademlia_live_tables_survive_and_recover () =
  (* Two-phase churn discipline.  Phase 1: lookups alone never shrink a
     table — a lookup timeout demotes the entry to least-recently-seen
     instead of dropping it (weak evidence), and a contact-driven probe
     only ever *replaces* a dead LRS with the newcomer.  Phase 2:
     maintenance probes may evict confirmed-dead entries outright
     (shrinking sparse buckets while their range is offline), but once
     churn heals, contact inserts and refresh sweeps grow every table
     back to at least its original size. *)
  let rng = Rng.create ~seed:223 in
  let members = 128 in
  let k = Kademlia.create rng ~members ~bucket_size:4 () in
  Kademlia.enable_live_routing k;
  let before = Array.init members (Kademlia.routing_table_size k) in
  let offline = Array.init members (fun _ -> Rng.unit_float rng < 0.6) in
  let online p = not offline.(p) in
  (* Phase 1: lookup traffic only. *)
  for _ = 1 to 3 do
    for m = 0 to members - 1 do
      if online m then
        ignore (Kademlia.lookup k ~online ~source:m ~key:(Bitkey.random rng))
    done
  done;
  for m = 0 to members - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "member %d kept its entries under lookups" m)
      true
      (Kademlia.routing_table_size k m >= before.(m))
  done;
  (* Phase 2: maintenance probes under churn, then the churn heals. *)
  for _ = 1 to 5 do
    for m = 0 to members - 1 do
      if online m then begin
        ignore (Kademlia.lookup k ~online ~source:m ~key:(Bitkey.random rng));
        ignore (Kademlia.probe_and_repair k rng ~online ~peer:m ~probes:8)
      end
    done
  done;
  (* Sweep until every table is back to size (the first sweep only
     resets the touched flags; later ones back-fill each still-untouched
     range by bounded sampling, so a sparse range can need several
     passes before the sampler hits its lone member). *)
  let recovered () =
    let ok = ref true in
    for m = 0 to members - 1 do
      if Kademlia.routing_table_size k m < before.(m) then ok := false
    done;
    !ok
  in
  let sweeps = ref 0 in
  while (not (recovered ())) && !sweeps < 50 do
    incr sweeps;
    ignore (Kademlia.refresh_sweep k rng ~online:all_online)
  done;
  for m = 0 to members - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "member %d table recovered after churn" m)
      true
      (Kademlia.routing_table_size k m >= before.(m))
  done

let test_kademlia_refresh_sweep () =
  let rng = Rng.create ~seed:224 in
  let frozen = Kademlia.create rng ~members:64 () in
  Alcotest.(check int) "frozen mode never refreshes" 0
    (Kademlia.refresh_sweep frozen rng ~online:all_online);
  let k = Kademlia.create rng ~members:64 ~bucket_size:4 () in
  Kademlia.enable_live_routing k;
  (* Enabling marks nothing touched, so the first sweep refreshes every
     non-empty range. *)
  let cost = Kademlia.refresh_sweep k rng ~online:all_online in
  Alcotest.(check bool) "stale ranges refreshed" true (cost > 0);
  match Kademlia.live_stats k with
  | None -> Alcotest.fail "live stats missing"
  | Some s -> Alcotest.(check int) "cost accounted" cost s.Kademlia.refresh_messages

(* ------------------------------------------------------------------ *)
(* Pastry *)

module Pastry = Pdht_dht.Pastry

let test_pastry_numerically_closest () =
  let rng = Rng.create ~seed:130 in
  let p = Pastry.create rng ~members:200 () in
  for _ = 1 to 100 do
    let key = Bitkey.random rng in
    let owner = Pastry.numerically_closest p key in
    let group = Pastry.replica_group p key ~k:1 in
    Alcotest.(check int) "replica_group head = owner" owner group.(0)
  done

let test_pastry_lookup_reaches_owner () =
  let rng = Rng.create ~seed:131 in
  let p = Pastry.create rng ~members:300 () in
  let ok = ref 0 in
  for _ = 1 to 200 do
    let key = Bitkey.random rng in
    let source = Rng.int rng 300 in
    let o = Pastry.lookup p ~online:all_online ~source ~key in
    if o.Pastry.responsible = Some (Pastry.numerically_closest p key) then incr ok
  done;
  Alcotest.(check int) "always reaches the numerically closest" 200 !ok

let test_pastry_lookup_prefix_speed () =
  let rng = Rng.create ~seed:132 in
  let p = Pastry.create rng ~members:1024 () in
  let hops = ref 0 in
  for _ = 1 to 100 do
    let key = Bitkey.random rng in
    let o = Pastry.lookup p ~online:all_online ~source:(Rng.int rng 1024) ~key in
    hops := !hops + o.Pastry.hops
  done;
  let mean = float_of_int !hops /. 100. in
  (* Base-4 digits: ~log4(1024) = 5 hops; allow generous slack. *)
  Alcotest.(check bool) (Printf.sprintf "mean hops %.2f within [2,8]" mean) true
    (mean >= 2. && mean <= 8.)

let test_pastry_leaf_set_shape () =
  let rng = Rng.create ~seed:133 in
  let p = Pastry.create rng ~members:100 ~leaf_set_size:4 () in
  for m = 0 to 99 do
    let ls = Pastry.leaf_set p m in
    Alcotest.(check bool) "bounded" true (Array.length ls <= 8);
    Alcotest.(check bool) "non-empty" true (Array.length ls > 0);
    Array.iter (fun x -> Alcotest.(check bool) "no self" true (x <> m)) ls
  done

let test_pastry_lookup_under_churn () =
  let rng = Rng.create ~seed:134 in
  let p = Pastry.create rng ~members:256 () in
  let offline = Array.init 256 (fun _ -> Rng.unit_float rng < 0.2) in
  let online q = not offline.(q) in
  let ok = ref 0 and attempts = ref 0 in
  for _ = 1 to 200 do
    let source = Rng.int rng 256 in
    if online source then begin
      incr attempts;
      let key = Bitkey.random rng in
      let o = Pastry.lookup p ~online ~source ~key in
      if o.Pastry.responsible <> None then incr ok
    end
  done;
  let rate = float_of_int !ok /. float_of_int !attempts in
  Alcotest.(check bool) (Printf.sprintf "success %.2f > 0.9 at 20%% churn" rate) true
    (rate > 0.9)

let test_pastry_replica_group_distinct () =
  let rng = Rng.create ~seed:135 in
  let p = Pastry.create rng ~members:64 () in
  let key = Bitkey.random rng in
  let group = Pastry.replica_group p key ~k:10 in
  let distinct = Array.to_list group |> List.sort_uniq compare in
  Alcotest.(check int) "distinct members" 10 (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Facade + maintenance *)

let test_dht_facade_backends_agree_on_interface () =
  List.iter
    (fun backend ->
      let rng = Rng.create ~seed:110 in
      let dht = Dht.create rng ~backend ~members:64 ~leaf_size:4 () in
      Alcotest.(check int) "members" 64 (Dht.members dht);
      let k = Bitkey.random rng in
      let o = Dht.lookup dht rng ~online:all_online ~source:0 ~key:k in
      Alcotest.(check bool) "lookup succeeds" true (o.Dht.responsible <> None);
      let group = Dht.replica_group dht ~repl:4 k in
      Alcotest.(check bool) "replica group non-empty" true (Array.length group >= 1);
      (* The lookup's answer must belong to the key's replica group (for
         Chord under no churn it IS the head of the group). *)
      match o.Dht.responsible with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: responsible inside replica group" (Dht.backend_label backend))
            true
            (Array.exists (fun m -> m = r) (Dht.replica_group dht ~repl:8 k))
      | None -> ())
    [ Dht.Chord_backend; Dht.Pgrid_backend; Dht.Kademlia_backend; Dht.Pastry_backend ]

let test_dht_tiny_populations () =
  (* Every backend must behave with 1, 2 and 3 members. *)
  List.iter
    (fun backend ->
      List.iter
        (fun members ->
          let rng = Rng.create ~seed:(160 + members) in
          let dht = Dht.create rng ~backend ~members ~leaf_size:1 () in
          let key = Bitkey.random rng in
          let o = Dht.lookup dht rng ~online:all_online ~source:0 ~key in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d lookup resolves" (Dht.backend_label backend) members)
            true (o.Dht.responsible <> None);
          Alcotest.(check bool) "group non-empty" true
            (Array.length (Dht.replica_group dht ~repl:2 key) >= 1))
        [ 1; 2; 3 ])
    [ Dht.Chord_backend; Dht.Pgrid_backend; Dht.Kademlia_backend; Dht.Pastry_backend ]

let test_dht_backend_labels () =
  Alcotest.(check (list string)) "labels"
    [ "chord"; "p-grid"; "kademlia"; "pastry" ]
    (List.map Dht.backend_label
       [ Dht.Chord_backend; Dht.Pgrid_backend; Dht.Kademlia_backend; Dht.Pastry_backend ])

let test_pgrid_leaf_size_exceeds_members () =
  (* leaf_size larger than the population: a single leaf holding
     everyone, empty paths, every lookup is a local hit. *)
  let rng = Rng.create ~seed:162 in
  let g = Pgrid.build rng ~members:5 ~leaf_size:50 ~refs_per_level:3 in
  Alcotest.(check int) "single leaf" 5 (Array.length (Pgrid.responsible_peers g (Bitkey.random rng)));
  let o = Pgrid.lookup g rng ~online:all_online ~source:2 ~key:(Bitkey.random rng) in
  Alcotest.(check (option int)) "self-answer" (Some 2) o.Pgrid.responsible;
  Alcotest.(check int) "zero messages" 0 o.Pgrid.messages

let test_dht_chord_replica_group_size () =
  let rng = Rng.create ~seed:111 in
  let dht = Dht.create rng ~backend:Dht.Chord_backend ~members:64 () in
  let k = Bitkey.random rng in
  Alcotest.(check int) "exactly repl successors" 8
    (Array.length (Dht.replica_group dht ~repl:8 k))

let test_maintenance_rates () =
  Alcotest.(check (float 1e-9)) "env from 17000-peer trace"
    (1. /. (Float.log 17000. /. Float.log 2.))
    (Maintenance.env_from_trace ~maintenance_rate:1.0 ~members:17_000);
  let env = Maintenance.env_from_trace ~maintenance_rate:1.0 ~members:17_000 in
  Alcotest.(check (float 1e-6)) "round trip: 1 msg/peer/s" 1.0
    (Maintenance.probes_per_peer_per_second ~env ~members:17_000)

let test_maintenance_attach_charges_messages () =
  let rng = Rng.create ~seed:112 in
  let dht = Dht.create rng ~backend:Dht.Pgrid_backend ~members:64 ~leaf_size:2 () in
  let metrics = Pdht_sim.Metrics.create (Pdht_obs.Registry.create ()) in
  let engine = Pdht_sim.Engine.create () in
  Maintenance.attach engine ~dht ~rng ~online:all_online ~metrics ~env:(1. /. 6.)
    ~interval:10.;
  Pdht_sim.Engine.run engine ~until:100.;
  let expected =
    Maintenance.probes_per_peer_per_second ~env:(1. /. 6.) ~members:64 *. 64. *. 100.
  in
  let measured = float_of_int (Pdht_sim.Metrics.count metrics Pdht_sim.Metrics.Maintenance) in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.0f within 20%% of expected %.0f" measured expected)
    true
    (Float.abs (measured -. expected) /. expected < 0.2)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Flat-row P-Grid vs [Pgrid_ref], the string-path modules kept
   verbatim.  A built trie and its reference come from one seed and run
   one operation list under a random offline mask, with [deliver]
   dropping every [m]-th forward hop.  After construction and after
   every operation the paths, every reference row, the table sizes and
   the next draw must agree, and so must each operation's return.  The
   exchange constructor is checked the same way over batches of
   random meetings: paths, rows and the next draw. *)
type route_op =
  | G_lookup of int * int (* source, key *)
  | G_responsible of int (* key *)
  | G_probe of int * int (* peer, probes *)
  | G_forget of int
  | G_rebuild of int
  | G_flip of int (* toggle a member online/offline *)

let route_op_print = function
  | G_lookup (s, k) -> Printf.sprintf "lookup(%d,%d)" s k
  | G_responsible k -> Printf.sprintf "responsible(%d)" k
  | G_probe (p, n) -> Printf.sprintf "probe(%d,%d)" p n
  | G_forget p -> Printf.sprintf "forget(%d)" p
  | G_rebuild p -> Printf.sprintf "rebuild(%d)" p
  | G_flip m -> Printf.sprintf "flip(%d)" m

let same_next_draw a b = Rng.bits64 a = Rng.bits64 b && Rng.int a 1_000_003 = Rng.int b 1_000_003
let key_of k = Bitkey.of_int (k land ((1 lsl Bitkey.width) - 1))

let pgrid_ref_test =
  let case =
    let open QCheck.Gen in
    let* members = frequency [ (3, int_range 1 40); (2, int_range 41 300) ] in
    let* leaf_size = frequency [ (3, int_range 1 4); (2, int_range 5 40); (1, return 400) ] in
    let* refs_per_level = int_range 1 5 in
    let* offline_pct = oneofl [ 0; 10; 30; 50; 80 ] in
    let* drop_every = oneofl [ 0; 2; 3; 5 ] in
    let* seed = int_bound 1_000_000 in
    let m = int_bound (members - 1) in
    let key = int_bound max_int in
    let op =
      frequency
        [
          (8, map2 (fun s k -> G_lookup (s, k)) m key);
          (3, map (fun k -> G_responsible k) key);
          (3, map2 (fun p n -> G_probe (p, n)) m (int_range 0 6));
          (1, map (fun p -> G_forget p) m);
          (1, map (fun p -> G_rebuild p) m);
          (3, map (fun p -> G_flip p) m);
        ]
    in
    let+ ops = list_size (int_range 1 40) op in
    (members, leaf_size, refs_per_level, offline_pct, drop_every, seed, ops)
  in
  let print (members, leaf_size, refs_per_level, offline_pct, drop_every, seed, ops) =
    Printf.sprintf "members %d leaf %d refs %d offline %d%% drop-every %d seed %d: %s" members
      leaf_size refs_per_level offline_pct drop_every seed
      (String.concat " " (List.map route_op_print ops))
  in
  QCheck.Test.make ~name:"pgrid matches the string-path reference" ~count:150
    (QCheck.make ~print case)
    (fun (members, leaf_size, refs_per_level, offline_pct, drop_every, seed, ops) ->
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let g = Pgrid.build rng ~members ~leaf_size ~refs_per_level in
      let r = Pgrid_ref.Pgrid.build rng_ref ~members ~leaf_size ~refs_per_level in
      let mask = Rng.create ~seed:(seed + 1) in
      let up = Array.init members (fun _ -> Rng.int mask 100 >= offline_pct) in
      let online m = up.(m) in
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
      let same_tables () =
        let ok = ref true in
        for p = 0 to members - 1 do
          let path = Pgrid.path_of g p in
          if
            path <> Pgrid_ref.Pgrid.path_of r p
            || Pgrid.routing_table_size g p <> Pgrid_ref.Pgrid.routing_table_size r p
          then ok := false;
          for level = 0 to String.length path - 1 do
            if Pgrid.refs_at g ~peer:p ~level <> Pgrid_ref.Pgrid.refs_at r ~peer:p ~level then
              ok := false
          done
        done;
        !ok
      in
      let rec run step = function
        | [] -> true
        | op :: rest ->
            let same =
              match op with
              | G_lookup (source, k) ->
                  let key = key_of k and span = if step mod 2 = 0 then Some step else None in
                  let o = Pgrid.lookup ?span ~deliver g rng ~online ~source ~key in
                  let o_ref =
                    Pgrid_ref.Pgrid.lookup ?span ~deliver:deliver_ref r rng_ref ~online ~source ~key
                  in
                  o.responsible = o_ref.responsible && o.messages = o_ref.messages
                  && o.hops = o_ref.hops
              | G_responsible k ->
                  let key = key_of k in
                  Pgrid.responsible_peers g key = Pgrid_ref.Pgrid.responsible_peers r key
                  && Pgrid.responsible g ~online key = Pgrid_ref.Pgrid.responsible r ~online key
              | G_probe (peer, probes) ->
                  Pgrid.probe_and_repair g rng ~online ~peer ~probes
                  = Pgrid_ref.Pgrid.probe_and_repair r rng_ref ~online ~peer ~probes
              | G_forget peer ->
                  Pgrid.forget_routes g ~peer;
                  Pgrid_ref.Pgrid.forget_routes r ~peer;
                  true
              | G_rebuild peer ->
                  Pgrid.rebuild_routes g rng ~peer = Pgrid_ref.Pgrid.rebuild_routes r rng_ref ~peer
              | G_flip m ->
                  up.(m) <- not up.(m);
                  true
            in
            same && !log = !log_ref && same_tables () && same_next_draw rng rng_ref
            && run (step + 1) rest
      in
      same_tables () && same_next_draw rng rng_ref && run 0 ops)

let pgrid_exchange_ref_test =
  let case =
    let open QCheck.Gen in
    let* members = frequency [ (3, int_range 1 40); (2, int_range 41 300) ] in
    let* seed = int_bound 1_000_000 in
    let+ batches = list_size (int_range 1 5) (int_range 0 600) in
    (members, seed, batches)
  in
  let print (members, seed, batches) =
    Printf.sprintf "members %d seed %d meetings %s" members seed
      (String.concat "," (List.map string_of_int batches))
  in
  QCheck.Test.make ~name:"pgrid exchanges match the bootstrap reference" ~count:100
    (QCheck.make ~print case)
    (fun (members, seed, batches) ->
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let g = Pgrid.unspecialized ~members in
      let r = Pgrid_ref.Bootstrap.create ~members () in
      let same_tables () =
        let ok = ref true in
        for p = 0 to members - 1 do
          if Pgrid.path_of g p <> Pgrid_ref.Bootstrap.path_of r p then
            ok := false;
          for level = 0 to 19 do
            if
              Pgrid.refs_at g ~peer:p ~level
              <> Pgrid_ref.Bootstrap.refs_at r ~peer:p ~level
            then ok := false
          done
        done;
        !ok
      in
      List.for_all
        (fun meetings ->
          Pgrid.run_exchanges g rng ~meetings;
          Pgrid_ref.Bootstrap.run_exchanges r rng_ref ~meetings;
          same_tables () && same_next_draw rng rng_ref)
        batches)

(* The one-ring Chord against [Chord_ref]: the two modules it replaced,
   kept verbatim.  A [create] ring and its reference come from one seed
   and run one [route_op] list under a random offline mask, with
   [deliver] dropping every [m]-th forward hop; every return, every
   member's finger targets, the [deliver] log and the next draw must
   agree.  An [empty] ring and its reference then run one membership
   schedule (joins through a member picked by index, leaves, crashes,
   stabilization rounds and routes); join results, costs, outcomes,
   ideal owners, membership, ids, [ring_consistent] and the next draw
   must agree after every step. *)
type ring_op =
  | R_join of int (* via, by index among the members *)
  | R_leave of int
  | R_crash of int
  | R_stabilize
  | R_route of int * int (* source by index, key *)

let ring_op_print = function
  | R_join v -> Printf.sprintf "join(%d)" v
  | R_leave v -> Printf.sprintf "leave(%d)" v
  | R_crash v -> Printf.sprintf "crash(%d)" v
  | R_stabilize -> "stabilize"
  | R_route (v, k) -> Printf.sprintf "route(%d,%d)" v k

let ring_members ~capacity is_member = List.filter is_member (List.init capacity Fun.id)

let chord_ref_test =
  let case =
    let open QCheck.Gen in
    let* members = frequency [ (3, int_range 1 40); (2, int_range 41 300) ] in
    let* offline_pct = oneofl [ 0; 10; 30; 50; 80 ] in
    let* drop_every = oneofl [ 0; 2; 3; 5 ] in
    let* seed = int_bound 1_000_000 in
    let m = int_bound (members - 1) in
    let key = int_bound max_int in
    let route_op =
      frequency
        [
          (8, map2 (fun s k -> G_lookup (s, k)) m key);
          (3, map (fun k -> G_responsible k) key);
          (3, map2 (fun p n -> G_probe (p, n)) m (int_range 0 6));
          (1, map (fun p -> G_forget p) m);
          (1, map (fun p -> G_rebuild p) m);
          (3, map (fun p -> G_flip p) m);
        ]
    in
    let v = int_bound 1_000 in
    let ring_op =
      frequency
        [
          (4, map (fun v -> R_join v) v);
          (1, map (fun v -> R_leave v) v);
          (1, map (fun v -> R_crash v) v);
          (2, return R_stabilize);
          (3, map2 (fun v k -> R_route (v, k)) v key);
        ]
    in
    let* route_ops = list_size (int_range 1 40) route_op in
    let+ ring_ops = list_size (int_range 1 80) ring_op in
    (members, offline_pct, drop_every, seed, route_ops, ring_ops)
  in
  let print (members, offline_pct, drop_every, seed, route_ops, ring_ops) =
    Printf.sprintf "members %d offline %d%% drop-every %d seed %d: %s | %s" members offline_pct
      drop_every seed
      (String.concat " " (List.map route_op_print route_ops))
      (String.concat " " (List.map ring_op_print ring_ops))
  in
  QCheck.Test.make ~name:"chord matches the two-module reference" ~count:150
    (QCheck.make ~print case)
    (fun (members, offline_pct, drop_every, seed, route_ops, ring_ops) ->
      let rng = Rng.create ~seed and rng_ref = Rng.create ~seed in
      let c = Chord.create rng ~members in
      let r = Chord_ref.Chord.create rng_ref ~members in
      let mask = Rng.create ~seed:(seed + 1) in
      let up = Array.init members (fun _ -> Rng.int mask 100 >= offline_pct) in
      let online m = up.(m) in
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
      let same_fingers () =
        List.for_all
          (fun p ->
            Chord.id_of c p = Chord_ref.Chord.id_of r p
            && Chord.finger_targets c p = Chord_ref.Chord.finger_targets r p
            && Array.length (Chord.finger_targets c p) = Chord_ref.Chord.finger_count r p)
          (List.init members Fun.id)
      in
      let route_step step op =
        match op with
        | G_lookup (source, k) ->
            let key = key_of k and span = if step mod 2 = 0 then Some step else None in
            let o = Chord.lookup ?span ~deliver c ~online ~source ~key in
            let o_ref = Chord_ref.Chord.lookup ?span ~deliver:deliver_ref r ~online ~source ~key in
            o.responsible = o_ref.responsible && o.messages = o_ref.messages && o.hops = o_ref.hops
        | G_responsible k ->
            let key = key_of k in
            Chord.successor_member c key = Chord_ref.Chord.successor_member r key
            && Chord.responsible c ~online key = Chord_ref.Chord.responsible r ~online key
            && Chord.successors c key ~k:(k mod 9) = Chord_ref.Chord.successors r key ~k:(k mod 9)
        | G_probe (peer, probes) ->
            Chord.probe_and_repair c rng ~online ~peer ~probes
            = Chord_ref.Chord.probe_and_repair r rng_ref ~online ~peer ~probes
        | G_forget peer ->
            Chord.forget_routes c ~peer;
            Chord_ref.Chord.forget_routes r ~peer;
            true
        | G_rebuild peer ->
            Chord.rebuild_routes c ~online ~peer = Chord_ref.Chord.rebuild_routes r ~online ~peer
        | G_flip m ->
            up.(m) <- not up.(m);
            true
      in
      let module DR = Chord_ref.Dynamic in
      let ring_rng = Rng.create ~seed:(seed + 2) and ring_rng_ref = Rng.create ~seed:(seed + 2) in
      let t = Chord.empty ring_rng ~capacity:members
      and u = DR.create ring_rng_ref ~capacity:members () in
      let alive () = Array.of_list (ring_members ~capacity:members (Chord.is_member t)) in
      let same_ring () =
        Chord.node_count t = DR.node_count u
        && Chord.ring_consistent t = DR.ring_consistent u
        && List.for_all
             (fun s ->
               Chord.is_member t s = DR.is_member u s
               && ((not (Chord.is_member t s)) || Chord.id_of t s = DR.id_of u s))
             (List.init members Fun.id)
      in
      let ring_step op =
        let a = alive () in
        let pick v = a.(v mod Array.length a) in
        match op with
        | _ when Array.length a = 0 -> Chord.bootstrap t = DR.bootstrap u
        | R_join v -> Chord.join t ~via:(pick v) = DR.join u ~via:(pick v)
        | R_leave v -> Chord.leave t ~node:(pick v) = DR.leave u ~node:(pick v)
        | R_crash v ->
            Chord.crash t ~node:(pick v);
            DR.crash u ~node:(pick v);
            true
        | R_stabilize -> Chord.stabilize t ring_rng = DR.stabilize u ring_rng_ref
        | R_route (v, k) ->
            let key = key_of k in
            let o = Chord.route t ~source:(pick v) ~key in
            let o_ref = DR.lookup u ~source:(pick v) ~key in
            o.responsible = o_ref.responsible && o.messages = o_ref.messages && o.hops = o_ref.hops
            && Chord.ideal_responsible t key = DR.ideal_responsible u key
      in
      same_fingers () && same_next_draw rng rng_ref
      && List.for_all Fun.id
           (List.mapi
              (fun step op ->
                route_step step op && !log = !log_ref && same_fingers ()
                && same_next_draw rng rng_ref)
              route_ops)
      && Chord.bootstrap t = DR.bootstrap u
      && List.for_all
           (fun op -> ring_step op && same_ring () && same_next_draw ring_rng ring_rng_ref)
           ring_ops)

(* Chord's correctness rests on the successor pointers alone [StMo01]:
   while they form one cycle through every member in id order, a route
   answers the key's owner however stale the fingers are.  From one
   seed, a [create] ring and an [empty] ring (of 2 to 31 slots) each run
   300 random steps of joins, crashes, leaves and stabilization rounds;
   after every step at which [ring_consistent] holds, a random key is
   routed from every member and must reach [ideal_responsible].  A
   consistency check that accepted a cycle winding twice round the ids
   failed this on about one [empty] schedule in eight. *)
let chord_route_owner_test =
  QCheck.Test.make ~name:"chord routes reach the owner on a consistent ring" ~count:200
    QCheck.(make ~print:(Printf.sprintf "seed %d") Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create ~seed in
      let schedule t ~capacity =
        let ok = ref true and step = ref 0 in
        while !ok && !step < 300 do
          incr step;
          let alive = Array.of_list (ring_members ~capacity (Chord.is_member t)) in
          let pick () = alive.(Rng.int rng (Array.length alive)) in
          (match Rng.int rng 7 with
          | _ when Array.length alive = 0 -> ignore (Chord.bootstrap t)
          | 0 | 1 | 2 -> ignore (Chord.join t ~via:(pick ()))
          | 3 -> Chord.crash t ~node:(pick ())
          | 4 -> ignore (Chord.leave t ~node:(pick ()))
          | _ -> ignore (Chord.stabilize t rng));
          if Chord.ring_consistent t then
            List.iter
              (fun m ->
                let key = Bitkey.random rng in
                if (Chord.route t ~source:m ~key).responsible <> Chord.ideal_responsible t key
                then ok := false)
              (ring_members ~capacity (Chord.is_member t))
        done;
        !ok
      in
      let members = 2 + Rng.int rng 30 in
      let capacity = 2 + Rng.int rng 30 in
      schedule (Chord.create rng ~members) ~capacity:members
      && schedule (Chord.empty rng ~capacity) ~capacity)

let qcheck_tests =
  let open QCheck in
  [
    pgrid_ref_test;
    pgrid_exchange_ref_test;
    chord_ref_test;
    chord_route_owner_test;
    Test.make ~name:"chord lookup always reaches the successor" ~count:60
      (pair (int_range 2 128) small_int)
      (fun (members, seed) ->
        let rng = Rng.create ~seed in
        let c = Chord.create rng ~members in
        let k = Bitkey.random rng in
        let o = Chord.lookup c ~online:all_online ~source:(Rng.int rng members) ~key:k in
        o.Chord.responsible = Some (Chord.successor_member c k));
    Test.make ~name:"pgrid leaf paths are prefix-free" ~count:40
      (pair (int_range 1 100) small_int)
      (fun (members, seed) ->
        let rng = Rng.create ~seed in
        let g = Pgrid.build rng ~members ~leaf_size:3 ~refs_per_level:2 in
        let paths = List.init members (Pgrid.path_of g) |> List.sort_uniq compare in
        (* No distinct path may prefix another (they would both claim
           responsibility for the same keys). *)
        List.for_all
          (fun p ->
            List.for_all
              (fun q ->
                p = q
                || String.length p > String.length q
                || not (String.equal (String.sub q 0 (String.length p)) p))
              paths)
          paths);
    Test.make ~name:"kademlia closest_members head is the global minimum" ~count:40
      (pair (int_range 2 80) small_int)
      (fun (members, seed) ->
        let rng = Rng.create ~seed in
        let k = Kademlia.create rng ~members () in
        let key = Bitkey.random rng in
        let head = (Kademlia.closest_members k key ~k:1).(0) in
        let ok = ref true in
        for m = 0 to members - 1 do
          if
            Bitkey.xor_distance key (Kademlia.id_of k m)
            < Bitkey.xor_distance key (Kademlia.id_of k head)
          then ok := false
        done;
        !ok);
    Test.make ~name:"pastry replica group sorted by circular distance" ~count:40
      (pair (int_range 2 60) small_int)
      (fun (members, seed) ->
        let rng = Rng.create ~seed in
        let p = Pastry.create rng ~members () in
        let key = Bitkey.random rng in
        let group = Pastry.replica_group p key ~k:(min 8 members) in
        (* The head must be the numerically closest member. *)
        group.(0) = Pastry.numerically_closest p key);
    Test.make ~name:"bootstrap coverage survives any meeting count" ~count:25
      (pair (int_range 1 60) (int_range 0 800))
      (fun (members, meetings) ->
        let rng = Rng.create ~seed:(members + meetings) in
        let b = Pgrid.unspecialized ~members in
        Pgrid.run_exchanges b rng ~meetings;
        let ok = ref true in
        for _ = 1 to 20 do
          if grown_responsible b (Bitkey.random rng) = [] then ok := false
        done;
        !ok);
    Test.make ~name:"pastry lookup terminates and reaches the owner" ~count:40
      (pair (int_range 2 100) small_int)
      (fun (members, seed) ->
        let rng = Rng.create ~seed in
        let p = Pastry.create rng ~members () in
        let key = Bitkey.random rng in
        let o = Pastry.lookup p ~online:all_online ~source:(Rng.int rng members) ~key in
        o.Pastry.responsible = Some (Pastry.numerically_closest p key));
    Test.make ~name:"dynamic chord ideal owner is id-closest successor" ~count:30
      (pair (int_range 2 30) small_int)
      (fun (nodes, seed) ->
        let rng = Rng.create ~seed in
        let t = Chord.empty rng ~capacity:(nodes + 2) in
        let members = ref [ Chord.bootstrap t ] in
        while Chord.node_count t < nodes do
          let alive = List.filter (Chord.is_member t) !members in
          let via = List.nth alive (Rng.int rng (List.length alive)) in
          (match Chord.join t ~via with
          | Ok (node, _) -> members := node :: !members
          | Error _ -> ());
          ignore (Chord.stabilize t rng)
        done;
        let key = Bitkey.random rng in
        match Chord.ideal_responsible t key with
        | None -> false
        | Some owner ->
            (* No member's id lies strictly between the key and the
               owner's id going clockwise. *)
            List.for_all
              (fun m ->
                (not (Chord.is_member t m))
                || m = owner
                ||
                let mid = Chord.id_of t m in
                let oid = Chord.id_of t owner in
                (* if m's id >= key then owner's id must be <= m's id
                   (in the circular >= key region) *)
                if Bitkey.compare oid key >= 0 then
                  Bitkey.compare mid key < 0 || Bitkey.compare mid oid >= 0
                else Bitkey.compare mid key < 0 && Bitkey.compare mid oid >= 0)
              !members);
    Test.make ~name:"storage never exceeds capacity" ~count:60
      (pair (int_range 1 20) (small_list (pair small_int (float_range 0.1 100.))))
      (fun (capacity, inserts) ->
        let s = Storage.create ~capacity () in
        List.iteri
          (fun i (k, ttl) -> Storage.put s ~key:(key k) ~value:i ~now:(float_of_int i) ~ttl)
          inserts;
        Storage.live_count s ~now:0. <= capacity);
  ]

(* ------------------------------------------------------------------ *)
(* Live k-bucket rules (Maymounkov & Mazieres) *)

let live_kademlia ?probe_retries ~seed () =
  let rng = Rng.create ~seed in
  let k = Kademlia.create rng ~members:128 ~bucket_size:4 () in
  Kademlia.enable_live_routing ?probe_retries k;
  (rng, k)

let live_stats k =
  match Kademlia.live_stats k with
  | Some s -> s
  | None -> Alcotest.fail "live stats missing in live mode"

let test_bucket_contact_decisions () =
  (* Lookup contacts promote known entries, admit newcomers into
     buckets with room, and probe a full bucket's LRS entry; with
     everyone alive no contact probe evicts.  The frozen seed tables
     are full, so first make room by probing out dead entries. *)
  let rng, k = live_kademlia ~seed:224 () in
  let owner = 5 in
  ignore (Kademlia.probe_and_repair k rng ~online:(fun p -> p = owner) ~peer:owner ~probes:12);
  let evicted = (live_stats k).Kademlia.evictions in
  Alcotest.(check bool) "room made" true (evicted > 0);
  for _ = 1 to 50 do
    ignore (Kademlia.lookup k ~online:all_online ~source:owner ~key:(Bitkey.random rng))
  done;
  let s = live_stats k in
  Alcotest.(check bool) "promotions" true (s.Kademlia.promotions > 0);
  Alcotest.(check bool) "insertions" true (s.Kademlia.insertions > 0);
  Alcotest.(check bool) "full buckets probed" true (Kademlia.drain_probe_cost k > 0);
  Alcotest.(check int) "alive entries kept" evicted s.Kademlia.evictions

let test_bucket_probe_outcomes () =
  (* An entry that answers its liveness probe is never displaced; only
     a confirmed-dead one makes room. *)
  let rng, k = live_kademlia ~seed:225 () in
  let owner = 5 in
  let before = Kademlia.routing_table_size k owner in
  ignore (Kademlia.probe_and_repair k rng ~online:all_online ~peer:owner ~probes:12);
  let s = live_stats k in
  Alcotest.(check bool) "probed" true (s.Kademlia.probes > 0);
  Alcotest.(check int) "alive: kept" 0 s.Kademlia.evictions;
  Alcotest.(check int) "alive: table intact" before (Kademlia.routing_table_size k owner);
  ignore (Kademlia.probe_and_repair k rng ~online:(fun p -> p = owner) ~peer:owner ~probes:12);
  let s' = live_stats k in
  Alcotest.(check int) "dead: every probed entry evicted"
    (s'.Kademlia.probes - s.Kademlia.probes)
    s'.Kademlia.evictions;
  Alcotest.(check int) "dead: the table shrank by as many" (before - s'.Kademlia.evictions)
    (Kademlia.routing_table_size k owner)

let test_bucket_probe_messages () =
  (* Only the owner is online, so every probed entry is dead and each
     probe eats the whole retry ladder; nobody is left to refill from. *)
  let probe_retries = 2 in
  let rng, k = live_kademlia ~probe_retries ~seed:223 () in
  let owner = 5 in
  let sent =
    Kademlia.probe_and_repair k rng ~online:(fun p -> p = owner) ~peer:owner ~probes:12
  in
  let s = live_stats k in
  Alcotest.(check bool) "probes sent" true (s.Kademlia.probes > 0);
  Alcotest.(check int) "each probe costs 1 + retries"
    ((1 + probe_retries) * s.Kademlia.probes)
    s.Kademlia.probe_messages;
  Alcotest.(check int) "no refills, so the probes are the whole cost"
    s.Kademlia.probe_messages sent;
  (* An alive entry answers the first attempt. *)
  let rng, k = live_kademlia ~probe_retries ~seed:223 () in
  ignore (Kademlia.probe_and_repair k rng ~online:all_online ~peer:owner ~probes:12);
  let s = live_stats k in
  Alcotest.(check int) "alive probes cost one message" s.Kademlia.probes
    s.Kademlia.probe_messages

(* ------------------------------------------------------------------ *)
(* Kademlia lookup pin: which members a lookup contacts depends on the
   order in which every contacted member answers from its routing
   table, so any change to that answer moves these digests. *)

(* Fixed-seed lookups with 30% of the members offline, a round of
   maintenance (frozen: probe-and-repair, which can duplicate entries;
   live: probe-and-repair plus a refresh sweep on tables that lookups
   have already demoted into), then more lookups.  The digest covers
   every outcome, the maintenance cost and both stat blocks. *)
let pin_lookups buf k rng ~online ~members count =
  for _ = 1 to count do
    let source = Rng.int rng members in
    let o = Kademlia.lookup k ~online ~source ~key:(Bitkey.random rng) in
    Printf.bprintf buf "%d,%d,%d;"
      (Option.value o.Kademlia.responsible ~default:(-1))
      o.Kademlia.messages o.Kademlia.hops
  done

let kademlia_pin_digest ~live ~bucket_size ~members =
  let rng = Rng.create ~seed:(members + bucket_size + if live then 7 else 0) in
  let k = Kademlia.create rng ~members ~bucket_size () in
  if live then Kademlia.enable_live_routing ~probe_retries:2 k;
  let offline = Array.init members (fun _ -> Rng.unit_float rng < 0.3) in
  let online p = not offline.(p) in
  let buf = Buffer.create 4096 in
  let lookups () = pin_lookups buf k rng ~online ~members 120 in
  lookups ();
  for m = 0 to members - 1 do
    if online m then
      Printf.bprintf buf "p%d;" (Kademlia.probe_and_repair k rng ~online ~peer:m ~probes:6)
  done;
  Printf.bprintf buf "r%d;" (Kademlia.refresh_sweep k rng ~online);
  lookups ();
  let contacts, dead = Kademlia.contact_stats k in
  Printf.bprintf buf "c%d,%d;" contacts dead;
  (match Kademlia.live_stats k with
  | None -> Buffer.add_string buf "frozen"
  | Some s ->
      Printf.bprintf buf "l%d,%d,%d,%d,%d,%d,%d" s.Kademlia.probes s.Kademlia.probe_messages
        s.Kademlia.refresh_messages s.Kademlia.evictions s.Kademlia.promotions
        s.Kademlia.insertions s.Kademlia.cache_fills);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded when each contacted member fully sorted its routing table
   by XOR distance; the bucket-ordered answer must reproduce them. *)
let test_kademlia_lookup_pin () =
  let cases =
    [
      (false, 1, 64, "d373bf812a5107025866e805c2df68e3");
      (false, 1, 453, "e570a42f7e3ebad486796692fb3a8752");
      (false, 1, 1024, "712272a175bb50606086cfe4771742e4");
      (false, 4, 64, "2475096ef3a233addaac3360979c0388");
      (false, 4, 453, "fba37555ca96005aab73b25e0f8d5486");
      (false, 4, 1024, "0fb568334fc1a839533c5893284a32b8");
      (false, 8, 64, "5c5fa90f72a6481a46d524378cc92e77");
      (false, 8, 453, "c3d40fc992d43f95a14992b9b6d32fb8");
      (false, 8, 1024, "d3885ed2c2b1f9ed41cbadde31e5fc6f");
      (true, 1, 64, "4fff7437a45933329ae8e6b3fab72a96");
      (true, 1, 453, "0ea52eb3e877ea44f544d0075bc76ae7");
      (true, 1, 1024, "34ea13a4f969272f413cdf1aa80cb234");
      (true, 4, 64, "6fc169bb2839e6e2704dcb3ed2153cfa");
      (true, 4, 453, "70007ad029d8733ef8ad81eba9ce394f");
      (true, 4, 1024, "54f3ede1ee40938a4832ea266ed362b9");
      (true, 8, 64, "a799e9352b275fdf148c5cba318944aa");
      (true, 8, 453, "0da350939ef81d90febe23ff638dcd21");
      (true, 8, 1024, "48034e41dd0719be6a4625803ac248f9");
    ]
  in
  List.iter
    (fun (live, bucket_size, members, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s k=%d n=%d" (if live then "live" else "frozen") bucket_size members)
        expected
        (kademlia_pin_digest ~live ~bucket_size ~members))
    cases

(* Crash and rejoin on fixed seeds with 30% of the members offline:
   per-member table sizes, then every fifth member forgets its routes,
   lookups run around the holes, a maintenance round, the forgotten
   members rebuild (recording each join's cost), a refresh sweep, more
   lookups, and the per-member sizes again. *)
let kademlia_rejoin_digest ~live ~bucket_size ~members =
  let rng = Rng.create ~seed:((3 * members) + bucket_size + if live then 11 else 0) in
  let k = Kademlia.create rng ~members ~bucket_size () in
  if live then Kademlia.enable_live_routing ~probe_retries:2 k;
  let offline = Array.init members (fun _ -> Rng.unit_float rng < 0.3) in
  let online p = not offline.(p) in
  let buf = Buffer.create 8192 in
  let sizes () =
    for m = 0 to members - 1 do
      Printf.bprintf buf "%d/%d;" (Kademlia.bucket_count k m) (Kademlia.routing_table_size k m)
    done
  in
  let lookups () = pin_lookups buf k rng ~online ~members 80 in
  sizes ();
  for m = 0 to members - 1 do
    if m mod 5 = 0 then Kademlia.forget_routes k ~peer:m
  done;
  lookups ();
  for m = 0 to members - 1 do
    if online m then
      Printf.bprintf buf "p%d;" (Kademlia.probe_and_repair k rng ~online ~peer:m ~probes:6)
  done;
  for m = 0 to members - 1 do
    if m mod 5 = 0 then Printf.bprintf buf "j%d;" (Kademlia.rebuild_routes k rng ~peer:m)
  done;
  Printf.bprintf buf "r%d;" (Kademlia.refresh_sweep k rng ~online);
  lookups ();
  sizes ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded while frozen and live tables were still two separate
   bucket stores. *)
let test_kademlia_rejoin_pin () =
  let cases =
    [
      (false, 1, 64, "ce9d4e729ce983a72de93333460d35c5");
      (false, 1, 453, "9a4b3ea79b5ce84b1e0bf9712089c17f");
      (false, 4, 64, "3e303954d1048ca5d9f1505644686c6e");
      (false, 4, 453, "98a9b47aa9f1d96524b347e817ba9d01");
      (false, 8, 64, "177e1e7ee9d3e6b279f0a2062c39f38f");
      (false, 8, 453, "b1a1f5e339cbf3fab262fac0ad8576e5");
      (true, 1, 64, "e37c795bfb33e700808c4b8c83125a24");
      (true, 1, 453, "556df15877eae791f35b710f9cb0efdd");
      (true, 4, 64, "b95ed8e89a49420ed25dab0026b284d9");
      (true, 4, 453, "b2921ddcda4da9c324ca31bfeeec1383");
      (true, 8, 64, "1e6316726e1460c00cb9db32b0dcdbf7");
      (true, 8, 453, "afe3d5dcc56048647032ef0c33b47326");
    ]
  in
  List.iter
    (fun (live, bucket_size, members, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s k=%d n=%d" (if live then "live" else "frozen") bucket_size members)
        expected
        (kademlia_rejoin_digest ~live ~bucket_size ~members))
    cases

(* ------------------------------------------------------------------ *)
(* Chord pin: digests of fixed-seed runs, recorded while the fixed
   member ring and the dynamic-membership ring were two modules.  Which
   members a lookup or a route contacts, what maintenance costs and
   where it leaves the fingers all move them. *)

let chord_lookups buf ?deliver c rng ~online ~members count =
  for _ = 1 to count do
    let source = Rng.int rng members in
    let o = Chord.lookup ?deliver c ~online ~source ~key:(Bitkey.random rng) in
    Printf.bprintf buf "%d,%d,%d;"
      (Option.value o.Chord.responsible ~default:(-1))
      o.Chord.messages o.Chord.hops
  done

let chord_fingers buf c ~members =
  for m = 0 to members - 1 do
    Array.iter (Printf.bprintf buf "%d,") (Chord.finger_targets c m);
    Buffer.add_char buf ';'
  done

(* Lookups with 30% of the members offline (with [refuse], [deliver]
   refuses every seventh forward hop), a probe-and-repair round, the
   finger targets, every fifth member forgetting its routes, lookups
   around the holes, the forgotten members rebuilding (each rebuild's
   cost), more lookups and the finger targets again. *)
let chord_pin_digest ~refuse ~members =
  let rng = Rng.create ~seed:(members + if refuse then 13 else 0) in
  let c = Chord.create rng ~members in
  let offline = Array.init members (fun _ -> Rng.unit_float rng < 0.3) in
  let online p = not offline.(p) in
  let calls = ref 0 in
  let deliver ~span:_ ~src:_ ~dst:_ =
    incr calls;
    !calls mod 7 <> 0
  in
  let deliver = if refuse then Some deliver else None in
  let buf = Buffer.create 65536 in
  let lookups () = chord_lookups buf ?deliver c rng ~online ~members 150 in
  lookups ();
  for m = 0 to members - 1 do
    if online m then
      Printf.bprintf buf "p%d;" (Chord.probe_and_repair c rng ~online ~peer:m ~probes:8)
  done;
  chord_fingers buf c ~members;
  for m = 0 to members - 1 do
    if m mod 5 = 0 then Chord.forget_routes c ~peer:m
  done;
  lookups ();
  for m = 0 to members - 1 do
    if m mod 5 = 0 then Printf.bprintf buf "j%d;" (Chord.rebuild_routes c ~online ~peer:m)
  done;
  lookups ();
  chord_fingers buf c ~members;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded while the fixed-member ring kept boxed finger rows and a
   [pos] inverse of its sorted ring. *)
let test_chord_lookup_pin () =
  let cases =
    [
      (false, 64, "07df0eb7ff33c85eb723076dc8079fbf");
      (false, 453, "b9abb6c79e56c34b346f738ec891cfd9");
      (false, 1024, "081722188e4f5228af6eea0eed39a1b0");
      (true, 64, "86e4da02a4df3cd8aa2fafa1c7e6faf3");
      (true, 453, "34078279086095922acef2f09f6fbc2f");
      (true, 1024, "f8124c7c1cb9e7caf04d843ab100d3c5");
    ]
  in
  List.iter
    (fun (refuse, members, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d" (if refuse then "refusing" else "reliable") members)
        expected
        (chord_pin_digest ~refuse ~members))
    cases

(* A dynamic ring grown by joins through random members with a
   stabilization round after each (join results and round costs), routes
   from random members, every fifth member leaving, a quarter of the
   rest crashing, routes through the stale pointers, and stabilization
   rounds with routes after each. *)
let chord_dynamic_pin_digest ~capacity ~nodes =
  let rng = Rng.create ~seed:(capacity + nodes) in
  let t = Chord.empty rng ~capacity in
  let buf = Buffer.create 65536 in
  let members = ref [ Chord.bootstrap t ] in
  let alive () = List.filter (Chord.is_member t) !members in
  let pick () =
    let a = alive () in
    List.nth a (Rng.int rng (List.length a))
  in
  while Chord.node_count t < nodes do
    (match Chord.join t ~via:(pick ()) with
    | Ok (node, msgs) ->
        members := node :: !members;
        Printf.bprintf buf "j%d,%d;" node msgs
    | Error e -> Printf.bprintf buf "e%s;" e);
    Printf.bprintf buf "s%d;" (Chord.stabilize t rng)
  done;
  let routes count =
    for _ = 1 to count do
      let o = Chord.route t ~source:(pick ()) ~key:(Bitkey.random rng) in
      Printf.bprintf buf "%d,%d,%d;"
        (Option.value o.Chord.responsible ~default:(-1))
        o.Chord.messages o.Chord.hops
    done
  in
  routes 100;
  List.iteri
    (fun i m -> if i mod 5 = 0 then Printf.bprintf buf "l%d;" (Chord.leave t ~node:m))
    (alive ());
  List.iteri (fun i m -> if i mod 4 = 0 then Chord.crash t ~node:m) (alive ());
  routes 100;
  for _ = 1 to 6 do
    Printf.bprintf buf "s%d;" (Chord.stabilize t rng);
    routes 30
  done;
  Printf.bprintf buf "n%d" (Chord.node_count t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Recorded while the dynamic ring was its own module of [node option]
   slots. *)
let test_chord_dynamic_pin () =
  List.iter
    (fun (capacity, nodes, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "capacity=%d nodes=%d" capacity nodes)
        expected
        (chord_dynamic_pin_digest ~capacity ~nodes))
    [
      (40, 30, "8fc39a02c5f31f2164bd3e79bb642afc");
      (100, 64, "d6cb940f888f66702701b82c99be90f8");
      (400, 256, "20a95d8aff015b19f0befbecaac7b04a");
    ]

let () =
  Alcotest.run "pdht_dht"
    [
      ( "churn",
        [
          Alcotest.test_case "static" `Quick test_churn_static;
          Alcotest.test_case "stationary fraction" `Quick test_churn_stationary_fraction;
          Alcotest.test_case "callbacks" `Quick test_churn_callbacks;
          Alcotest.test_case "validation" `Quick test_churn_validation;
          Alcotest.test_case "callback registration order" `Quick
            test_churn_callback_registration_order;
          Alcotest.test_case "spec: exponential equivalence" `Quick
            test_churn_spec_exponential_equivalence;
          Alcotest.test_case "spec: heavy-tailed sessions" `Quick
            test_churn_spec_heavy_tailed;
          Alcotest.test_case "spec: validates" `Quick test_churn_spec_validates;
        ] );
      ( "storage",
        [
          Alcotest.test_case "put/get" `Quick test_storage_put_get;
          Alcotest.test_case "expiry" `Quick test_storage_expiry;
          Alcotest.test_case "get does not refresh" `Quick test_storage_get_does_not_refresh;
          Alcotest.test_case "refresh extends" `Quick test_storage_refresh_extends;
          Alcotest.test_case "overwrite" `Quick test_storage_overwrite_updates_value_and_ttl;
          Alcotest.test_case "capacity eviction" `Quick test_storage_capacity_eviction;
          Alcotest.test_case "purges expired first" `Quick test_storage_prefers_purging_expired;
          Alcotest.test_case "live count and fold" `Quick test_storage_live_count_and_fold;
          Alcotest.test_case "remove and expire" `Quick test_storage_remove_and_expire;
          Alcotest.test_case "expiry inspection" `Quick test_storage_expiry_inspection;
          Alcotest.test_case "all-expired purge skips eviction policy" `Quick
            test_storage_full_of_expired_purges_without_eviction;
          Alcotest.test_case "puts keep a churning store's table small" `Quick
            test_storage_put_reclaims_expired;
          Alcotest.test_case "validation" `Quick test_storage_validation;
          Alcotest.test_case "nan, zero or negative ttl" `Quick test_storage_ttl_must_be_positive;
        ] );
      ( "chord",
        [
          Alcotest.test_case "successor ordering" `Quick test_chord_successor_ordering;
          Alcotest.test_case "lookup reaches responsible" `Quick test_chord_lookup_reaches_responsible;
          Alcotest.test_case "logarithmic hops" `Quick test_chord_lookup_logarithmic;
          Alcotest.test_case "self responsible" `Quick test_chord_lookup_self_responsible;
          Alcotest.test_case "lookup under churn" `Quick test_chord_lookup_under_churn;
          Alcotest.test_case "successor lists" `Quick test_chord_successors;
          Alcotest.test_case "probe repairs fingers" `Quick test_chord_probe_repairs_fingers;
          Alcotest.test_case "single member" `Quick test_chord_single_member;
        ] );
      ( "pgrid",
        [
          Alcotest.test_case "paths partition keyspace" `Quick test_pgrid_paths_partition_keyspace;
          Alcotest.test_case "balanced depth" `Quick test_pgrid_balanced_depth;
          Alcotest.test_case "leaf groups replicate" `Quick test_pgrid_leaf_groups_replicate;
          Alcotest.test_case "lookup reaches leaf" `Quick test_pgrid_lookup_reaches_leaf;
          Alcotest.test_case "hop bound" `Quick test_pgrid_lookup_hop_bound;
          Alcotest.test_case "lookup under churn" `Quick test_pgrid_lookup_under_churn;
          Alcotest.test_case "refs point to complement" `Quick test_pgrid_refs_point_to_complement;
          Alcotest.test_case "probe repair" `Quick test_pgrid_probe_repair;
          Alcotest.test_case "single member" `Quick test_pgrid_single_member;
          Alcotest.test_case "responsible is the first online member" `Quick
            test_pgrid_responsible_first_online;
        ] );
      ( "chord-dynamic",
        [
          Alcotest.test_case "bootstrap and join" `Quick test_dynamic_bootstrap_and_join;
          Alcotest.test_case "graceful leave" `Quick test_dynamic_graceful_leave;
          Alcotest.test_case "crash recovery" `Quick test_dynamic_crash_recovery;
          Alcotest.test_case "join via dead" `Quick test_dynamic_join_via_dead_rejected;
          Alcotest.test_case "capacity limit" `Quick test_dynamic_capacity_limit;
        ] );
      ( "pgrid-bootstrap",
        [
          Alcotest.test_case "initial state" `Quick test_bootstrap_initial_state;
          Alcotest.test_case "coverage invariant" `Quick test_bootstrap_coverage_invariant;
          Alcotest.test_case "log depth" `Quick test_bootstrap_converges_to_log_depth;
          Alcotest.test_case "lookups succeed" `Quick test_bootstrap_lookups_succeed;
          Alcotest.test_case "early lookups" `Quick test_bootstrap_lookups_succeed_early;
          Alcotest.test_case "refs share prefix" `Quick test_bootstrap_refs_point_across;
          Alcotest.test_case "single member" `Quick test_bootstrap_single_member;
        ] );
      ( "kademlia",
        [
          Alcotest.test_case "closest members ordering" `Quick test_kademlia_closest_members_ordering;
          Alcotest.test_case "lookup reaches closest" `Quick test_kademlia_lookup_reaches_closest;
          Alcotest.test_case "logarithmic rounds" `Quick test_kademlia_lookup_logarithmic_rounds;
          Alcotest.test_case "lookup under churn" `Quick test_kademlia_lookup_under_churn;
          Alcotest.test_case "live: enable consumes no rng" `Quick
            test_kademlia_live_enable_consumes_no_rng;
          Alcotest.test_case "live: contacts maintain buckets" `Quick
            test_kademlia_live_contacts_maintain_buckets;
          Alcotest.test_case "live: dead entries churned out" `Quick
            test_kademlia_live_dead_entries_churned_out;
          Alcotest.test_case "live: tables survive and recover" `Quick
            test_kademlia_live_tables_survive_and_recover;
          Alcotest.test_case "live: refresh sweep" `Quick test_kademlia_refresh_sweep;
          Alcotest.test_case "routing table bounded" `Quick test_kademlia_routing_table_bounded;
          Alcotest.test_case "probe repair" `Quick test_kademlia_probe_repair;
        ] );
      ( "pastry",
        [
          Alcotest.test_case "numerically closest" `Quick test_pastry_numerically_closest;
          Alcotest.test_case "lookup reaches owner" `Quick test_pastry_lookup_reaches_owner;
          Alcotest.test_case "prefix-speed hops" `Quick test_pastry_lookup_prefix_speed;
          Alcotest.test_case "leaf set shape" `Quick test_pastry_leaf_set_shape;
          Alcotest.test_case "lookup under churn" `Quick test_pastry_lookup_under_churn;
          Alcotest.test_case "replica group distinct" `Quick test_pastry_replica_group_distinct;
        ] );
      ( "facade-maintenance",
        [
          Alcotest.test_case "backends share interface" `Quick test_dht_facade_backends_agree_on_interface;
          Alcotest.test_case "tiny populations" `Quick test_dht_tiny_populations;
          Alcotest.test_case "backend labels" `Quick test_dht_backend_labels;
          Alcotest.test_case "pgrid oversize leaf" `Quick test_pgrid_leaf_size_exceeds_members;
          Alcotest.test_case "chord replica group" `Quick test_dht_chord_replica_group_size;
          Alcotest.test_case "maintenance rates" `Quick test_maintenance_rates;
          Alcotest.test_case "attach charges messages" `Quick test_maintenance_attach_charges_messages;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "bucket_rules",
        [
          Alcotest.test_case "contact decisions" `Quick test_bucket_contact_decisions;
          Alcotest.test_case "probe outcomes" `Quick test_bucket_probe_outcomes;
          Alcotest.test_case "probe messages" `Quick test_bucket_probe_messages;
        ] );
      ( "kademlia-pin",
        [
          Alcotest.test_case "lookup digests" `Quick test_kademlia_lookup_pin;
          Alcotest.test_case "rejoin digests" `Quick test_kademlia_rejoin_pin;
        ] );
      ( "chord-pin",
        [
          Alcotest.test_case "lookup digests" `Quick test_chord_lookup_pin;
          Alcotest.test_case "dynamic digests" `Quick test_chord_dynamic_pin;
        ] );
    ]
