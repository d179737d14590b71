(* Unit tests for the pure protocol cores in [lib/proto].

   Each machine is exercised as plain data: feed events (or, for the
   RPC ladder, scripted attempt outcomes), assert the exact action
   sequence.  The drivers (simulator hook, process conductor) are
   deliberately absent — that is the point of the extraction — so
   these tests pin the protocol semantics that both drivers must
   share. *)

module M = Pdht_proto.Rpc_machine
module Q = Pdht_proto.Query_plan
module U = Pdht_proto.Update_plan
module Sel = Pdht_proto.Selection
module Rr = Pdht_proto.Repair_rules
module B = Pdht_proto.Bucket_rules

let feq = Alcotest.(check (float 1e-9))

(* ---------------------------------------------------------------- *)
(* Rpc_machine                                                       *)
(* ---------------------------------------------------------------- *)

(* Run the ladder against a scripted peer that answers attempt
   [reply_at] (never, for [None]); returns the result and every
   (attempt, timeout) the ladder asked for, in order. *)
let run_ladder config ~reply_at =
  let calls = ref [] in
  let result =
    M.call config (fun ~attempt ~timeout ->
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
      let config = { M.timeout; retries; backoff } in
      let result, calls = run_ladder config ~reply_at in
      let answered = match reply_at with Some r -> r <= retries | None -> false in
      let last = match reply_at with Some r when answered -> r | _ -> retries in
      calls
      = List.init (last + 1) (fun k -> (k, timeout *. (backoff ** float_of_int k)))
      && result = if answered then reply_at else None)

let test_rpc_retry_then_give_up () =
  check_ladder "no reply"
    (run_ladder { M.timeout = 1.0; retries = 2; backoff = 2.0 } ~reply_at:None)
    ~want_result:None
    ~want_calls:[ (0, 1.0); (1, 2.0); (2, 4.0) ]

let test_rpc_reply_settles_once () =
  check_ladder "reply on the first retry"
    (run_ladder { M.timeout = 1.0; retries = 3; backoff = 2.0 } ~reply_at:(Some 1))
    ~want_result:(Some 1)
    ~want_calls:[ (0, 1.0); (1, 2.0) ]

let test_rpc_zero_retries_one_shot () =
  check_ladder "zero retries"
    (run_ladder { M.timeout = 0.25; retries = 0; backoff = 3.0 } ~reply_at:None)
    ~want_result:None ~want_calls:[ (0, 0.25) ]

(* ---------------------------------------------------------------- *)
(* Query_plan                                                        *)
(* ---------------------------------------------------------------- *)

let check_finish name (a : Q.action) ~source ~provider =
  match a with
  | Q.Finish o ->
      Alcotest.(check bool) (name ^ ": source") true (o.Q.source = source);
      Alcotest.(check (option int)) (name ^ ": provider") provider o.Q.provider
  | _ -> Alcotest.fail (name ^ ": expected Finish")

let test_query_no_index_paths () =
  let t, a = Q.start Q.No_index in
  (match a with
  | Q.Search_broadcast -> ()
  | _ -> Alcotest.fail "No_index starts by broadcasting");
  let _, a = Q.step t (Q.Broadcast_found { provider = 7 }) in
  check_finish "no-index hit" a ~source:Q.From_broadcast ~provider:(Some 7);
  let t, _ = Q.start Q.No_index in
  let _, a = Q.step t Q.Broadcast_failed in
  check_finish "no-index miss" a ~source:Q.Not_found ~provider:None

let test_query_index_all_paths () =
  let t, a = Q.start Q.Index_all in
  (match a with
  | Q.Reach_entry -> ()
  | _ -> Alcotest.fail "Index_all starts at the entry point");
  (* Entry failure is final: there is no broadcast fallback. *)
  let _, a = Q.step t Q.Entry_failed in
  check_finish "index-all entry failure" a ~source:Q.Not_found ~provider:None;
  let t, a = Q.step t Q.Entry_reached in
  (match a with
  | Q.Search_index -> ()
  | _ -> Alcotest.fail "Index_all searches the index after contact");
  let _, a = Q.step t (Q.Index_hit { provider = 3 }) in
  check_finish "index-all hit" a ~source:Q.From_index ~provider:(Some 3);
  let _, a = Q.step t Q.Index_miss in
  check_finish "index-all miss is final" a ~source:Q.Not_found ~provider:None

let test_query_partial_hit () =
  let t, a = Q.start Q.Partial in
  (match a with Q.Reach_entry -> () | _ -> Alcotest.fail "Partial starts at entry");
  let t, a = Q.step t Q.Entry_reached in
  (match a with Q.Search_index -> () | _ -> Alcotest.fail "then searches the index");
  let _, a = Q.step t (Q.Index_hit { provider = 11 }) in
  check_finish "partial index hit" a ~source:Q.From_index ~provider:(Some 11)

let test_query_partial_miss_broadcast_insert () =
  let t, _ = Q.start Q.Partial in
  let t, _ = Q.step t Q.Entry_reached in
  let t, a = Q.step t Q.Index_miss in
  (match a with
  | Q.Search_broadcast -> ()
  | _ -> Alcotest.fail "index miss falls back to broadcast");
  let t, a = Q.step t (Q.Broadcast_found { provider = 5 }) in
  (match a with
  | Q.Insert_key { provider = 5 } -> ()
  | _ -> Alcotest.fail "broadcast hit after a miss re-inserts");
  let _, a = Q.step t Q.Insert_done in
  check_finish "resolved via broadcast" a ~source:Q.From_broadcast ~provider:(Some 5)

let test_query_partial_entry_failure_degrades () =
  (* No reachable index: broadcast still runs, but a find must NOT
     trigger re-insertion (nowhere to insert). *)
  let t, _ = Q.start Q.Partial in
  let t, a = Q.step t Q.Entry_failed in
  (match a with
  | Q.Search_broadcast -> ()
  | _ -> Alcotest.fail "entry failure degrades to broadcast");
  let _, a = Q.step t (Q.Broadcast_found { provider = 9 }) in
  check_finish "degraded hit skips insertion" a ~source:Q.From_broadcast
    ~provider:(Some 9);
  let t, _ = Q.start Q.Partial in
  let t, _ = Q.step t Q.Entry_failed in
  let _, a = Q.step t Q.Broadcast_failed in
  check_finish "degraded miss" a ~source:Q.Not_found ~provider:None

let test_query_rejects_out_of_phase_events () =
  let t, _ = Q.start Q.Partial in
  Alcotest.check_raises "broadcast result while contacting"
    (Invalid_argument "Query_plan.step: broadcast-found event in contacting phase")
    (fun () -> ignore (Q.step t (Q.Broadcast_found { provider = 1 })))

(* ---------------------------------------------------------------- *)
(* Update_plan                                                       *)
(* ---------------------------------------------------------------- *)

let test_update_only_index_all_runs () =
  (match U.start Q.No_index with
  | _, U.Finish { delivered = false } -> ()
  | _ -> Alcotest.fail "No_index updates are dropped");
  match U.start Q.Partial with
  | _, U.Finish { delivered = false } -> ()
  | _ -> Alcotest.fail "Partial drops proactive updates (Section 5.1)"

let test_update_full_path () =
  let t, a = U.start Q.Index_all in
  (match a with U.Reach_entry -> () | _ -> Alcotest.fail "update starts at entry");
  let t, a = U.step t U.Entry_reached in
  (match a with U.Route -> () | _ -> Alcotest.fail "then routes");
  let t, a = U.step t U.Route_ok in
  (match a with U.Spread -> () | _ -> Alcotest.fail "then spreads");
  match U.step t U.Spread_done with
  | _, U.Finish { delivered = true } -> ()
  | _ -> Alcotest.fail "spread completes the update"

let test_update_failures_end_undelivered () =
  let t, _ = U.start Q.Index_all in
  (match U.step t U.Entry_failed with
  | _, U.Finish { delivered = false } -> ()
  | _ -> Alcotest.fail "entry failure ends the update");
  let t, _ = U.start Q.Index_all in
  let t, _ = U.step t U.Entry_reached in
  match U.step t U.Route_failed with
  | _, U.Finish { delivered = false } -> ()
  | _ -> Alcotest.fail "routing failure ends the update"

(* ---------------------------------------------------------------- *)
(* Selection                                                         *)
(* ---------------------------------------------------------------- *)

let test_selection_defaults () =
  feq "no policy leases the default TTL" 42.0
    (Sel.lease None ~default_ttl:42.0 ~now:10.0 ~key_index:3);
  Alcotest.(check bool) "no policy admits everything" true
    (Sel.admits None ~now:10.0 ~key_index:3)

let test_selection_policy_consulted () =
  let policy =
    { Sel.admit = (fun ~now:_ ~key_index -> key_index mod 2 = 0);
      ttl_for = (fun ~now ~key_index -> now +. float_of_int key_index) }
  in
  feq "policy lease wins over default" 12.0
    (Sel.lease (Some policy) ~default_ttl:99.0 ~now:10.0 ~key_index:2);
  Alcotest.(check bool) "policy admit: even" true
    (Sel.admits (Some policy) ~now:0.0 ~key_index:4);
  Alcotest.(check bool) "policy admit: odd" false
    (Sel.admits (Some policy) ~now:0.0 ~key_index:5)

(* ---------------------------------------------------------------- *)
(* Repair_rules                                                      *)
(* ---------------------------------------------------------------- *)

let test_repair_threshold_and_topup () =
  Alcotest.(check int) "ceil(0.5 * 5)" 3
    (Rr.content_threshold ~min_fraction:0.5 ~repl:5);
  Alcotest.(check int) "exact fraction stays exact" 2
    (Rr.content_threshold ~min_fraction:0.5 ~repl:4);
  Alcotest.(check bool) "below threshold needs top-up" true
    (Rr.needs_topup ~live:2 ~threshold:3);
  Alcotest.(check bool) "at threshold is healthy" false
    (Rr.needs_topup ~live:3 ~threshold:3);
  Alcotest.(check bool) "extinct items are unrecoverable" false
    (Rr.needs_topup ~live:0 ~threshold:3);
  Alcotest.(check int) "want tops back to repl" 3 (Rr.topup_want ~repl:5 ~live:2);
  Alcotest.(check int) "probe budget scales with want" (20 * 3 + 50)
    (Rr.topup_attempts ~want:3);
  Alcotest.(check int) "two messages per fresh copy" 8 (Rr.copy_messages ~fresh:4)

let test_repair_remaining_ttl () =
  (match Rr.remaining_ttl ~expiry:15.0 ~now:10.0 with
  | Some r -> feq "live entry keeps its remainder" 5.0 r
  | None -> Alcotest.fail "expected Some remaining");
  (match Rr.remaining_ttl ~expiry:10.0 ~now:10.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "expiry boundary is dead");
  match Rr.remaining_ttl ~expiry:3.0 ~now:10.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "past expiry is dead"

(* ---------------------------------------------------------------- *)
(* Bucket_rules                                                      *)
(* ---------------------------------------------------------------- *)

let test_bucket_contact_decisions () =
  let view ~occupancy ~present = { B.occupancy; capacity = 8; present } in
  (match B.on_contact (view ~occupancy:5 ~present:true) with
  | B.Promote -> ()
  | _ -> Alcotest.fail "a known entry is promoted");
  (match B.on_contact (view ~occupancy:8 ~present:true) with
  | B.Promote -> ()
  | _ -> Alcotest.fail "promotion also applies to a full bucket");
  (match B.on_contact (view ~occupancy:5 ~present:false) with
  | B.Insert -> ()
  | _ -> Alcotest.fail "a newcomer enters a bucket with room");
  (match B.on_contact (view ~occupancy:0 ~present:false) with
  | B.Insert -> ()
  | _ -> Alcotest.fail "an empty bucket admits");
  match B.on_contact (view ~occupancy:8 ~present:false) with
  | B.Probe_lrs -> ()
  | _ -> Alcotest.fail "a full bucket probes its LRS entry"

let test_bucket_contact_rejects_malformed_view () =
  List.iter
    (fun (label, view) ->
      match B.on_contact view with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (label ^ " accepted"))
    [
      ("overfull", { B.occupancy = 9; capacity = 8; present = false });
      ("negative occupancy", { B.occupancy = -1; capacity = 8; present = false });
      ("zero capacity", { B.occupancy = 0; capacity = 0; present = false });
      ("present in empty bucket", { B.occupancy = 0; capacity = 8; present = true });
    ]

let test_bucket_probe_outcomes () =
  (* The Kademlia eviction rule: an entry that answers its liveness
     probe is never displaced; only a confirmed-dead one makes room. *)
  (match B.on_probe B.Lrs_alive with
  | B.Keep_old_cache_new -> ()
  | _ -> Alcotest.fail "alive LRS is kept, newcomer cached");
  match B.on_probe B.Lrs_dead with
  | B.Evict_insert_new -> ()
  | _ -> Alcotest.fail "dead LRS is evicted for the newcomer"

let test_bucket_probe_messages () =
  Alcotest.(check int) "alive answers the first attempt" 1
    (B.probe_messages ~retries:3 ~alive:true);
  Alcotest.(check int) "dead eats the whole ladder" 4
    (B.probe_messages ~retries:3 ~alive:false);
  Alcotest.(check int) "no-retry ladder" 1 (B.probe_messages ~retries:0 ~alive:false)

let test_bucket_refresh_due () =
  Alcotest.(check bool) "stale bucket is due" true
    (B.refresh_due ~last_contact:0. ~now:100. ~interval:30.);
  Alcotest.(check bool) "fresh bucket is not" false
    (B.refresh_due ~last_contact:90. ~now:100. ~interval:30.);
  Alcotest.(check bool) "exact boundary is due" true
    (B.refresh_due ~last_contact:70. ~now:100. ~interval:30.);
  match B.refresh_due ~last_contact:0. ~now:1. ~interval:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero interval accepted"

let () =
  Alcotest.run "pdht_proto"
    [
      ( "rpc_machine",
        [
          QCheck_alcotest.to_alcotest prop_backoff_schedule;
          Alcotest.test_case "retry then give up" `Quick test_rpc_retry_then_give_up;
          Alcotest.test_case "reply settles once" `Quick test_rpc_reply_settles_once;
          Alcotest.test_case "zero retries one shot" `Quick test_rpc_zero_retries_one_shot;
        ] );
      ( "query_plan",
        [
          Alcotest.test_case "no-index paths" `Quick test_query_no_index_paths;
          Alcotest.test_case "index-all paths" `Quick test_query_index_all_paths;
          Alcotest.test_case "partial hit" `Quick test_query_partial_hit;
          Alcotest.test_case "partial miss broadcast insert" `Quick
            test_query_partial_miss_broadcast_insert;
          Alcotest.test_case "partial entry failure degrades" `Quick
            test_query_partial_entry_failure_degrades;
          Alcotest.test_case "rejects out-of-phase events" `Quick
            test_query_rejects_out_of_phase_events;
        ] );
      ( "update_plan",
        [
          Alcotest.test_case "only index-all runs" `Quick test_update_only_index_all_runs;
          Alcotest.test_case "full path" `Quick test_update_full_path;
          Alcotest.test_case "failures end undelivered" `Quick
            test_update_failures_end_undelivered;
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
      ( "bucket_rules",
        [
          Alcotest.test_case "contact decisions" `Quick test_bucket_contact_decisions;
          Alcotest.test_case "rejects malformed views" `Quick
            test_bucket_contact_rejects_malformed_view;
          Alcotest.test_case "probe outcomes" `Quick test_bucket_probe_outcomes;
          Alcotest.test_case "probe messages" `Quick test_bucket_probe_messages;
          Alcotest.test_case "refresh due" `Quick test_bucket_refresh_due;
        ] );
    ]
