(* Tests for Pdht_work: query and update streams, scenarios. *)

module Rng = Pdht_util.Rng
module Query_gen = Pdht_work.Query_gen
module Update_gen = Pdht_work.Update_gen
module Scenario = Pdht_work.Scenario

let make_gen ?(num_peers = 100) ?(f_qry = 1.) ?(keys = 50) ?(seed = 1) () =
  let rng = Rng.create ~seed in
  Query_gen.create rng ~num_peers ~f_qry
    ~distribution:(Pdht_dist.Discrete.zipf ~n:keys ~alpha:1.2)
    ~shift:(Pdht_dist.Popularity_shift.static ~n:keys)
    ()

(* ------------------------------------------------------------------ *)
(* Query generation *)

let test_query_fields_in_range () =
  let g = make_gen () in
  let t = ref 0. in
  for _ = 1 to 1000 do
    let q = Query_gen.next g ~after:!t in
    Alcotest.(check bool) "time advances" true (q.Query_gen.time > !t);
    Alcotest.(check bool) "peer in range" true
      (q.Query_gen.peer >= 0 && q.Query_gen.peer < 100);
    Alcotest.(check bool) "key in range" true
      (q.Query_gen.key_index >= 0 && q.Query_gen.key_index < 50);
    Alcotest.(check bool) "rank in range" true
      (q.Query_gen.rank >= 1 && q.Query_gen.rank <= 50);
    t := q.Query_gen.time
  done

let test_query_rate () =
  let g = make_gen ~num_peers:200 ~f_qry:0.5 () in
  (* Empirically: count queries in [0, 100] — expect ~10000 ± 5%. *)
  let count = Seq.length (Query_gen.stream g ~from:0. ~until:100.) in
  Alcotest.(check bool)
    (Printf.sprintf "%d queries close to 10000" count)
    true
    (count > 9_300 && count < 10_700)

let test_query_zipf_popularity () =
  let g = make_gen ~keys:100 ~f_qry:2. () in
  let counts = Array.make 100 0 in
  Seq.iter
    (fun q -> counts.(q.Query_gen.rank - 1) <- counts.(q.Query_gen.rank - 1) + 1)
    (Query_gen.stream g ~from:0. ~until:200.);
  Alcotest.(check bool) "rank 1 much more popular than rank 50" true
    (counts.(0) > 5 * counts.(49))

let test_query_shift_changes_keys () =
  let rng = Rng.create ~seed:2 in
  let shift = Pdht_dist.Popularity_shift.swap_halves_at ~n:100 ~time:500. in
  let g =
    Query_gen.create rng ~num_peers:100 ~f_qry:1.
      ~distribution:(Pdht_dist.Discrete.zipf ~n:100 ~alpha:1.2)
      ~shift ()
  in
  (* Before the shift, rank 1 maps to key 0; after, to a high key. *)
  let before = ref None and after = ref None in
  Seq.iter
    (fun q ->
      if q.Query_gen.rank = 1 then
        if q.Query_gen.time < 500. then before := Some q.Query_gen.key_index
        else after := Some q.Query_gen.key_index)
    (Query_gen.stream g ~from:0. ~until:1000.);
  match (!before, !after) with
  | Some b, Some a ->
      Alcotest.(check int) "before: identity" 0 b;
      Alcotest.(check bool) "after: moved" true (a >= 50)
  | _ -> Alcotest.fail "expected rank-1 queries on both sides of the shift"

let test_query_attach_to_engine () =
  let g = make_gen ~f_qry:0.5 () in
  let engine = Pdht_sim.Engine.create () in
  let seen = ref 0 in
  let monotone = ref true in
  let last = ref 0. in
  Query_gen.attach g engine ~until:50. ~handler:(fun eng ~peer ~key_index ~rank ->
      incr seen;
      if peer < 0 || peer >= 100 then monotone := false;
      if key_index < 0 || rank < 0 then monotone := false;
      (* handlers fire at the query's scheduled time, so engine time is
         the event time and must advance monotonically *)
      if Pdht_sim.Engine.now eng < !last then monotone := false;
      last := Pdht_sim.Engine.now eng);
  Pdht_sim.Engine.run engine ~until:50.;
  Alcotest.(check bool) "queries fired" true (!seen > 0);
  Alcotest.(check bool) "times consistent with engine" true !monotone

let test_query_validation () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "mismatched sizes"
    (Invalid_argument "Query_gen.create: distribution and shift disagree on key count")
    (fun () ->
      ignore
        (Query_gen.create rng ~num_peers:10 ~f_qry:1.
           ~distribution:(Pdht_dist.Discrete.uniform ~n:5)
           ~shift:(Pdht_dist.Popularity_shift.static ~n:6) ()))

(* ------------------------------------------------------------------ *)
(* Rate profiles *)

module Rate_profile = Pdht_work.Rate_profile

let test_profile_constant () =
  let p = Rate_profile.constant 0.5 in
  Alcotest.(check (float 1e-12)) "rate" 0.5 (Rate_profile.rate_at p 100.);
  Alcotest.(check (float 1e-12)) "max" 0.5 (Rate_profile.max_rate p)

let test_profile_diurnal_phases () =
  let p = Rate_profile.diurnal ~busy:1. ~calm:0.1 ~period:100. ~busy_fraction:0.3 in
  Alcotest.(check (float 1e-12)) "busy at start" 1. (Rate_profile.rate_at p 0.);
  Alcotest.(check (float 1e-12)) "busy before boundary" 1. (Rate_profile.rate_at p 29.);
  Alcotest.(check (float 1e-12)) "calm after boundary" 0.1 (Rate_profile.rate_at p 30.);
  Alcotest.(check (float 1e-12)) "wraps" 1. (Rate_profile.rate_at p 105.);
  Alcotest.(check (float 1e-12)) "max is busy" 1. (Rate_profile.max_rate p)

let test_profile_validation () =
  Alcotest.check_raises "constant" (Invalid_argument "Rate_profile.constant: rate must be positive")
    (fun () -> ignore (Rate_profile.constant 0.));
  Alcotest.check_raises "fraction"
    (Invalid_argument "Rate_profile.diurnal: busy_fraction must be in (0,1)") (fun () ->
      ignore (Rate_profile.diurnal ~busy:1. ~calm:0.5 ~period:10. ~busy_fraction:1.))

let test_query_gen_thinning_rate () =
  (* A 50/50 busy/calm profile must produce close to the mean rate. *)
  let rng = Rng.create ~seed:9 in
  let profile = Rate_profile.diurnal ~busy:1. ~calm:0.2 ~period:100. ~busy_fraction:0.5 in
  let g =
    Query_gen.create rng ~num_peers:50 ~f_qry:1. ~profile
      ~distribution:(Pdht_dist.Discrete.uniform ~n:10)
      ~shift:(Pdht_dist.Popularity_shift.static ~n:10)
      ()
  in
  (* Expected: 50 peers * 0.6 mean = 30/s over whole periods. *)
  let count = Seq.length (Query_gen.stream g ~from:0. ~until:1000.) in
  Alcotest.(check bool) (Printf.sprintf "%d near 30000" count) true
    (count > 28_000 && count < 32_000);
  (* Busy windows see ~5x the calm-window traffic. *)
  let busy = ref 0 and calm = ref 0 in
  Seq.iter
    (fun q ->
      if Float.rem q.Query_gen.time 100. < 50. then incr busy else incr calm)
    (Query_gen.stream g ~from:0. ~until:500.);
  Alcotest.(check bool)
    (Printf.sprintf "busy %d >> calm %d" !busy !calm)
    true
    (float_of_int !busy > 3. *. float_of_int !calm)

(* ------------------------------------------------------------------ *)
(* Update generation *)

let test_update_rate () =
  let rng = Rng.create ~seed:4 in
  let g = Update_gen.create rng ~articles:100 ~mean_lifetime:50. in
  (* Rate = 100/50 = 2/s; in 500 s expect ~1000 events. *)
  let count = Seq.length (Update_gen.stream g ~from:0. ~until:500.) in
  Alcotest.(check bool) (Printf.sprintf "%d near 1000" count) true
    (count > 850 && count < 1150)

let test_update_ids_in_range () =
  let rng = Rng.create ~seed:5 in
  let g = Update_gen.create rng ~articles:30 ~mean_lifetime:10. in
  Seq.iter
    (fun u ->
      Alcotest.(check bool) "article id" true
        (u.Update_gen.article_id >= 0 && u.Update_gen.article_id < 30))
    (Update_gen.stream g ~from:0. ~until:100.)

let test_update_attach () =
  let rng = Rng.create ~seed:7 in
  let g = Update_gen.create rng ~articles:10 ~mean_lifetime:5. in
  let engine = Pdht_sim.Engine.create () in
  let seen = ref 0 in
  Update_gen.attach g engine ~until:20. ~handler:(fun _ ~article_id:_ -> incr seen);
  Pdht_sim.Engine.run engine ~until:20.;
  Alcotest.(check bool) "updates fired" true (!seen > 10)

let test_update_validation () =
  let rng = Rng.create ~seed:8 in
  Alcotest.check_raises "lifetime"
    (Invalid_argument "Update_gen.create: lifetime must be positive") (fun () ->
      ignore (Update_gen.create rng ~articles:5 ~mean_lifetime:0.))

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_scenario_default_valid () =
  match Scenario.validate Scenario.news_default with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_scenario_materialisation () =
  let s = Scenario.news_default in
  let d = Scenario.distribution s in
  Alcotest.(check int) "distribution size" s.Scenario.keys (Pdht_dist.Discrete.n d);
  let shift = Scenario.popularity_shift s in
  Alcotest.(check int) "shift size" s.Scenario.keys (Pdht_dist.Popularity_shift.n shift)

let test_scenario_with_scale () =
  let s = Scenario.with_scale Scenario.news_default ~peers:500 ~keys:999 in
  Alcotest.(check int) "peers" 500 s.Scenario.num_peers;
  Alcotest.(check int) "keys" 999 s.Scenario.keys

let test_scenario_rejects_bad () =
  let bad = { Scenario.news_default with Scenario.f_qry = 0. } in
  (match Scenario.validate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero f_qry must fail");
  let bad_churn =
    {
      Scenario.news_default with
      Scenario.churn =
        Scenario.Exponential_sessions
          { mean_uptime = -1.; mean_downtime = 1.; initially_online_fraction = 0.5 };
    }
  in
  match Scenario.validate bad_churn with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative uptime must fail"

let test_scenario_presets_valid () =
  Alcotest.(check bool) "several presets" true (List.length Scenario.presets >= 5);
  List.iter
    (fun (name, description, s) ->
      Alcotest.(check string) "name matches scenario" name s.Scenario.name;
      Alcotest.(check bool) "described" true (String.length description > 0);
      (match Scenario.validate s with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg));
      match Scenario.preset name with
      | Some found -> Alcotest.(check string) "lookup finds it" name found.Scenario.name
      | None -> Alcotest.fail ("preset lookup failed for " ^ name))
    Scenario.presets;
  Alcotest.(check bool) "unknown preset" true (Scenario.preset "no-such" = None)

let test_scenario_variants_materialise () =
  let base = Scenario.news_default in
  let variants =
    [
      { base with Scenario.distribution = Scenario.Uniform };
      { base with Scenario.distribution = Scenario.Hot_cold { hot = 10; hot_mass = 0.9 } };
      { base with Scenario.shift = Scenario.Swap_halves_at 100. };
      { base with Scenario.shift = Scenario.Rotate { times = [ 10.; 20. ]; offset = 7 } };
    ]
  in
  List.iter
    (fun s ->
      ignore (Scenario.distribution s);
      ignore (Scenario.popularity_shift s);
      match Scenario.validate s with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)
    variants

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"query stream strictly increasing times" ~count:50
      (pair small_int (int_range 1 100))
      (fun (seed, peers) ->
        let rng = Rng.create ~seed in
        let g =
          Query_gen.create rng ~num_peers:peers ~f_qry:1.
            ~distribution:(Pdht_dist.Discrete.uniform ~n:10)
            ~shift:(Pdht_dist.Popularity_shift.static ~n:10) ()
        in
        let ok = ref true in
        let prev = ref 0. in
        Seq.iter
          (fun q ->
            if q.Query_gen.time <= !prev then ok := false;
            prev := q.Query_gen.time)
          (Query_gen.stream g ~from:0. ~until:50.);
        !ok);
    Test.make ~name:"stream respects until bound" ~count:50
      (pair small_int (float_range 1. 100.))
      (fun (seed, until) ->
        let rng = Rng.create ~seed in
        let g =
          Query_gen.create rng ~num_peers:10 ~f_qry:2.
            ~distribution:(Pdht_dist.Discrete.uniform ~n:5)
            ~shift:(Pdht_dist.Popularity_shift.static ~n:5) ()
        in
        Seq.for_all (fun q -> q.Query_gen.time <= until) (Query_gen.stream g ~from:0. ~until));
  ]

let () =
  Alcotest.run "pdht_work"
    [
      ( "query-gen",
        [
          Alcotest.test_case "fields in range" `Quick test_query_fields_in_range;
          Alcotest.test_case "rate" `Quick test_query_rate;
          Alcotest.test_case "zipf popularity" `Quick test_query_zipf_popularity;
          Alcotest.test_case "shift changes keys" `Quick test_query_shift_changes_keys;
          Alcotest.test_case "attach to engine" `Quick test_query_attach_to_engine;
          Alcotest.test_case "validation" `Quick test_query_validation;
        ] );
      ( "rate-profile",
        [
          Alcotest.test_case "constant" `Quick test_profile_constant;
          Alcotest.test_case "diurnal phases" `Quick test_profile_diurnal_phases;
          Alcotest.test_case "validation" `Quick test_profile_validation;
          Alcotest.test_case "thinning rate" `Quick test_query_gen_thinning_rate;
        ] );
      ( "update-gen",
        [
          Alcotest.test_case "rate" `Quick test_update_rate;
          Alcotest.test_case "ids in range" `Quick test_update_ids_in_range;
          Alcotest.test_case "attach" `Quick test_update_attach;
          Alcotest.test_case "validation" `Quick test_update_validation;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "default valid" `Quick test_scenario_default_valid;
          Alcotest.test_case "materialisation" `Quick test_scenario_materialisation;
          Alcotest.test_case "with_scale" `Quick test_scenario_with_scale;
          Alcotest.test_case "rejects bad" `Quick test_scenario_rejects_bad;
          Alcotest.test_case "variants materialise" `Quick test_scenario_variants_materialise;
          Alcotest.test_case "presets valid" `Quick test_scenario_presets_valid;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
