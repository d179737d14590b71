(* Tests for Pdht_dist: Zipf distribution (paper Eq. 3-4), generic
   discrete distributions and time-varying popularity. *)

module Rng = Pdht_util.Rng
module Zipf = Pdht_dist.Zipf
module Discrete = Pdht_dist.Discrete
module Shift = Pdht_dist.Popularity_shift
module Session = Pdht_dist.Session

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose msg = Alcotest.(check (float 0.02)) msg

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_probs_sum_to_one () =
  let z = Zipf.create ~n:1000 ~alpha:1.2 in
  let total = ref 0. in
  for r = 1 to 1000 do
    total := !total +. Zipf.prob z r
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1. !total

let test_zipf_monotone_decreasing () =
  let z = Zipf.create ~n:100 ~alpha:0.8 in
  for r = 1 to 99 do
    Alcotest.(check bool) "decreasing" true (Zipf.prob z r >= Zipf.prob z (r + 1))
  done

let test_zipf_eq3_exact () =
  (* Eq. 3 checked by hand for n = 3, alpha = 1: probs 1/H, (1/2)/H,
     (1/3)/H with H = 11/6. *)
  let z = Zipf.create ~n:3 ~alpha:1. in
  let h = 11. /. 6. in
  check_float "rank 1" (1. /. h) (Zipf.prob z 1);
  check_float "rank 2" (0.5 /. h) (Zipf.prob z 2);
  check_float "rank 3" (1. /. 3. /. h) (Zipf.prob z 3)

let test_zipf_alpha_zero_uniform () =
  let z = Zipf.create ~n:10 ~alpha:0. in
  for r = 1 to 10 do
    check_float "uniform" 0.1 (Zipf.prob z r)
  done

let test_zipf_cumulative () =
  let z = Zipf.create ~n:50 ~alpha:1.2 in
  check_float "cum 0" 0. (Zipf.mass_of_top z 0);
  Alcotest.(check (float 1e-9)) "cum n" 1. (Zipf.mass_of_top z 50);
  check_float "cum 1 = prob 1" (Zipf.prob z 1) (Zipf.mass_of_top z 1);
  Alcotest.(check bool) "monotone" true (Zipf.mass_of_top z 10 < Zipf.mass_of_top z 20)

(* Workloads draw Zipf ranks through [Discrete.zipf]. *)
let test_zipf_sampler_frequencies () =
  let z = Zipf.create ~n:5 ~alpha:1.0 in
  let d = Discrete.zipf ~n:5 ~alpha:1.0 in
  let rng = Rng.create ~seed:50 in
  let counts = Array.make 5 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let r = Discrete.sample d rng in
    counts.(r - 1) <- counts.(r - 1) + 1
  done;
  for r = 1 to 5 do
    check_float_loose
      (Printf.sprintf "rank %d frequency" r)
      (Zipf.prob z r)
      (float_of_int counts.(r - 1) /. float_of_int n)
  done

let test_zipf_eq4_limits () =
  let z = Zipf.create ~n:100 ~alpha:1.2 in
  check_float "zero trials" 0. (Zipf.expected_hit_prob_at_least_once z ~rank:1 ~trials:0.);
  let p = Zipf.expected_hit_prob_at_least_once z ~rank:1 ~trials:1. in
  Alcotest.(check (float 1e-12)) "one trial = prob" (Zipf.prob z 1) p;
  let many = Zipf.expected_hit_prob_at_least_once z ~rank:1 ~trials:1e6 in
  Alcotest.(check (float 1e-9)) "many trials -> 1" 1. many

let test_zipf_eq4_monotone_in_rank () =
  let z = Zipf.create ~n:1000 ~alpha:1.2 in
  let prev = ref 2. in
  for r = 1 to 1000 do
    let p = Zipf.expected_hit_prob_at_least_once z ~rank:r ~trials:666. in
    Alcotest.(check bool) "decreasing in rank" true (p <= !prev +. 1e-12);
    prev := p
  done

let test_zipf_eq4_matches_naive () =
  (* Against the naive formula where it is numerically safe. *)
  let z = Zipf.create ~n:10 ~alpha:1.0 in
  let naive rank trials = 1. -. ((1. -. Zipf.prob z rank) ** trials) in
  for rank = 1 to 10 do
    Alcotest.(check (float 1e-9)) "matches naive" (naive rank 20.)
      (Zipf.expected_hit_prob_at_least_once z ~rank ~trials:20.)
  done

let test_zipf_rejects_bad_args () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be >= 1")
    (fun () -> ignore (Zipf.create ~n:0 ~alpha:1.));
  let z = Zipf.create ~n:5 ~alpha:1. in
  Alcotest.check_raises "rank 0" (Invalid_argument "Zipf.prob: rank out of range")
    (fun () -> ignore (Zipf.prob z 0));
  Alcotest.check_raises "rank > n" (Invalid_argument "Zipf.prob: rank out of range")
    (fun () -> ignore (Zipf.prob z 6))

(* ------------------------------------------------------------------ *)
(* Discrete *)

let test_discrete_uniform () =
  let d = Discrete.uniform ~n:4 in
  for r = 1 to 4 do
    check_float "uniform prob" 0.25 (Discrete.prob d r)
  done

let test_discrete_zipf_matches_zipf_module () =
  let d = Discrete.zipf ~n:100 ~alpha:1.2 in
  let z = Zipf.create ~n:100 ~alpha:1.2 in
  for r = 1 to 100 do
    Alcotest.(check (float 1e-12)) "same prob" (Zipf.prob z r) (Discrete.prob d r)
  done

let test_discrete_hot_cold () =
  let d = Discrete.hot_cold ~n:100 ~hot:10 ~hot_mass:0.9 in
  let mass ranks = List.fold_left (fun acc r -> acc +. Discrete.prob d r) 0. (List.init ranks succ) in
  check_float "hot mass" 0.9 (mass 10);
  Alcotest.(check (float 1e-9)) "total mass" 1. (mass 100);
  check_float "hot rank prob" 0.09 (Discrete.prob d 1);
  check_float "cold rank prob" (0.1 /. 90.) (Discrete.prob d 50)

let test_discrete_hot_cold_validation () =
  Alcotest.check_raises "hot >= n"
    (Invalid_argument "Discrete.hot_cold: need 1 <= hot < n") (fun () ->
      ignore (Discrete.hot_cold ~n:5 ~hot:5 ~hot_mass:0.5))

let test_discrete_sample_range () =
  let d = Discrete.hot_cold ~n:20 ~hot:3 ~hot_mass:0.8 in
  let rng = Rng.create ~seed:60 in
  let hot_hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Discrete.sample d rng in
    Alcotest.(check bool) "in range" true (r >= 1 && r <= 20);
    if r <= 3 then incr hot_hits
  done;
  check_float_loose "hot fraction" 0.8 (float_of_int !hot_hits /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Popularity shift *)

let test_shift_static_identity () =
  let s = Shift.static ~n:10 in
  for r = 1 to 10 do
    Alcotest.(check int) "identity" (r - 1) (Shift.key_of_rank s ~time:123. r);
    Alcotest.(check int) "inverse" r (Shift.rank_of_key s ~time:123. (r - 1))
  done

let test_shift_rotate_before_after () =
  let s = Shift.rotate_at ~n:10 ~shift_times:[ 100. ] ~offset:3 in
  Alcotest.(check int) "before shift" 0 (Shift.key_of_rank s ~time:50. 1);
  Alcotest.(check int) "after shift" 3 (Shift.key_of_rank s ~time:150. 1);
  Alcotest.(check int) "wraps" 2 (Shift.key_of_rank s ~time:150. 10)

let test_shift_rotate_cumulative () =
  let s = Shift.rotate_at ~n:10 ~shift_times:[ 100.; 200. ] ~offset:3 in
  Alcotest.(check int) "two shifts compose" 6 (Shift.key_of_rank s ~time:250. 1)

let test_shift_swap_halves () =
  let s = Shift.swap_halves_at ~n:10 ~time:500. in
  Alcotest.(check int) "before: identity" 0 (Shift.key_of_rank s ~time:0. 1);
  let top_key_after = Shift.key_of_rank s ~time:600. 1 in
  Alcotest.(check bool) "top rank maps into former cold half" true (top_key_after >= 5);
  (* The former hottest key is now unpopular. *)
  Alcotest.(check bool) "old hot key demoted" true (Shift.rank_of_key s ~time:600. 0 > 5)

let test_shift_inverse_property () =
  let shifts =
    [
      Shift.static ~n:17;
      Shift.rotate_at ~n:17 ~shift_times:[ 10.; 20.; 30. ] ~offset:5;
      Shift.swap_halves_at ~n:17 ~time:15.;
    ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun time ->
          for r = 1 to 17 do
            let k = Shift.key_of_rank s ~time r in
            Alcotest.(check int) "rank_of_key inverts key_of_rank" r
              (Shift.rank_of_key s ~time k)
          done)
        [ 0.; 12.; 25.; 100. ])
    shifts

let test_shift_permutation_property () =
  (* At any instant the mapping must be a bijection on keys. *)
  let s = Shift.swap_halves_at ~n:11 ~time:5. in
  List.iter
    (fun time ->
      let seen = Hashtbl.create 11 in
      for r = 1 to 11 do
        let k = Shift.key_of_rank s ~time r in
        Alcotest.(check bool) "no duplicate key" false (Hashtbl.mem seen k);
        Hashtbl.replace seen k ()
      done)
    [ 0.; 10. ]

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_parse_defaults () =
  match Session.of_string "exp" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
      Alcotest.(check bool) "exp legs" true
        (spec.Session.up = Session.Exponential && spec.Session.down = Session.Exponential);
      check_float "default up" 600. spec.Session.mean_uptime;
      check_float "default down" 400. spec.Session.mean_downtime;
      check_float "default on = stationary availability" 0.6
        spec.Session.initially_online_fraction

let test_session_parse_fields () =
  (match Session.of_string "weibull:up=600:down=200:shape=0.6:on=0.5" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
      (match (spec.Session.up, spec.Session.down) with
      | Session.Weibull { shape = s1 }, Session.Weibull { shape = s2 } ->
          check_float "up shape" 0.6 s1;
          check_float "down shape" 0.6 s2
      | _ -> Alcotest.fail "expected Weibull legs");
      check_float "up" 600. spec.Session.mean_uptime;
      check_float "down" 200. spec.Session.mean_downtime;
      check_float "on" 0.5 spec.Session.initially_online_fraction;
      Alcotest.(check bool) "not exponential" false
        (spec.Session.up = Session.Exponential && spec.Session.down = Session.Exponential));
  match Session.of_string "lognormal:sigma=2" with
  | Error msg -> Alcotest.fail msg
  | Ok spec -> (
      match spec.Session.up with
      | Session.Lognormal { sigma } -> check_float "sigma" 2. sigma
      | _ -> Alcotest.fail "expected a lognormal up leg")

let test_session_roundtrip () =
  List.iter
    (fun s ->
      match Session.of_string s with
      | Error msg -> Alcotest.failf "%s rejected: %s" s msg
      | Ok spec -> (
          match Session.of_string (Session.to_string spec) with
          | Error msg -> Alcotest.failf "%s reparse rejected: %s" s msg
          | Ok spec' ->
              Alcotest.(check bool) (s ^ " round-trips") true (spec = spec')))
    [
      "exp";
      "exp:up=600:down=200";
      "lognormal:up=300:down=100:sigma=2:on=0.9";
      "weibull:up=600:down=200:shape=0.6";
      "pareto:up=1000:down=500:shape=1.5:on=0.4";
    ]

let test_session_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (Result.is_error (Session.of_string s)))
    [
      "";
      "bogus";
      "bogus:up=1";
      "exp:up=0";
      "exp:down=-3";
      "exp:on=1.5";
      "exp:nonsense=2";
      "weibull:shape=0";
      "pareto:shape=1";   (* infinite mean *)
      "lognormal:sigma=0";
      "exp:up=";
    ]

let test_session_draw_means () =
  (* Every distribution is re-anchored on the requested mean; the
     sample mean must land near it.  (Pareto uses shape 3 here — the
     default 1.5 has infinite variance, so its sample mean converges
     too slowly for a fixed-seed tolerance check.) *)
  let n = 100_000 in
  List.iter
    (fun (label, dist, tol) ->
      let rng = Rng.create ~seed:90 in
      let total = ref 0. in
      for _ = 1 to n do
        let d = Session.draw rng dist ~mean:50. in
        Alcotest.(check bool) (label ^ " draws positive") true (d > 0.);
        total := !total +. d
      done;
      Alcotest.(check (float tol)) (label ^ " mean") 50.
        (!total /. float_of_int n))
    [
      ("exp", Session.Exponential, 1.);
      ("lognormal", Session.Lognormal { sigma = 1.5 }, 3.);
      ("weibull", Session.Weibull { shape = 0.6 }, 1.);
      ("pareto", Session.Pareto { shape = 3. }, 1.);
    ]

let test_session_heavy_tail_shape () =
  (* Weibull k < 1 versus exponential at the same mean: more mass in
     short sessions AND a fatter far tail — the signature that makes
     churn-hardened routing interesting. *)
  let n = 50_000 in
  let count_below ~dist ~cut =
    let rng = Rng.create ~seed:91 in
    let c = ref 0 in
    for _ = 1 to n do
      if Session.draw rng dist ~mean:100. < cut then incr c
    done;
    float_of_int !c /. float_of_int n
  in
  let weib = Session.Weibull { shape = 0.6 } in
  Alcotest.(check bool) "more short sessions than exponential" true
    (count_below ~dist:weib ~cut:20.
    > count_below ~dist:Session.Exponential ~cut:20.);
  Alcotest.(check bool) "fatter far tail than exponential" true
    (1. -. count_below ~dist:weib ~cut:500.
    > 1. -. count_below ~dist:Session.Exponential ~cut:500.)

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"zipf cumulative monotone" ~count:100
      (pair (int_range 1 500) (float_range 0. 2.))
      (fun (n, alpha) ->
        let z = Zipf.create ~n ~alpha in
        let ok = ref true in
        for r = 1 to n do
          if Zipf.mass_of_top z r < Zipf.mass_of_top z (r - 1) then ok := false
        done;
        !ok);
    Test.make ~name:"zipf sample in range" ~count:200
      (pair (int_range 1 100) small_int)
      (fun (n, seed) ->
        let d = Discrete.zipf ~n ~alpha:1.2 in
        let rng = Rng.create ~seed in
        let r = Discrete.sample d rng in
        r >= 1 && r <= n);
    Test.make ~name:"rotate preserves bijection" ~count:100
      (triple (int_range 2 50) (int_range 0 100) (float_range 0. 1000.))
      (fun (n, offset, time) ->
        let s = Shift.rotate_at ~n ~shift_times:[ 100.; 300. ] ~offset in
        let seen = Hashtbl.create n in
        let ok = ref true in
        for r = 1 to n do
          let k = Shift.key_of_rank s ~time r in
          if Hashtbl.mem seen k then ok := false;
          Hashtbl.replace seen k ()
        done;
        !ok && Hashtbl.length seen = n);
    Test.make ~name:"eq4 probability in [0,1]" ~count:300
      (triple (int_range 1 200) (int_range 1 200) (float_range 0. 1e5))
      (fun (n, rank, trials) ->
        let rank = min rank n in
        let z = Zipf.create ~n ~alpha:1.2 in
        let p = Zipf.expected_hit_prob_at_least_once z ~rank ~trials in
        p >= 0. && p <= 1.);
  ]

let () =
  Alcotest.run "pdht_dist"
    [
      ( "zipf",
        [
          Alcotest.test_case "probs sum to 1" `Quick test_zipf_probs_sum_to_one;
          Alcotest.test_case "monotone decreasing" `Quick test_zipf_monotone_decreasing;
          Alcotest.test_case "Eq. 3 exact" `Quick test_zipf_eq3_exact;
          Alcotest.test_case "alpha 0 uniform" `Quick test_zipf_alpha_zero_uniform;
          Alcotest.test_case "cumulative" `Quick test_zipf_cumulative;
          Alcotest.test_case "sampler frequencies" `Quick test_zipf_sampler_frequencies;
          Alcotest.test_case "Eq. 4 limits" `Quick test_zipf_eq4_limits;
          Alcotest.test_case "Eq. 4 monotone" `Quick test_zipf_eq4_monotone_in_rank;
          Alcotest.test_case "Eq. 4 matches naive" `Quick test_zipf_eq4_matches_naive;
          Alcotest.test_case "rejects bad args" `Quick test_zipf_rejects_bad_args;
        ] );
      ( "discrete",
        [
          Alcotest.test_case "uniform" `Quick test_discrete_uniform;
          Alcotest.test_case "zipf variant consistent" `Quick test_discrete_zipf_matches_zipf_module;
          Alcotest.test_case "hot-cold masses" `Quick test_discrete_hot_cold;
          Alcotest.test_case "hot-cold validation" `Quick test_discrete_hot_cold_validation;
          Alcotest.test_case "sampling" `Quick test_discrete_sample_range;
        ] );
      ( "popularity-shift",
        [
          Alcotest.test_case "static identity" `Quick test_shift_static_identity;
          Alcotest.test_case "rotate before/after" `Quick test_shift_rotate_before_after;
          Alcotest.test_case "rotate cumulative" `Quick test_shift_rotate_cumulative;
          Alcotest.test_case "swap halves" `Quick test_shift_swap_halves;
          Alcotest.test_case "inverse property" `Quick test_shift_inverse_property;
          Alcotest.test_case "permutation property" `Quick test_shift_permutation_property;
        ] );
      ( "session",
        [
          Alcotest.test_case "parse defaults" `Quick test_session_parse_defaults;
          Alcotest.test_case "parse fields" `Quick test_session_parse_fields;
          Alcotest.test_case "round-trip" `Quick test_session_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_session_rejects_garbage;
          Alcotest.test_case "draw means" `Quick test_session_draw_means;
          Alcotest.test_case "heavy-tail shape" `Quick test_session_heavy_tail_shape;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
