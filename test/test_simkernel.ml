(* Tests for Pdht_sim: event queue, engine, metrics. *)

module Event_queue = Pdht_sim.Event_queue
module Engine = Pdht_sim.Engine
module Metrics = Pdht_sim.Metrics

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_empty () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check int) "size 0" 0 (Event_queue.size q);
  Alcotest.(check (option (pair (float 0.) int))) "pop none" None (Event_queue.pop q)

let test_queue_orders_by_time () =
  let q = Event_queue.create () in
  List.iter (fun (t, v) -> Event_queue.add q ~time:t v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let order = List.init 4 (fun _ -> match Event_queue.pop q with
    | Some (_, v) -> v
    | None -> "?") in
  Alcotest.(check (list string)) "sorted" [ "z"; "a"; "b"; "c" ] order

let test_queue_fifo_on_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.add q ~time:5. i
  done;
  let order = List.init 10 (fun _ -> match Event_queue.pop q with
    | Some (_, v) -> v
    | None -> -1) in
  Alcotest.(check (list int)) "insertion order on equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_queue_interleaved_ops () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:10. 10;
  Event_queue.add q ~time:5. 5;
  (match Event_queue.pop q with
  | Some (t, v) ->
      Alcotest.(check (float 0.)) "time" 5. t;
      Alcotest.(check int) "value" 5 v
  | None -> Alcotest.fail "expected event");
  Event_queue.add q ~time:1. 1;
  (match Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check int) "later add can come first" 1 v
  | None -> Alcotest.fail "expected event");
  Alcotest.(check int) "one left" 1 (Event_queue.size q)

let test_queue_many_random () =
  let rng = Pdht_util.Rng.create ~seed:70 in
  let q = Event_queue.create () in
  let times = Array.init 5000 (fun _ -> Pdht_util.Rng.float rng 1000.) in
  Array.iteri (fun i t -> Event_queue.add q ~time:t i) times;
  Alcotest.(check int) "size" 5000 (Event_queue.size q);
  let prev = ref neg_infinity in
  for _ = 1 to 5000 do
    match Event_queue.pop q with
    | Some (t, _) ->
        Alcotest.(check bool) "non-decreasing" true (t >= !prev);
        prev := t
    | None -> Alcotest.fail "queue exhausted early"
  done

let test_queue_rejects_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: NaN time")
    (fun () -> Event_queue.add q ~time:Float.nan 0)

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1. 1;
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q)

let test_queue_clear_keeps_capacity () =
  let q = Event_queue.create () in
  for i = 1 to 1000 do
    Event_queue.add q ~time:(float_of_int i) i
  done;
  let warm = Event_queue.capacity q in
  Alcotest.(check bool) "grew" true (warm >= 1000);
  Event_queue.clear q;
  Alcotest.(check bool) "empty after clear" true (Event_queue.is_empty q);
  Alcotest.(check int) "capacity retained" warm (Event_queue.capacity q);
  (* Refilling a cleared queue must not grow the backing arrays again. *)
  for i = 1 to 1000 do
    Event_queue.add q ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "no regrowth on refill" warm (Event_queue.capacity q)

let test_queue_hot_path_raises_on_empty () =
  let q = Event_queue.create () in
  Alcotest.check_raises "min_time" (Invalid_argument "Event_queue.min_time: empty queue")
    (fun () -> ignore (Event_queue.min_time (q : int Event_queue.t)));
  Alcotest.check_raises "pop_min" (Invalid_argument "Event_queue.pop_min: empty queue")
    (fun () -> ignore (Event_queue.pop_min q));
  (* And again after a fill/drain cycle, not just on a fresh queue. *)
  Event_queue.add q ~time:1. 1;
  ignore (Event_queue.pop_min q);
  Alcotest.check_raises "pop_min after drain" (Invalid_argument "Event_queue.pop_min: empty queue")
    (fun () -> ignore (Event_queue.pop_min q))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~delay:2. (fun _ -> log := 2 :: !log);
  Engine.schedule engine ~delay:1. (fun _ -> log := 1 :: !log);
  Engine.schedule engine ~delay:3. (fun _ -> log := 3 :: !log);
  Engine.run engine ~until:10.;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_until_cutoff () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~delay:1. (fun _ -> incr fired);
  Engine.schedule engine ~delay:5. (fun _ -> incr fired);
  Engine.run engine ~until:2.;
  Alcotest.(check int) "only first fired" 1 !fired;
  Engine.run engine ~until:10.;
  Alcotest.(check int) "second fires on resume" 2 !fired

let test_engine_now_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.schedule engine ~delay:1.5 (fun e -> seen := Engine.now e :: !seen);
  Engine.schedule engine ~delay:4. (fun e -> seen := Engine.now e :: !seen);
  Engine.run engine ~until:10.;
  Alcotest.(check (list (float 1e-9))) "handler sees its own time" [ 1.5; 4. ]
    (List.rev !seen)

let test_engine_handlers_can_schedule () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain e =
    incr count;
    if !count < 5 then Engine.schedule e ~delay:1. chain
  in
  Engine.schedule engine ~delay:1. chain;
  Engine.run engine ~until:100.;
  Alcotest.(check int) "chain of 5" 5 !count

let test_engine_periodic () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule_periodic engine ~first:10. ~every:10. (fun _ -> incr fired);
  Engine.run engine ~until:55.;
  Alcotest.(check int) "five ticks in 55s" 5 !fired

let test_engine_periodic_no_drift () =
  (* Tick times must be [first + k * every] exactly, not an accumulated
     [+. every] per tick: with every = 0.1 the accumulated sum drifts by
     ~1e-9 per million ticks, eventually losing or gaining a tick
     against any fixed horizon.  0.1 is not representable in binary, so
     this is the adversarial period. *)
  let engine = Engine.create () in
  let fired = ref 0 in
  let worst = ref 0. in
  Engine.schedule_periodic engine ~first:0.1 ~every:0.1 (fun e ->
      incr fired;
      let expected = float_of_int !fired *. 0.1 in
      worst := Float.max !worst (Float.abs (Engine.now e -. expected)));
  Engine.run engine ~until:100_000.;
  (* 100_000 / 0.1 = exactly 1_000_000 ticks (the tick at t = 100_000
     itself is beyond [until], which is exclusive at equal time only if
     scheduled after the cutoff check — count both acceptable values
     out: the grid guarantees the k-th tick lands on k * 0.1 up to one
     representation error, never an accumulated one). *)
  Alcotest.(check bool) "one million ticks" true (!fired >= 999_999 && !fired <= 1_000_000);
  Alcotest.(check bool)
    (Printf.sprintf "worst grid deviation %.3e is representation-level" !worst)
    true
    (!worst < 1e-7)

let test_engine_rejects_negative_delay () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule engine ~delay:(-1.) (fun _ -> ()))

let test_engine_schedule_at_past_rejected () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:5. (fun e ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
        (fun () -> Engine.schedule_at e ~time:1. (fun _ -> ())));
  Engine.run engine ~until:10.

let test_engine_handler_failure_context () =
  (* A raising handler escapes [run] as [Handler_failed] carrying the
     simulated time and, when wrapped with [labelled], the handler's
     tag — so a crash deep in a long run is attributable without a
     debugger. *)
  let engine = Engine.create () in
  Engine.schedule_at engine ~time:3.5
    (Engine.labelled "test:boom" (fun _ -> failwith "boom"));
  (try
     Engine.run engine ~until:10.;
     Alcotest.fail "expected Handler_failed"
   with Engine.Handler_failed { time; label; exn } ->
     Alcotest.(check (float 0.)) "time" 3.5 time;
     Alcotest.(check string) "label" "test:boom" label;
     Alcotest.(check bool) "original exn" true (exn = Failure "boom"));
  (* Unlabelled handlers still get the time, under the generic tag. *)
  let engine = Engine.create () in
  Engine.schedule_at engine ~time:1.25 (fun _ -> failwith "anon");
  (try
     Engine.run engine ~until:10.;
     Alcotest.fail "expected Handler_failed"
   with Engine.Handler_failed { time; label; _ } ->
     Alcotest.(check (float 0.)) "anon time" 1.25 time;
     Alcotest.(check string) "anon label" "event" label)

let test_engine_handler_failure_printer () =
  let message =
    try
      let engine = Engine.create () in
      Engine.schedule_at engine ~time:2.
        (Engine.labelled "fault:crash" (fun _ -> failwith "no survivors"));
      Engine.run engine ~until:10.;
      "no exception"
    with exn -> Printexc.to_string exn
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions label" true (contains message "fault:crash");
  Alcotest.(check bool) "mentions time" true (contains message "t=2");
  Alcotest.(check bool) "mentions cause" true (contains message "no survivors")

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_charge_and_count () =
  let m = Metrics.create (Pdht_obs.Registry.create ()) in
  Metrics.charge m Metrics.Query_index 5;
  Metrics.charge m Metrics.Query_index 3;
  Metrics.charge m Metrics.Maintenance 7;
  Alcotest.(check int) "query-index" 8 (Metrics.count m Metrics.Query_index);
  Alcotest.(check int) "maintenance" 7 (Metrics.count m Metrics.Maintenance);
  Alcotest.(check int) "untouched" 0 (Metrics.count m Metrics.Update_gossip);
  Alcotest.(check int) "total" 15 (Metrics.total m)

let test_metrics_rejects_negative () =
  let m = Metrics.create (Pdht_obs.Registry.create ()) in
  Alcotest.check_raises "negative"
    (Invalid_argument "Registry.incr \"messages.other\": negative count")
    (fun () -> Metrics.charge m Metrics.Other (-1))

let test_metrics_snapshot_shared_registry () =
  (* A second ledger on a registry that already holds messages counts
     from zero, while the registry keeps the running sum. *)
  let r = Pdht_obs.Registry.create () in
  let first = Metrics.create r in
  Metrics.charge first Metrics.Query_unstructured 10;
  let second = Metrics.create r in
  Metrics.charge second Metrics.Query_unstructured 4;
  Metrics.charge second Metrics.Replica_flood 2;
  let snap = Metrics.snapshot second in
  Alcotest.(check int) "snapshot covers all categories"
    (List.length Metrics.all_categories) (List.length snap);
  Alcotest.(check int) "second counts from zero" 4
    (List.assoc Metrics.Query_unstructured snap);
  Alcotest.(check int) "second total" 6 (Metrics.total second);
  Alcotest.(check (option int)) "registry holds the sum" (Some 14)
    (Pdht_obs.Registry.counter_value_by_name r
       (Metrics.counter_name Metrics.Query_unstructured))

let test_metrics_labels_distinct () =
  let labels = List.map Metrics.category_label Metrics.all_categories in
  Alcotest.(check int) "distinct labels" (List.length labels)
    (List.length (List.sort_uniq compare labels))

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Model-based check of the SoA heap: drive the real queue and a naive
   reference (a sorted association list keyed by (time, insertion seq))
   through the same random Add/Pop/Clear script and demand identical
   observable behaviour at every step — pop results including FIFO
   tie-breaks, sizes, and min_time. *)
type queue_op = Op_add of float | Op_pop | Op_clear

let queue_op_gen =
  QCheck.Gen.(
    frequency
      [
        (* A coarse time grid so equal times (and hence tie-breaks) are
           actually exercised. *)
        (6, map (fun t -> Op_add (float_of_int t)) (int_bound 20));
        (3, return Op_pop);
        (1, return Op_clear);
      ])

let queue_op_print = function
  | Op_add t -> Printf.sprintf "Add %g" t
  | Op_pop -> "Pop"
  | Op_clear -> "Clear"

let queue_model_agrees ops =
  let q = Event_queue.create () in
  let model = ref [] (* (time, seq, payload), sorted by (time, seq) *) in
  let seq = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | Op_add time ->
          Event_queue.add q ~time !seq;
          model :=
            List.merge
              (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
              !model
              [ (time, !seq, !seq) ];
          incr seq;
          Event_queue.size q = List.length !model
      | Op_pop -> (
          match (Event_queue.pop q, !model) with
          | None, [] -> true
          | Some (t, v), (mt, _, mv) :: rest ->
              model := rest;
              t = mt && v = mv
          | Some _, [] | None, _ :: _ -> false)
      | Op_clear ->
          Event_queue.clear q;
          model := [];
          Event_queue.is_empty q)
    ops
  && (* Drain whatever is left and compare the full tail. *)
  List.for_all
    (fun (mt, _, mv) ->
      (not (Event_queue.is_empty q))
      && Event_queue.min_time q = mt
      &&
      let v = Event_queue.pop_min q in
      v = mv)
    !model
  && Event_queue.is_empty q

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"heap agrees with sorted-list model (Add/Pop/Clear)" ~count:500
      (list_of_size Gen.(int_bound 60) (make ~print:queue_op_print queue_op_gen))
      queue_model_agrees;
    Test.make ~name:"event queue is a sorting network" ~count:100
      (small_list (float_bound_inclusive 1000.))
      (fun times ->
        let q = Event_queue.create () in
        List.iteri (fun i t -> Event_queue.add q ~time:t i) times;
        let popped = ref [] in
        let rec drain () =
          match Event_queue.pop q with
          | Some (t, _) ->
              popped := t :: !popped;
              drain ()
          | None -> ()
        in
        drain ();
        List.rev !popped = List.sort compare times);
    Test.make ~name:"engine fires everything before the horizon" ~count:100
      (small_list (float_range 0. 100.))
      (fun delays ->
        let engine = Engine.create () in
        let fired = ref 0 in
        List.iter (fun d -> Engine.schedule engine ~delay:d (fun _ -> incr fired)) delays;
        Engine.run engine ~until:100.;
        !fired = List.length delays);
  ]

let () =
  Alcotest.run "pdht_sim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "empty" `Quick test_queue_empty;
          Alcotest.test_case "orders by time" `Quick test_queue_orders_by_time;
          Alcotest.test_case "FIFO on ties" `Quick test_queue_fifo_on_ties;
          Alcotest.test_case "interleaved ops" `Quick test_queue_interleaved_ops;
          Alcotest.test_case "many random events" `Quick test_queue_many_random;
          Alcotest.test_case "rejects NaN" `Quick test_queue_rejects_nan;
          Alcotest.test_case "clear" `Quick test_queue_clear;
          Alcotest.test_case "clear keeps capacity" `Quick test_queue_clear_keeps_capacity;
          Alcotest.test_case "hot path raises on empty" `Quick
            test_queue_hot_path_raises_on_empty;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "until cutoff + resume" `Quick test_engine_until_cutoff;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "handlers schedule" `Quick test_engine_handlers_can_schedule;
          Alcotest.test_case "periodic" `Quick test_engine_periodic;
          Alcotest.test_case "periodic long-horizon drift" `Quick
            test_engine_periodic_no_drift;
          Alcotest.test_case "rejects negative delay" `Quick test_engine_rejects_negative_delay;
          Alcotest.test_case "rejects past schedule_at" `Quick test_engine_schedule_at_past_rejected;
          Alcotest.test_case "handler failure context" `Quick
            test_engine_handler_failure_context;
          Alcotest.test_case "handler failure printer" `Quick
            test_engine_handler_failure_printer;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "charge and count" `Quick test_metrics_charge_and_count;
          Alcotest.test_case "rejects negative" `Quick test_metrics_rejects_negative;
          Alcotest.test_case "snapshot from a shared registry" `Quick
            test_metrics_snapshot_shared_registry;
          Alcotest.test_case "labels distinct" `Quick test_metrics_labels_distinct;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
