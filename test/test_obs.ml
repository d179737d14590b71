(* Tests for Pdht_obs: JSON round-trips, streaming histogram accuracy,
   registry snapshots, tracer plumbing, exporters, and the integration
   with the simulator's metrics and the full system run. *)

module Json = Pdht_obs.Json
module Histogram = Pdht_obs.Histogram
module Registry = Pdht_obs.Registry
module Event = Pdht_obs.Event
module Sink = Pdht_obs.Sink
module Tracer = Pdht_obs.Tracer
module Export = Pdht_obs.Export
module Context = Pdht_obs.Context
module Span = Pdht_obs.Span
module Timeline = Pdht_obs.Timeline

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let value =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("c", Json.String "hi \"there\"\n");
        ("d", Json.List [ Json.Bool true; Json.Null; Json.Int (-7) ]);
        ("nested", Json.Obj [ ("x", Json.Float 1e-9) ]);
      ]
  in
  match Json.of_string (Json.to_string value) with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok parsed ->
      Alcotest.(check string) "stable print" (Json.to_string value)
        (Json.to_string parsed)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Histogram *)

let exact_percentile values p =
  let sorted = List.sort compare values in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  arr.(max 0 (min (n - 1) (rank - 1)))

(* The log-bucketed quantile must land within one bucket of the exact
   nearest-rank percentile: [exact / gamma <= estimate <= exact * gamma]. *)
let check_quantile_accuracy values =
  let h = Histogram.create () in
  List.iter (Histogram.record h) values;
  let gamma = Histogram.gamma h in
  List.iter
    (fun p ->
      let exact = exact_percentile values p in
      let est = Histogram.quantile h p in
      let lo = exact /. gamma and hi = exact *. gamma in
      if not (est >= lo -. 1e-9 && est <= hi +. 1e-9) then
        Alcotest.failf "p%.0f: estimate %g outside [%g, %g] (exact %g)" (100. *. p)
          est lo hi exact)
    [ 0.5; 0.9; 0.95; 0.99 ]

let test_histogram_quantiles_uniform () =
  let rng = Pdht_util.Rng.create ~seed:11 in
  check_quantile_accuracy
    (List.init 5_000 (fun _ -> 1_000. *. Pdht_util.Rng.unit_float rng))

let test_histogram_quantiles_heavy_tail () =
  let rng = Pdht_util.Rng.create ~seed:12 in
  check_quantile_accuracy
    (List.init 5_000 (fun _ ->
         let u = Pdht_util.Rng.unit_float rng in
         1. /. (1e-4 +. (u *. u))))

let test_histogram_small_counts () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Histogram.quantile h 0.5);
  Histogram.record h 7.;
  Alcotest.(check (float 0.)) "single value p50" 7. (Histogram.quantile h 0.5);
  Alcotest.(check (float 0.)) "single value p99" 7. (Histogram.quantile h 0.99);
  Alcotest.(check int) "count" 1 (Histogram.count h)

let test_histogram_rejects_bad_input () =
  let h = Histogram.create () in
  List.iter
    (fun v ->
      match Histogram.record h v with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "accepted %g" v)
    [ -1.; Float.nan; Float.infinity ];
  Alcotest.(check int) "invalid samples rejected" 0 (Histogram.count h);
  Histogram.record h 0.;
  Alcotest.(check int) "zero accepted" 1 (Histogram.count h)

let test_histogram_summary_and_reset () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1.; 2.; 3.; 4. ];
  let s = Histogram.summary h in
  Alcotest.(check int) "count" 4 s.Histogram.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Histogram.mean;
  Alcotest.(check (float 1e-9)) "max" 4. s.Histogram.max;
  let empty = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count empty);
  Alcotest.(check (float 0.)) "empty quantile" 0. (Histogram.quantile empty 0.9)

(* ------------------------------------------------------------------ *)
(* Events *)

let sample_events =
  [
    Event.make ~time:1.5 ~peer:3 ~key_index:17 ~hops:4 ~messages:9
      ~outcome:Event.Found ~detail:"chord" Event.Dht_lookup;
    Event.make ~time:0. Event.Engine;
    Event.make ~time:2.25 ~peer:8 ~outcome:Event.Miss Event.Query;
    Event.make ~time:3. ~detail:"with \"quotes\" and\nnewline" Event.Gossip;
    Event.make ~time:4. ~peer:1 ~key_index:5 ~messages:7 ~outcome:Event.Found
      ~span:12 Event.Query;
    Event.make ~time:4.5 ~peer:1 ~key_index:5 ~hops:3 ~messages:2 ~span:13
      ~parent:12 Event.Dht_lookup;
    Event.make ~time:4.6 ~peer:2 ~key_index:5 ~messages:19 ~span:14 ~parent:12
      Event.Replica_flood;
  ]

let test_event_json_roundtrip () =
  List.iter
    (fun ev ->
      let line = Json.to_string (Event.to_json ev) in
      match Json.of_string line with
      | Error msg -> Alcotest.failf "parse %S: %s" line msg
      | Ok json -> (
          match Event.of_json json with
          | Error msg -> Alcotest.failf "of_json %S: %s" line msg
          | Ok ev' ->
              Alcotest.(check string) "round-trip" line
                (Json.to_string (Event.to_json ev'));
              Alcotest.(check bool) "equal" true (ev = ev')))
    sample_events

let test_event_labels_bijective () =
  List.iter
    (fun cat ->
      match Event.category_of_label (Event.category_label cat) with
      | Some cat' -> Alcotest.(check bool) "category" true (cat = cat')
      | None -> Alcotest.fail "category label not parseable")
    Event.all_categories

(* ------------------------------------------------------------------ *)
(* Tracer + sinks *)

(* A tracer whose sink collects every event in a list; the second
   component reads them back, oldest first. *)
let list_trace ?enabled () =
  let tracer = Tracer.create ?enabled () in
  let log = ref [] in
  Tracer.add_sink tracer (Sink.callback (fun e -> log := e :: !log));
  (tracer, fun () -> List.rev !log)

let test_tracer_filter_and_sink () =
  let tracer, events = list_trace ~enabled:true () in
  Tracer.set_filter tracer (Some [ Event.Query ]);
  Alcotest.(check bool) "query active" true (Tracer.active tracer Event.Query);
  Alcotest.(check bool) "gossip filtered" false (Tracer.active tracer Event.Gossip);
  for i = 0 to 4 do
    Tracer.emit tracer (Event.make ~time:(float_of_int i) Event.Query)
  done;
  Alcotest.(check int) "emitted" 5 (Tracer.events_emitted tracer);
  let times = List.map (fun e -> e.Event.time) (events ()) in
  Alcotest.(check (list (float 0.))) "sink sees every event, oldest first"
    [ 0.; 1.; 2.; 3.; 4. ] times;
  let off, _ = list_trace () in
  Alcotest.(check bool) "disabled" false (Tracer.active off Event.Query)

let gossip ~time = Event.make ~time ~detail:(Printf.sprintf "%g" time) Event.Gossip

let test_trace_disabled_by_default () =
  let tracer, events = list_trace () in
  Tracer.emit tracer (gossip ~time:1.);
  Alcotest.(check int) "nothing recorded" 0 (List.length (events ()))

let test_trace_records_when_enabled () =
  let tracer, events = list_trace ~enabled:true () in
  Tracer.emit tracer (gossip ~time:1.);
  Tracer.emit tracer (gossip ~time:2.);
  Alcotest.(check (list (float 0.))) "oldest first" [ 1.; 2. ]
    (List.map (fun e -> e.Event.time) (events ()))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_snapshot_diff_reset () =
  let r = Registry.create () in
  let c = Registry.counter r "queries" in
  let g = Registry.gauge r "depth" in
  let h = Registry.histogram r "cost" in
  Registry.incr c 5;
  Registry.set_gauge g 2.5;
  Histogram.record h 10.;
  Registry.incr c 3;
  Registry.set_gauge g 4.;
  Histogram.record h 20.;
  let snap = Registry.snapshot r in
  Alcotest.(check (list string)) "sorted by name" [ "cost"; "depth"; "queries" ]
    (List.map fst snap);
  (match List.assoc "queries" snap with
  | Registry.Counter_v n -> Alcotest.(check int) "counter sum" 8 n
  | _ -> Alcotest.fail "queries not a counter");
  (match List.assoc "depth" snap with
  | Registry.Gauge_v v -> Alcotest.(check (float 0.)) "gauge takes last" 4. v
  | _ -> Alcotest.fail "depth not a gauge");
  Alcotest.(check bool) "find-or-create returns same instrument" true
    (Registry.counter r "queries" == c);
  (match Registry.counter r "depth" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch not rejected")

(* ------------------------------------------------------------------ *)
(* Merging (the parallel runner folds per-task registries together) *)

let record_all h vs = List.iter (Histogram.record h) vs

let test_histogram_merge_equals_concat () =
  let a = [ 0.2; 3.; 17.; 17.5; 400.; 0.9 ] in
  let b = [ 1.; 2.; 1_000_000.; 0.; 17. ] in
  let ha = Histogram.create () and hb = Histogram.create () in
  let hc = Histogram.create () in
  record_all ha a;
  record_all hb b;
  record_all hc (a @ b);
  Histogram.merge ~into:ha hb;
  Alcotest.(check int) "count" (Histogram.count hc) (Histogram.count ha);
  Alcotest.(check (float 1e-9)) "min" (Histogram.min_value hc) (Histogram.min_value ha);
  Alcotest.(check (float 1e-9)) "max" (Histogram.max_value hc) (Histogram.max_value ha);
  Alcotest.(check (float 1e-6)) "sum" (Histogram.sum hc) (Histogram.sum ha);
  let buckets h =
    List.map (fun (lo, _, n) -> (lo, n)) (Histogram.nonzero_buckets h)
  in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "bucket-for-bucket" (buckets hc) (buckets ha);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "quantile %g" p)
        (Histogram.quantile hc p) (Histogram.quantile ha p))
    [ 0.5; 0.9; 0.99 ];
  (* hb untouched *)
  Alcotest.(check int) "src untouched" (List.length b) (Histogram.count hb)

let test_histogram_merge_empty_cases () =
  let full = Histogram.create () in
  record_all full [ 1.; 2.; 3. ];
  let empty = Histogram.create () in
  Histogram.merge ~into:full empty;
  Alcotest.(check int) "merging empty is a no-op" 3 (Histogram.count full);
  let target = Histogram.create () in
  Histogram.merge ~into:target full;
  Alcotest.(check int) "merge into empty copies counts" 3 (Histogram.count target);
  Alcotest.(check (float 1e-9)) "mean" (Histogram.mean full) (Histogram.mean target)

let test_histogram_merge_rejects_mismatch () =
  let a = Histogram.create ~gamma:1.1 () in
  let b = Histogram.create ~gamma:1.2 () in
  (match Histogram.merge ~into:a b with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "gamma mismatch not rejected");
  match Histogram.merge ~into:a a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self-merge not rejected"

let test_registry_merge_into () =
  let src = Registry.create () and dst = Registry.create () in
  Registry.incr (Registry.counter dst "messages") 10;
  Registry.incr (Registry.counter src "messages") 5;
  Registry.incr (Registry.counter src "only_in_src") 2;
  Registry.set_gauge (Registry.gauge dst "depth") 1.;
  Registry.set_gauge (Registry.gauge src "depth") 9.;
  Histogram.record (Registry.histogram dst "cost") 4.;
  Histogram.record (Registry.histogram src "cost") 8.;
  Registry.merge_into src ~into:dst;
  Alcotest.(check (option int)) "counters add" (Some 15)
    (Registry.counter_value_by_name dst "messages");
  Alcotest.(check (option int)) "missing counters created" (Some 2)
    (Registry.counter_value_by_name dst "only_in_src");
  Alcotest.(check bool) "gauge last-wins" true
    (List.assoc "depth" (Registry.snapshot dst) = Registry.Gauge_v 9.);
  (match Registry.find_histogram dst "cost" with
  | Some h -> Alcotest.(check int) "histograms merge" 2 (Histogram.count h)
  | None -> Alcotest.fail "cost histogram lost");
  (* src untouched by the merge *)
  Alcotest.(check (option int)) "src counter untouched" (Some 5)
    (Registry.counter_value_by_name src "messages")

let test_registry_merge_kind_mismatch () =
  let src = Registry.create () and dst = Registry.create () in
  Registry.incr (Registry.counter src "x") 1;
  Registry.set_gauge (Registry.gauge dst "x") 2.;
  (match Registry.merge_into src ~into:dst with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "counter-into-gauge not rejected");
  let src2 = Registry.create () and dst2 = Registry.create () in
  Histogram.record (Registry.histogram src2 "y") 1.;
  Registry.incr (Registry.counter dst2 "y") 1;
  (match Registry.merge_into src2 ~into:dst2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "histogram-into-counter not rejected");
  match Registry.merge_into src ~into:src with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self-merge not rejected"

(* ------------------------------------------------------------------ *)
(* Export *)

let test_export_jsonl_and_csv () =
  let r = Registry.create () in
  Registry.incr (Registry.counter r "messages.total") 12;
  Registry.set_gauge (Registry.gauge r "engine.queue_depth") 3.;
  Histogram.record (Registry.histogram r "query.cost") 42.;
  let snap = Registry.snapshot r in
  let written ext =
    let path = Filename.temp_file "pdht_obs" ext in
    Export.to_file ~run:"r1" ~path snap;
    let lines = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    String.split_on_char '\n' (String.trim lines)
  in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error msg -> Alcotest.failf "bad JSONL %S: %s" line msg
      | Ok json ->
          Alcotest.(check bool) "has name" true (Json.member "name" json <> None);
          Alcotest.(check (option string)) "run label" (Some "r1")
            (Option.bind (Json.member "run" json) Json.to_string_opt))
    (written ".jsonl");
  Alcotest.(check int) "header + one row per instrument" 4
    (List.length (written ".csv"))

let test_export_validate_file () =
  let path = Filename.temp_file "pdht_obs" ".jsonl" in
  let r = Registry.create () in
  Registry.incr (Registry.counter r "a") 1;
  Histogram.record (Registry.histogram r "b") 2.;
  Export.to_file ~run:"t" ~time:9. ~path (Registry.snapshot r);
  (match Export.validate_jsonl_file ~path with
  | Ok n -> Alcotest.(check int) "lines" 2 n
  | Error msg -> Alcotest.failf "validate: %s" msg);
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{broken\n";
  close_out oc;
  (match Export.validate_jsonl_file ~path with
  | Ok _ -> Alcotest.fail "accepted broken line"
  | Error _ -> ());
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* One ledger: the registry's messages.* counters are the message
   account, so runs sharing a context must neither see each other's
   messages nor lose any from the registry. *)

let test_ledger_sequential_runs () =
  let module System = Pdht_core.System in
  let module Metrics = Pdht_sim.Metrics in
  let scenario seed =
    {
      Pdht_work.Scenario.news_default with
      Pdht_work.Scenario.num_peers = 150;
      keys = 200;
      duration = 120.;
      seed;
    }
  in
  let options = System.Options.make ~repl:10 ~stor:50 () in
  let run ?obs seed =
    let scenario = scenario seed in
    System.run ?obs scenario
      (Pdht_core.Strategy.Partial_index
         { key_ttl = System.derive_key_ttl scenario options })
      options
  in
  let shared = Context.create () in
  let reports = List.map (fun seed -> (seed, run ~obs:shared seed)) [ 1; 2 ] in
  List.iter
    (fun (seed, (r : System.report)) ->
      let fresh = run seed in
      let label = Printf.sprintf "seed %d " seed in
      Alcotest.(check bool) (label ^ "sent messages") true (r.System.total_messages > 0);
      Alcotest.(check int) (label ^ "total_messages") fresh.System.total_messages
        r.System.total_messages;
      Alcotest.(check bool) (label ^ "messages_by_category") true
        (fresh.System.messages_by_category = r.System.messages_by_category))
    reports;
  List.iter
    (fun cat ->
      let sum =
        List.fold_left
          (fun acc (_, r) -> acc + List.assoc cat r.System.messages_by_category)
          0 reports
      in
      Alcotest.(check (option int))
        ("registry sums " ^ Metrics.category_label cat)
        (Some sum)
        (Registry.counter_value_by_name (Context.registry shared)
           (Metrics.counter_name cat)))
    Metrics.all_categories

(* ------------------------------------------------------------------ *)
(* Integration: a short partial-index run fills the hop histograms *)

let test_system_run_populates_histograms () =
  let scenario =
    {
      Pdht_work.Scenario.news_default with
      Pdht_work.Scenario.num_peers = 200;
      keys = 300;
      duration = 200.;
      seed = 99;
    }
  in
  let options =
    { Pdht_core.System.default_options with Pdht_core.System.repl = 10; stor = 50 }
  in
  let key_ttl = Pdht_core.System.derive_key_ttl scenario options in
  let obs = Context.create () in
  let report =
    Pdht_core.System.run ~obs scenario
      (Pdht_core.Strategy.Partial_index { key_ttl })
      options
  in
  let backend = Pdht_dht.Dht.backend_label options.Pdht_core.System.backend in
  let hops_name = "dht.hops." ^ backend in
  (match Registry.find_histogram (Context.registry obs) hops_name with
  | None -> Alcotest.failf "%s not registered" hops_name
  | Some h ->
      Alcotest.(check bool) "hop histogram nonzero" true (Histogram.count h > 0));
  Alcotest.(check bool) "report carries histograms" true
    (List.mem_assoc hops_name report.Pdht_core.System.histograms);
  Alcotest.(check bool) "query.cost in report" true
    (List.mem_assoc "query.cost" report.Pdht_core.System.histograms);
  (* The ledger's per-category counters must sum to the run's total. *)
  let total_counted =
    Registry.fold (Context.registry obs) ~init:0 ~f:(fun acc name v ->
        match v with
        | Registry.Counter_v n
          when String.length name > 9 && String.sub name 0 9 = "messages." ->
            acc + n
        | _ -> acc)
  in
  Alcotest.(check int) "messages.* counters sum to total_messages"
    report.Pdht_core.System.total_messages total_counted

(* ------------------------------------------------------------------ *)
(* Spans + sampling *)

let test_span_allocator () =
  let a = Span.allocator () in
  let r = Span.root a in
  Alcotest.(check int) "first root id" 0 (Span.id r);
  Alcotest.(check int) "root parent" (-1) r.Span.parent;
  let c = Span.issue a ~parent:(Span.id r) in
  Alcotest.(check int) "sequential ids" 1 (Span.id c);
  Alcotest.(check int) "child parent" 0 c.Span.parent;
  Alcotest.(check int) "next root continues the sequence" 2 (Span.id (Span.root a))

let test_tracer_sampling () =
  let tracer = Tracer.create ~enabled:true () in
  (* Sink-less tracer: tracing is off, so no root and no counter tick. *)
  Alcotest.(check bool) "sink-less -> None" true (Tracer.sample_root tracer = None);
  Tracer.add_sink tracer (Sink.callback ignore);
  Tracer.set_sampling tracer 3;
  let picks = List.init 7 (fun _ -> Tracer.sample_root tracer <> None) in
  Alcotest.(check (list bool)) "1-in-3 pattern, first op sampled"
    [ true; false; false; true; false; false; true ]
    picks;
  (* Unsampled roots (maintenance/fault) ignore the sampling counter. *)
  Alcotest.(check bool) "root_span always traced" true
    (Tracer.root_span tracer <> None);
  let off = Tracer.create () in
  Tracer.add_sink off (Sink.callback ignore);
  Alcotest.(check bool) "disabled -> None" true (Tracer.sample_root off = None);
  Alcotest.(check bool) "disabled root_span -> None" true
    (Tracer.root_span off = None);
  Alcotest.check_raises "every < 1 rejected"
    (Invalid_argument "Tracer.set_sampling: every must be >= 1") (fun () ->
      Tracer.set_sampling tracer 0)

let test_tracer_flushers () =
  let tracer = Tracer.create () in
  Alcotest.(check bool) "no flushers initially" false (Tracer.has_flushers tracer);
  let log = ref [] in
  Tracer.add_flusher tracer (fun () -> log := "a" :: !log);
  Tracer.add_flusher tracer (fun () -> log := "b" :: !log);
  Alcotest.(check bool) "has flushers" true (Tracer.has_flushers tracer);
  Tracer.flush tracer;
  Alcotest.(check (list string)) "registration order" [ "b"; "a" ] !log

(* ------------------------------------------------------------------ *)
(* Timeline *)

let test_timeline_basic () =
  let tl = Timeline.create ~width:10. ~series:[ "queries"; "messages" ] in
  let s_q = Timeline.series_id tl "queries" in
  let s_m = Timeline.series_id tl "messages" in
  Timeline.add tl ~now:1. s_q 1.;
  Timeline.add tl ~now:9.9 s_q 1.;
  Timeline.add tl ~now:25. s_m 40.;
  Timeline.set tl ~now:25. s_q 7.;
  Timeline.set tl ~now:26. s_q 8.;
  (* gauge: last write wins *)
  let s = Timeline.summary tl in
  Alcotest.(check (float 0.)) "width" 10. s.Timeline.width;
  Alcotest.(check (list string)) "series" [ "queries"; "messages" ] s.Timeline.series;
  (* Window 1 was never touched: only materialized windows appear. *)
  Alcotest.(check (list int)) "touched windows only" [ 0; 2 ]
    (List.map (fun w -> w.Timeline.index) s.Timeline.windows);
  (match s.Timeline.windows with
  | [ w0; w2 ] ->
      Alcotest.(check (float 0.)) "w0 t0" 0. w0.Timeline.t0;
      Alcotest.(check (float 0.)) "w0 t1" 10. w0.Timeline.t1;
      Alcotest.(check (float 0.)) "w0 queries" 2. w0.Timeline.values.(s_q);
      Alcotest.(check (float 0.)) "w2 queries gauge" 8. w2.Timeline.values.(s_q);
      Alcotest.(check (float 0.)) "w2 messages" 40. w2.Timeline.values.(s_m)
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
  (* JSONL lines parse back, carry the series as members and pass the
     validator. *)
  let path = Filename.temp_file "pdht_obs" ".jsonl" in
  Out_channel.with_open_text path (fun oc -> Timeline.write_jsonl oc s);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error msg -> Alcotest.failf "timeline line %S: %s" line msg
      | Ok json -> Alcotest.(check bool) "has tl" true (Json.member "tl" json <> None))
    (In_channel.with_open_text path In_channel.input_lines);
  Alcotest.(check bool) "validates" true (Export.validate_jsonl_file ~path = Ok 2);
  Sys.remove path

let test_timeline_rejects_bad_input () =
  let bad name f = Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true) in
  bad "non-positive width" (fun () -> Timeline.create ~width:0. ~series:[ "a" ]);
  bad "empty series" (fun () -> Timeline.create ~width:1. ~series:[]);
  bad "duplicate series" (fun () -> Timeline.create ~width:1. ~series:[ "a"; "a" ]);
  let tl = Timeline.create ~width:1. ~series:[ "a" ] in
  bad "unknown series" (fun () -> Timeline.series_id tl "b")

(* ------------------------------------------------------------------ *)
(* validate_line: span/parent sanity and timeline schema *)

let test_validate_rejects_bad_lines () =
  let reject name line =
    let path = Filename.temp_file "pdht_obs" ".jsonl" in
    let oc = open_out path in
    output_string oc (line ^ "\n");
    close_out oc;
    (match Export.validate_jsonl_file ~path with
    | Ok _ -> Alcotest.failf "%s: accepted %S" name line
    | Error _ -> ());
    Sys.remove path
  in
  reject "span < -1" {|{"t":1.0,"cat":"query","span":-2}|};
  reject "parent < -1" {|{"t":1.0,"cat":"query","span":0,"parent":-7}|};
  reject "parent without span" {|{"t":1.0,"cat":"query","parent":3}|};
  reject "negative window index" {|{"tl":-1,"t0":0,"t1":10}|};
  reject "t1 <= t0" {|{"tl":0,"t0":10,"t1":10}|};
  reject "missing t1" {|{"tl":0,"t0":0}|};
  reject "non-numeric series" {|{"tl":0,"t0":0,"t1":10,"queries":"many"}|};
  (* And the happy path still passes through the same entry point. *)
  let path = Filename.temp_file "pdht_obs" ".jsonl" in
  let oc = open_out path in
  output_string oc
    ({|{"t":1.0,"cat":"query","span":0,"msgs":3}|} ^ "\n"
   ^ {|{"t":1.2,"cat":"dht-lookup","span":1,"parent":0,"msgs":3}|} ^ "\n"
   ^ {|{"tl":0,"t0":0,"t1":10,"queries":4}|} ^ "\n");
  close_out oc;
  (match Export.validate_jsonl_file ~path with
  | Ok n -> Alcotest.(check int) "valid lines" 3 n
  | Error msg -> Alcotest.failf "rejected good lines: %s" msg);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Traced system run: causal completeness + leaf-sum identity *)

(* Mirrors tools/trace_stats --check: every span-carrying event must
   reach a root, and an operation root's message total must equal the
   sum of its message-bearing leaves. *)
let check_causal_completeness events =
  let spanned = List.filter (fun (e : Event.t) -> e.Event.span >= 0) events in
  let by_span = Hashtbl.create 256 in
  List.iter (fun (e : Event.t) -> Hashtbl.replace by_span e.Event.span e) spanned;
  let rec root_of (e : Event.t) =
    if e.Event.parent < 0 then Some e
    else
      match Hashtbl.find_opt by_span e.Event.parent with
      | Some p -> root_of p
      | None -> None
  in
  let orphans = ref 0 in
  let trees = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      match root_of e with
      | None -> incr orphans
      | Some r ->
          let members =
            Option.value ~default:[] (Hashtbl.find_opt trees r.Event.span)
          in
          Hashtbl.replace trees r.Event.span (e :: members))
    spanned;
  let is_leaf (e : Event.t) =
    e.Event.parent >= 0
    &&
    match e.Event.category with
    | Event.Dht_lookup | Event.Replica_flood | Event.Broadcast | Event.Gossip ->
        true
    | _ -> false
  in
  let mismatches = ref 0 in
  let roots = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      if e.Event.parent < 0 then Hashtbl.replace roots e.Event.span e)
    spanned;
  let query_roots = ref 0 and gossip_roots = ref 0 in
  Hashtbl.iter
    (fun span (root : Event.t) ->
      match root.Event.category with
      | Event.Query | Event.Gossip ->
          (match root.Event.category with
          | Event.Query -> incr query_roots
          | _ -> incr gossip_roots);
          let members = Option.value ~default:[] (Hashtbl.find_opt trees span) in
          let leaf_sum =
            List.fold_left
              (fun acc e -> if is_leaf e then acc + e.Event.messages else acc)
              0 members
          in
          if leaf_sum <> root.Event.messages then incr mismatches
      | _ -> ())
    roots;
  (!orphans, !mismatches, !query_roots, !gossip_roots)

let traced_scenario seed =
  {
    Pdht_work.Scenario.news_default with
    Pdht_work.Scenario.num_peers = 150;
    keys = 200;
    duration = 150.;
    seed;
    (* short article lifetime so the run exercises Gossip update trees *)
    update_mean_lifetime = Some 400.;
  }

let traced_options () =
  Pdht_core.System.Options.make ~repl:10 ~stor:50
    ~net:
      {
        Pdht_net.Config.default with
        Pdht_net.Config.latency = Pdht_net.Config.Constant 0.02;
        loss = 0.05;
        rpc_timeout = 0.5;
        rpc_retries = 2;
      }
    ()

let traced_run scenario strategy =
  let options = traced_options () in
  let events = ref [] in
  let tracer = Tracer.create ~enabled:true () in
  Tracer.add_sink tracer (Sink.callback (fun e -> events := e :: !events));
  let obs = Context.create ~tracer () in
  let _report = Pdht_core.System.run ~obs scenario strategy options in
  check_causal_completeness (List.rev !events)

let test_traced_run_causal_completeness () =
  let scenario = traced_scenario 21 in
  let key_ttl = Pdht_core.System.derive_key_ttl scenario (traced_options ()) in
  let orphans, mismatches, query_roots, _ =
    traced_run scenario (Pdht_core.Strategy.Partial_index { key_ttl })
  in
  Alcotest.(check int) "partial: no orphan spans" 0 orphans;
  Alcotest.(check int) "partial: leaf sums match roots" 0 mismatches;
  Alcotest.(check bool) "partial: query trees present" true (query_roots > 0);
  (* Updates only cost (and trace) under Index_all: replica groups must
     be kept consistent, so each update gossips through its subnetwork. *)
  let orphans, mismatches, query_roots, gossip_roots =
    traced_run scenario Pdht_core.Strategy.Index_all
  in
  Alcotest.(check int) "index-all: no orphan spans" 0 orphans;
  Alcotest.(check int) "index-all: leaf sums match roots" 0 mismatches;
  Alcotest.(check bool) "index-all: query trees present" true (query_roots > 0);
  Alcotest.(check bool) "index-all: gossip trees present" true (gossip_roots > 0)

(* On an index miss at the responsible member, [Pdht.index_search]
   floods the replica group and probes the other members' stores.  Its
   [Replica_flood] event is emitted after those probes, and a probe
   hit's [Ttl_reset] after the flood event, so a gap-attributing reader
   books the probes to the flood; the span ids, and the order of the
   two siblings, are the ones they had when the flood event came before
   the probes.  The stores log their reads into the trace's own log,
   so the test sees where each probe fell between the events. *)
type flood_log = Read of int (* store read at this peer *) | Ev of Event.t

let test_replica_flood_after_store_probes () =
  let peers = 120 and members = 40 and keys = 120 in
  (* Stores keyed by key index, like the in-process ones. *)
  let stores = Array.init members (fun _ -> Pdht_dht.Storage.create ~capacity:20 ()) in
  let log = ref [] in
  let local = Pdht_core.Pdht.local_store_ops ~stores ~keys in
  let store =
    {
      local with
      Pdht_core.Pdht.get_and_refresh =
        (fun ~peer ~key_index ~now ~ttl ->
          log := Read peer :: !log;
          local.get_and_refresh ~peer ~key_index ~now ~ttl);
      first_holder =
        (* The members a member-by-member probe reads: up to the
           holder, or all of them. *)
        (fun ~peers ~count ~key_index ~now ~ttl ->
          let found = local.first_holder ~peers ~count ~key_index ~now ~ttl in
          let last = match found with Some (pos, _) -> pos | None -> count - 1 in
          for i = 0 to last do
            log := Read peers.(i) :: !log
          done;
          found);
    }
  in
  let transport =
    {
      Pdht_core.Pdht.store;
      rpc = (fun ~span:_ ~src:_ ~dst:_ -> true);
      cast = (fun ~span:_ ~src:_ ~dst:_ -> true);
    }
  in
  let tracer = Tracer.create ~enabled:true () in
  Tracer.add_sink tracer (Sink.callback (fun e -> log := Ev e :: !log));
  let obs = Context.create ~tracer () in
  let rng = Pdht_util.Rng.create ~seed:23 in
  let config =
    Pdht_core.Config.make ~num_peers:peers ~active_members:members ~keys ~repl:5 ~stor:20
      ~strategy:(Pdht_core.Strategy.Partial_index { key_ttl = 200. })
      ()
  in
  let p = Pdht_core.Pdht.create ~obs ~transport rng config in
  (* Churn moves keys' responsible members, so responsible members miss
     keys other replicas hold. *)
  let online = Array.make peers true in
  Pdht_core.Pdht.set_online p (fun peer -> online.(peer));
  for step = 1 to 600 do
    let now = float_of_int step in
    let key_index = Pdht_util.Rng.int rng 30 in
    ignore (Pdht_core.Pdht.query p ~now ~peer:(Pdht_util.Rng.int rng peers) ~key_index);
    if step mod 2 = 0 then begin
      let m = Pdht_util.Rng.int rng members in
      online.(m) <- not online.(m)
    end
  done;
  (* Walk the log in order: after a flood event and until the next
     query starts, no store is read; a probe hit's reset follows its
     flood, with the next span id. *)
  let floods = ref 0 and probed = ref 0 and hits = ref 0 in
  let reads_since_lookup = ref 0 and after_flood = ref None in
  List.iter
    (function
      | Read peer -> (
          incr reads_since_lookup;
          match !after_flood with
          | Some (f : Event.t) ->
              Alcotest.failf "store read at peer %d after the flood event (span %d)" peer
                f.Event.span
          | None -> ())
      | Ev e -> (
          match e.Event.category with
          | Event.Dht_lookup -> reads_since_lookup := 0
          | Event.Replica_flood ->
              incr floods;
              if !reads_since_lookup >= 2 then incr probed;
              after_flood := Some e
          | Event.Ttl_reset -> (
              match !after_flood with
              | Some f when e.Event.parent = f.Event.parent ->
                  incr hits;
                  Alcotest.(check int) "a probe hit's reset takes the id after the flood's"
                    (f.Event.span + 1) e.Event.span
              | _ -> ())
          | Event.Query -> after_flood := None
          | _ -> ()))
    (List.rev !log);
  Alcotest.(check bool) "floods traced" true (!floods > 0);
  Alcotest.(check bool) "some flood probed other stores" true (!probed > 0);
  Alcotest.(check bool) "some probe hit" true (!hits > 0)

let test_system_timeline_report () =
  let scenario = traced_scenario 22 in
  let base = Pdht_core.System.Options.make ~repl:10 ~stor:50 () in
  let key_ttl = Pdht_core.System.derive_key_ttl scenario base in
  let strategy = Pdht_core.Strategy.Partial_index { key_ttl } in
  let plain = Pdht_core.System.run scenario strategy base in
  Alcotest.(check bool) "no timeline by default" true
    (plain.Pdht_core.System.timeline = None);
  let with_tl =
    Pdht_core.System.run scenario strategy
      { base with Pdht_core.System.timeline_window = Some 30. }
  in
  match with_tl.Pdht_core.System.timeline with
  | None -> Alcotest.fail "timeline missing from report"
  | Some s ->
      Alcotest.(check (float 0.)) "window width" 30. s.Timeline.width;
      Alcotest.(check (list string)) "series"
        [ "queries"; "hits"; "answered"; "messages"; "latency_ms"; "indexed_keys" ]
        s.Timeline.series;
      Alcotest.(check bool) "windows populated" true (s.Timeline.windows <> []);
      let total_queries =
        List.fold_left
          (fun acc w -> acc +. w.Timeline.values.(0))
          0. s.Timeline.windows
      in
      Alcotest.(check (float 0.)) "windowed queries sum to report total"
        (float_of_int with_tl.Pdht_core.System.queries)
        total_queries;
      (* Enabling the timeline must not perturb the simulation. *)
      Alcotest.(check int) "same total messages"
        plain.Pdht_core.System.total_messages
        with_tl.Pdht_core.System.total_messages

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_tests =
  let open QCheck in
  let sample = float_range 0. 1e6 in
  [
    Test.make ~name:"histogram merge = observing the concatenated stream" ~count:200
      (pair (list_of_size Gen.(int_range 0 60) sample)
         (list_of_size Gen.(int_range 0 60) sample))
      (fun (a, b) ->
        let ha = Histogram.create () and hb = Histogram.create () in
        let hc = Histogram.create () in
        record_all ha a;
        record_all hb b;
        record_all hc (a @ b);
        Histogram.merge ~into:ha hb;
        Histogram.count ha = Histogram.count hc
        && Histogram.nonzero_buckets ha = Histogram.nonzero_buckets hc
        && Histogram.min_value ha = Histogram.min_value hc
        && Histogram.max_value ha = Histogram.max_value hc
        && Float.abs (Histogram.sum ha -. Histogram.sum hc)
           <= 1e-9 *. Float.max 1. (Histogram.sum hc));
    Test.make ~name:"registry merge adds counters" ~count:100
      (pair (int_range 0 1000) (int_range 0 1000))
      (fun (x, y) ->
        let src = Registry.create () and dst = Registry.create () in
        Registry.incr (Registry.counter src "c") x;
        Registry.incr (Registry.counter dst "c") y;
        Registry.merge_into src ~into:dst;
        Registry.counter_value_by_name dst "c" = Some (x + y));
    (* Every category x outcome, all fields including span/parent, must
       survive the JSONL codec byte-for-byte. *)
    Test.make ~name:"event codec round-trips every category and outcome" ~count:400
      (let gen =
         let base =
           Gen.pair
             (Gen.pair (Gen.oneofl Event.all_categories)
                (Gen.oneofl
                   [
                     Event.Hit;
                     Event.Miss;
                     Event.Found;
                     Event.Not_found;
                     Event.Completed;
                     Event.Dropped;
                   ]))
             (Gen.pair (Gen.int_range (-1) 500) (Gen.int_range (-1) 500))
         in
         let rest =
           Gen.pair
             (Gen.pair (Gen.int_range 0 64) (Gen.int_range 0 100_000))
             (Gen.pair (Gen.int_range (-1) 10_000) (Gen.int_range (-1) 10_000))
         in
         Gen.map
           (fun (((cat, out), (peer, key_index)), ((hops, messages), (span, parent))) ->
             let parent = if span < 0 then -1 else parent in
             Event.make
               ~time:(float_of_int (37 * (hops + messages)) /. 16.)
               ~peer ~key_index ~hops ~messages ~outcome:out
               ~detail:(if messages mod 3 = 0 then "x\"y\nz" else "")
               ~span ~parent cat)
           (Gen.pair base rest)
       in
       make ~print:(fun e -> Json.to_string (Event.to_json e)) gen)
      (fun ev ->
        match Json.of_string (Json.to_string (Event.to_json ev)) with
        | Error _ -> false
        | Ok json -> (
            match Event.of_json json with
            | Error _ -> false
            | Ok ev' -> ev = ev'));
    (* Sampled traces are part of the determinism contract: the same
       single-spec batch must produce byte-identical trace files no
       matter how many worker domains the runner was given. *)
    Test.make ~name:"sampled traces byte-identical at -j1 vs -j4" ~count:2
      (int_range 0 10_000)
      (fun seed ->
        let scenario =
          {
            (traced_scenario seed) with
            Pdht_work.Scenario.num_peers = 100;
            keys = 150;
            duration = 100.;
          }
        in
        let spec =
          Pdht_core.Run_spec.make ~options:(traced_options ()) scenario
        in
        let trace jobs =
          let buf = Buffer.create 8192 in
          let tracer = Tracer.create ~enabled:true () in
          Tracer.set_sampling tracer 4;
          Tracer.add_sink tracer
            (Sink.callback (fun e ->
                 Buffer.add_string buf (Json.to_string (Event.to_json e));
                 Buffer.add_char buf '\n'));
          let obs = Context.create ~tracer () in
          let results = Pdht_core.Runner.run_all ~jobs ~obs [ spec ] in
          ignore (Pdht_core.Run_result.reports_exn results);
          Buffer.contents buf
        in
        let t1 = trace 1 in
        String.length t1 > 0 && t1 = trace 4);
  ]

let () =
  Alcotest.run "pdht_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantiles uniform" `Quick test_histogram_quantiles_uniform;
          Alcotest.test_case "quantiles heavy tail" `Quick
            test_histogram_quantiles_heavy_tail;
          Alcotest.test_case "small counts" `Quick test_histogram_small_counts;
          Alcotest.test_case "rejects bad input" `Quick test_histogram_rejects_bad_input;
          Alcotest.test_case "summary and reset" `Quick test_histogram_summary_and_reset;
          Alcotest.test_case "merge equals concat" `Quick test_histogram_merge_equals_concat;
          Alcotest.test_case "merge empty cases" `Quick test_histogram_merge_empty_cases;
          Alcotest.test_case "merge rejects mismatch" `Quick
            test_histogram_merge_rejects_mismatch;
        ] );
      ( "event",
        [
          Alcotest.test_case "json roundtrip" `Quick test_event_json_roundtrip;
          Alcotest.test_case "labels bijective" `Quick test_event_labels_bijective;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "filter and ring" `Quick test_tracer_filter_and_sink;
          Alcotest.test_case "sampling" `Quick test_tracer_sampling;
          Alcotest.test_case "flushers" `Quick test_tracer_flushers;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
          Alcotest.test_case "records when enabled" `Quick test_trace_records_when_enabled;
        ] );
      ( "span",
        [ Alcotest.test_case "allocator" `Quick test_span_allocator ] );
      ( "timeline",
        [
          Alcotest.test_case "windows, counters, gauges" `Quick test_timeline_basic;
          Alcotest.test_case "rejects bad input" `Quick
            test_timeline_rejects_bad_input;
        ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot diff reset" `Quick
            test_registry_snapshot_diff_reset;
          Alcotest.test_case "merge_into" `Quick test_registry_merge_into;
          Alcotest.test_case "merge kind mismatch" `Quick test_registry_merge_kind_mismatch;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl and csv" `Quick test_export_jsonl_and_csv;
          Alcotest.test_case "validate file" `Quick test_export_validate_file;
          Alcotest.test_case "validate rejects bad span/timeline lines" `Quick
            test_validate_rejects_bad_lines;
        ] );
      ( "ledger-runs",
        [ Alcotest.test_case "sequential runs on one context" `Quick
            test_ledger_sequential_runs ] );
      ( "system",
        [
          Alcotest.test_case "run populates histograms" `Quick
            test_system_run_populates_histograms;
          Alcotest.test_case "traced run is causally complete" `Quick
            test_traced_run_causal_completeness;
          Alcotest.test_case "replica flood follows its store probes" `Quick
            test_replica_flood_after_store_probes;
          Alcotest.test_case "timeline lands in the report" `Quick
            test_system_timeline_report;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
