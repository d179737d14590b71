(* The pdht benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out-dir D]
     One workload in this process, measured for S seconds after a
     discarded warm-up run.  --trace 0 gives the end-to-end metrics,
     with tracing off.  --trace 1 alternates untraced and traced runs,
     gives the per-layer metrics of the median traced run, and measures
     the layer costs.  The last line of standard output is the result
     object; the line before it, "DETAIL {...}", adds quartiles, sample
     counts and the report digest.  Exit status 1 when a check failed.

   main.exe [--seed N] [--seconds S] [--smoke] [--out FILE] [--out-dir D]
     Every workload, each in two child processes (trace 0, then trace
     1); prints every metric and writes the combined result JSON (by
     default D/result-seedN.json; D defaults to .bench_out).  --smoke
     runs each workload at 1/50 of its simulated duration, once.

   main.exe node --connect PORT --node-id K [--obs-out FILE]
     A cluster worker: the cluster-loopback workload spawns this same
     executable as its worker processes. *)

module System = Pdht_core.System
module Cluster = Pdht_proc.Cluster
module Json = Pdht_obs.Json
module Registry = Pdht_obs.Registry
module Histogram = Pdht_obs.Histogram

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("benchmark: " ^ msg); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Running a workload *)

let run ?obs ?obs_dir (w : Workload.t) =
  match w.Workload.mode with
  | Workload.Sim -> System.run ?obs w.Workload.scenario (Workload.strategy w) w.Workload.options
  | Workload.Cluster nodes ->
      let config =
        { (Cluster.default_config ~nodes ~exe:Sys.executable_name) with Cluster.obs_dir }
      in
      Cluster.run ?obs config w.Workload.scenario (Workload.strategy w) w.Workload.options

(* Same-seed runs must agree in every report field; the digest covers
   all of them, including the time series the printed report omits. *)
let digest (r : System.report) =
  Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))

(* Repeat [f] until [seconds] have passed and at least [min] results
   exist. *)
let repeat ~min ~seconds f =
  let t0 = Timing.now_ns () in
  let rec go acc n =
    if n >= min && Timing.seconds_since t0 >= seconds then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

(* A measured run starts from a collected heap, so one run's garbage is
   not the next run's cost. *)
let timed_run w =
  Gc.full_major ();
  Timing.timed (fun () -> run w)

type checks = { mutable failed : string list }

let check checks name ok =
  if not ok then begin
    checks.failed <- name :: checks.failed;
    Printf.printf "  CHECK FAILED: %s\n%!" name
  end

let check_report checks (r : System.report) =
  check checks "sum of messages_by_category = total_messages"
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.System.messages_by_category
    = r.System.total_messages);
  check checks "answered + failed = queries" (r.System.answered + r.System.failed = r.System.queries);
  check checks "queries > 0" (r.System.queries > 0)

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; unit : string; s : Stats.summary }

let samples name unit vs = { name; unit; s = Stats.summarize vs }
let single name unit v = samples name unit [ v ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let print_metric m =
  let s = m.s in
  if s.Stats.n > 1 && s.Stats.q3 > s.Stats.q1 then
    Printf.printf "  %-40s %14.6g %-10s IQR %.6g..%.6g  n=%d\n" m.name s.Stats.median m.unit
      s.Stats.q1 s.Stats.q3 s.Stats.n
  else Printf.printf "  %-40s %14.6g %-10s n=%d\n" m.name s.Stats.median m.unit s.Stats.n

let detail_json m =
  let s = m.s in
  Json.Obj
    [
      ("value", Json.Float s.Stats.median);
      ("unit", Json.String m.unit);
      ("q1", Json.Float s.Stats.q1);
      ("q3", Json.Float s.Stats.q3);
      ("n", Json.Int s.Stats.n);
      ("samples", Json.List (List.map (fun v -> Json.Float v) s.Stats.samples));
    ]

(* Print the metrics, then the detail line the combined run reads, then
   the result object as the last line; exit 1 when a check failed. *)
let finish ?(extra = []) ~checks ~attempted ~digest metrics =
  List.iter print_metric metrics;
  let correct = checks.failed = [] in
  let failed = if correct then 0 else attempted in
  let head =
    [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted); ("failed", Json.Int failed) ]
  in
  let detail =
    Json.Obj
      (head
      @ [
          ("digest", Json.String digest);
          ("failed_checks", Json.List (List.rev_map (fun c -> Json.String c) checks.failed));
          ("metrics", Json.Obj (List.map (fun m -> (m.name, detail_json m)) metrics));
        ]
      @ extra)
  in
  print_endline ("DETAIL " ^ Json.to_string detail);
  let result =
    Json.Obj
      (head
      @ [
          ( "metrics",
            Json.Obj
              (List.map
                 (fun m ->
                   ( m.name,
                     Json.Obj [ ("value", Json.Float m.s.Stats.median); ("unit", Json.String m.unit) ]
                   ))
                 metrics) );
        ])
  in
  print_endline (Json.to_string result);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics, tracing off *)

let end_to_end ~smoke ~seconds (w : Workload.t) =
  let checks = { failed = [] } in
  let config = Workload.config w in
  if not smoke then ignore (run w);
  (* A timed set-up follows every measured run, so both medians cover
     the whole measured stretch: the host's speed drifts over seconds. *)
  let measured =
    repeat ~min:(if smoke then 1 else 5) ~seconds (fun () ->
        let run = timed_run w in
        Gc.full_major ();
        let p, setup = Timing.timed (fun () -> Workload.setup w config) in
        ignore (Sys.opaque_identity p);
        (setup, run))
  in
  let setup_s = List.map fst measured and runs = List.map snd measured in
  let report = fst (List.hd runs) in
  let d = digest report in
  check checks "every measured run gives the same report"
    (List.for_all (fun (r, _) -> digest r = d) runs);
  check_report checks report;
  (match w.Workload.mode with
  | Workload.Cluster _ ->
      let sim = System.run w.Workload.scenario (Workload.strategy w) w.Workload.options in
      check checks "the cluster report equals the same-seed System.run report" (digest sim = d)
  | Workload.Sim -> ());
  let queries = report.System.queries in
  let n = List.length runs in
  Printf.printf "== %s (end to end) seed=%d queries/run=%d runs=%d digest=%s\n"
    w.Workload.name w.Workload.scenario.Pdht_work.Scenario.seed queries n d;
  finish ~checks ~attempted:(queries * n) ~digest:d
    [
      samples "queries_per_s" "queries/s"
        (List.map (fun (_, wall) -> float_of_int queries /. wall) runs);
      samples "setup_s" "s" setup_s;
      single "peak_rss_mb" "MB" (Timing.peak_rss_mb ());
      single "msgs_per_query" "msgs/query" report.System.avg_messages_per_query;
      single "answered_frac" "fraction" (ratio report.System.answered queries);
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics from traced runs, and layer costs *)

let counter reg name = Option.value ~default:0 (Registry.counter_value_by_name reg name)

let histogram_with_prefix reg prefix =
  List.find_map
    (fun (name, v) ->
      match v with
      | Registry.Histogram_v s when String.starts_with ~prefix name -> Some s
      | _ -> None)
    (Registry.snapshot reg)

let histogram_mean reg name =
  match Registry.find_histogram reg name with Some h -> Histogram.mean h | None -> 0.

(* Worker counters summed by the conductor into [merged.jsonl]. *)
let merged_counters dir =
  let path = Filename.concat dir "merged.jsonl" in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | line -> (
            match Json.of_string line with
            | Ok j -> (
                match (Json.member "name" j, Option.bind (Json.member "value" j) Json.to_int_opt) with
                | Some (Json.String name), Some v when Json.member "type" j = Some (Json.String "counter") ->
                    read ((name, v) :: acc)
                | _ -> read acc)
            | Error e -> failwith (path ^ ": " ^ e))
        | exception End_of_file -> acc
      in
      read [])

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let per_layer ~smoke ~seconds ~out_dir (w : Workload.t) =
  let checks = { failed = [] } in
  let obs_dir =
    match w.Workload.mode with
    | Workload.Cluster _ ->
        Some (Filename.concat out_dir (Printf.sprintf "%s-%d" w.Workload.name (Unix.getpid ())))
    | Workload.Sim -> None
  in
  let traced_run () =
    Gc.full_major ();
    let report, obs, g = Gap_trace.traced (fun obs -> run ~obs ?obs_dir w) in
    let proc = match obs_dir with Some dir -> merged_counters dir | None -> [] in
    (report, Pdht_obs.Context.registry obs, g, proc)
  in
  if not smoke then ignore (traced_run ());
  (* Untraced and traced runs alternate, so a slow spell on the host
     falls on both alike; the overhead compares their medians. *)
  let pairs =
    repeat ~min:(if smoke then 1 else 2) ~seconds (fun () ->
        let u = timed_run w in
        (u, traced_run ()))
  in
  Option.iter remove_tree obs_dir;
  let d = digest (fst (fst (List.hd pairs))) in
  List.iter
    (fun ((u, _), (t, _, g, _)) ->
      check checks "untraced runs give the same report" (digest u = d);
      check checks "traced runs give the same report as untraced runs" (digest t = d);
      check checks "event stamps never go backwards" (g.Gap_trace.negative_gaps = 0);
      check checks "attributed + unattributed time = traced wall"
        (Gap_trace.attributed_ns g + Gap_trace.self_ns g Gap_trace.Kernel = g.Gap_trace.wall_ns))
    pairs;
  let untraced_median = Stats.median (List.map (fun ((_, s), _) -> s) pairs) in
  (* The per-layer numbers come from the traced run of median wall. *)
  let report, reg, g, proc =
    let traced = List.map snd pairs in
    let wall (_, _, g, _) = g.Gap_trace.wall_ns in
    List.nth (List.sort (fun a b -> compare (wall a) (wall b)) traced) (List.length traced / 2)
  in
  check_report checks report;
  let wall_ns = g.Gap_trace.wall_ns in
  let unattributed = Gap_trace.self_ns g Gap_trace.Kernel in
  let traced_median =
    Stats.median (List.map (fun (_, (_, _, g, _)) -> float_of_int g.Gap_trace.wall_ns *. 1e-9) pairs)
  in
  let layers = Layers.all (if smoke then Layers.quick else Layers.full) in
  let cost = Layers.median layers in
  let queries = report.System.queries in
  let ms ns = float_of_int ns *. 1e-6 in
  let frac slot = ratio (Gap_trace.self_ns g slot) wall_ns in
  let count = Gap_trace.count g in
  let proc_counter name = Option.value ~default:0 (List.assoc_opt name proc) in
  let lookups =
    match histogram_with_prefix reg "dht.hops." with
    | Some s -> s
    | None -> Histogram.summary (Histogram.create ())
  in
  let sent = counter reg "net.messages_sent" in
  let options = w.Workload.options in
  let repl = options.System.repl in
  (* The ledger: layer op counts from this run times their measured
     costs, against the traced wall.  Maintenance, churn and the net
     model have no layer cost of their own and land in the residual. *)
  let predicted_ns =
    let histogram_records =
      Registry.fold reg ~init:0 ~f:(fun acc _ v ->
          match v with Registry.Histogram_v s -> acc + s.Histogram.count | _ -> acc)
    in
    let peers = w.Workload.scenario.Pdht_work.Scenario.num_peers in
    let rpcs =
      List.fold_left (fun acc n -> acc + proc_counter n) 0
        [ "proc.hops"; "proc.gets"; "proc.puts"; "proc.repair_puts"; "proc.probes" ]
    in
    let term n c = float_of_int n *. c in
    term (counter reg "engine.events_processed") (cost "simkernel.event_queue_add_pop_ns")
    +. term lookups.Histogram.count
         (cost (Layers.lookup_name options.System.backend (Workload.active_members w)))
    +. term (counter reg "index.ttl_reset") (cost "dht.storage_get_hit_ns")
    +. term (repl * counter reg "index.insert") (cost "dht.storage_put_evict_ns")
    +. term (count Gap_trace.Replica_flood) (cost (Layers.flood_name repl))
    +. term (counter reg "broadcast.searches") (cost (Layers.search_name peers))
    +. term histogram_records (cost "obs.histogram_record_ns")
    +. term rpcs (1e3 *. cost "proc.rpc_roundtrip_us")
    +. term (proc_counter "proc.casts") (cost "wire.encode_ns")
  in
  Printf.printf
    "== %s (per layer) traced median=%.3f s untraced median=%.3f s pairs=%d digest=%s\n"
    w.Workload.name traced_median untraced_median (List.length pairs) d;
  (* The net model's simulated latency exists only where the model runs,
     so it is reported beside the metrics rather than as one. *)
  let extra =
    match report.System.net with
    | Some n ->
        Printf.printf "  simulated query latency p99 = %g sim-s\n" n.System.latency_p99;
        [ ("sim_latency_p99_s", Json.Float n.System.latency_p99) ]
    | None -> []
  in
  finish ~extra ~checks ~attempted:queries ~digest:d
    ([
       single "core.setup_ms" "ms" (ms (Gap_trace.self_ns g Gap_trace.Setup));
       single "simkernel.traced_wall_ms" "ms" (ms wall_ns);
       single "simkernel.unattributed_ms" "ms" (ms unattributed);
       single "simkernel.events" "count" (float_of_int (counter reg "engine.events_processed"));
       single "core.query_self_frac" "fraction" (frac Gap_trace.Query);
       single "core.index_hit_ratio" "fraction"
         (ratio (counter reg "index.hit") (counter reg "index.hit" + counter reg "index.miss"));
       single "dht.lookup_self_frac" "fraction" (frac Gap_trace.Lookup);
       single "dht.lookup_count" "count" (float_of_int lookups.Histogram.count);
       single "dht.hops_mean" "hops" lookups.Histogram.mean;
       single "dht.store_hit_self_frac" "fraction" (frac Gap_trace.Store_hit);
       single "dht.store_hit_count" "count" (float_of_int (counter reg "index.ttl_reset"));
       single "core.insert_self_frac" "fraction" (frac Gap_trace.Insert);
       single "core.insert_count" "count" (float_of_int (counter reg "index.insert"));
       single "gossip.replica_flood_self_frac" "fraction" (frac Gap_trace.Replica_flood);
       single "gossip.replica_flood_count" "count" (float_of_int (count Gap_trace.Replica_flood));
       single "gossip.replica_flood_msgs_mean" "msgs"
         (ratio g.Gap_trace.replica_flood_messages (count Gap_trace.Replica_flood));
       single "overlay.broadcast_self_frac" "fraction" (frac Gap_trace.Broadcast);
       single "overlay.broadcast_count" "count" (float_of_int (counter reg "broadcast.searches"));
       single "overlay.broadcast_reach_mean" "msgs" (histogram_mean reg "broadcast.reach");
       single "overlay.broadcast_found_ratio" "fraction"
         (ratio (counter reg "broadcast.found") (counter reg "broadcast.searches"));
       single "dht.maintenance_self_frac" "fraction" (frac Gap_trace.Maintenance);
       single "dht.maintenance_count" "count" (float_of_int (count Gap_trace.Maintenance));
       single "net.self_frac" "fraction" (frac Gap_trace.Net);
       single "net.count" "count" (float_of_int sent);
       single "net.retry_ratio" "fraction" (ratio (counter reg "net.messages_retried") sent);
       single "net.drop_ratio" "fraction" (ratio (counter reg "net.messages_dropped") sent);
       single "dht.churn_self_frac" "fraction" (frac Gap_trace.Churn);
       single "dht.churn_count" "count" (float_of_int (counter reg "churn.transitions"));
       single "proc.frames_per_query" "frames"
         (ratio (proc_counter "proc.frames_in" + proc_counter "proc.frames_out") queries);
       single "proc.hops_per_query" "frames" (ratio (proc_counter "proc.hops") queries);
       single "proc.casts_per_query" "frames" (ratio (proc_counter "proc.casts") queries);
       single "proc.store_ops_per_query" "frames"
         (ratio
            (proc_counter "proc.gets" + proc_counter "proc.puts" + proc_counter "proc.repair_puts"
           + proc_counter "proc.probes")
            queries);
       single "core.query_wall_us_p50" "us"
         (Stats.percentile_sorted g.Gap_trace.query_wall_us 0.5);
       single "core.query_wall_us_p99" "us"
         (Stats.percentile_sorted g.Gap_trace.query_wall_us 0.99);
       single "obs.tracing_overhead_frac" "fraction" ((traced_median /. untraced_median) -. 1.);
       single "ledger.predicted_ms" "ms" (predicted_ns *. 1e-6);
       single "ledger.residual_frac" "fraction"
         ((float_of_int wall_ns -. predicted_ns) /. float_of_int wall_ns);
     ]
    @ List.map (fun c -> { name = c.Layers.name; unit = c.Layers.unit; s = c.Layers.summary }) layers
    @ List.map (fun c -> single c.Layers.words_name "words/op" c.Layers.minor_words) layers)

(* ------------------------------------------------------------------ *)
(* Every workload, each in its own child processes *)

type child = { lines : string list; detail : Json.t option; status : Unix.process_status }

(* Run this executable on one workload; its standard output is
   collected, its standard error passes through. *)
let spawn_child args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  flush_all ();
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec read acc =
    match input_line ic with line -> read (line :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let detail =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"DETAIL " l then
          Result.to_option (Json.of_string (String.sub l 7 (String.length l - 7)))
        else None)
      lines
  in
  { lines; detail; status }

let orchestrate ~seed ~seconds ~smoke ~out ~out_dir =
  let results =
    List.map
      (fun name ->
        let trace k =
          let args =
            [ "--workload"; name; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" seconds; "--trace"; string_of_int k; "--out-dir"; out_dir ]
            @ if smoke then [ "--smoke" ] else []
          in
          let c = spawn_child args in
          let ok =
            c.status = Unix.WEXITED 0
            && Option.bind c.detail (Json.member "correct") = Some (Json.Bool true)
          in
          (* Relay the human-readable part (only failures when smoke
             testing); the JSON lines go into the combined result. *)
          if ok && smoke then Printf.printf "%s --trace %d: ok\n" name k
          else
            List.iter
              (fun l ->
                if not (String.starts_with ~prefix:"DETAIL " l || String.starts_with ~prefix:"{" l)
                then print_endline l)
              c.lines;
          if not ok then Printf.printf "  FAILED: %s --trace %d\n" name k;
          (ok, Option.value c.detail ~default:Json.Null)
        in
        let ok0, e2e = trace 0 in
        let ok1, layer = trace 1 in
        (ok0 && ok1, (name, Json.Obj [ ("end_to_end", e2e); ("per_layer", layer) ])))
      Workload.names
  in
  let all_ok = List.for_all fst results in
  let json =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("smoke", Json.Bool smoke);
        ("cores", Json.Int (Timing.cores));
        ("ocaml", Json.String Sys.ocaml_version);
        ("correct", Json.Bool all_ok);
        ("workloads", Json.Obj (List.map snd results));
      ]
  in
  let out =
    match out with
    | Some f -> f
    | None ->
        Filename.concat out_dir
          (Printf.sprintf "%s-seed%d.json" (if smoke then "smoke" else "result") seed)
  in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "%s: %s (cores=%d)\n" (if all_ok then "all checks passed" else "CHECKS FAILED")
    out (Timing.cores);
  exit (if all_ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "node" :: rest ->
      let rec parse port node_id obs_out = function
        | "--connect" :: p :: rest -> parse (int_of_string_opt p) node_id obs_out rest
        | "--node-id" :: k :: rest -> parse port (int_of_string_opt k) obs_out rest
        | "--obs-out" :: f :: rest -> parse port node_id (Some f) rest
        | [] -> (port, node_id, obs_out)
        | arg :: _ -> fail "node: unknown argument %s" arg
      in
      (match parse None None None rest with
      | Some port, Some node_id, obs_out -> Pdht_proc.Node.run ?obs_out ~port ~node_id ()
      | _ -> fail "node needs --connect PORT --node-id K")
  | _ :: rest ->
      let workload = ref None and seed = ref 1 and seconds = ref 15. and trace = ref None in
      let smoke = ref false and out = ref None and out_dir = ref ".bench_out" in
      let number flag v conv = match conv v with Some x -> x | None -> fail "bad %s %s" flag v in
      let rec parse = function
        | "--workload" :: w :: rest -> workload := Some w; parse rest
        | "--seed" :: n :: rest -> seed := number "--seed" n int_of_string_opt; parse rest
        | "--seconds" :: s :: rest -> seconds := number "--seconds" s float_of_string_opt; parse rest
        | "--trace" :: t :: rest -> trace := Some (number "--trace" t int_of_string_opt); parse rest
        | "--smoke" :: rest -> smoke := true; parse rest
        | "--out" :: f :: rest -> out := Some f; parse rest
        | "--out-dir" :: d :: rest -> out_dir := d; parse rest
        | [] -> ()
        | arg :: _ -> fail "unknown argument %s" arg
      in
      parse rest;
      ignore (Timing.pin_to_current_cpu ());
      if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
      let smoke = !smoke and seed = !seed in
      let seconds = if smoke then 0. else !seconds in
      (match (!workload, !trace) with
      | None, None -> orchestrate ~seed ~seconds ~smoke ~out:!out ~out_dir:!out_dir
      | Some name, Some trace ->
          let w =
            match Workload.find ~seed ~scale:(if smoke then 1. /. 50. else 1.) name with
            | Some w -> w
            | None -> fail "unknown workload %s (one of %s)" name (String.concat ", " Workload.names)
          in
          if trace = 0 then end_to_end ~smoke ~seconds w
          else if trace = 1 then per_layer ~smoke ~seconds ~out_dir:!out_dir w
          else fail "--trace must be 0 or 1"
      | _ -> fail "--workload and --trace go together")
  | [] -> fail "no arguments"
