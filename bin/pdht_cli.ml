(* pdht - command-line front end ([pdht --help] lists the subcommands). *)

open Cmdliner

module Params = Pdht_model.Params
module Sweep = Pdht_model.Sweep
module Strategies = Pdht_model.Strategies
module Index_policy = Pdht_model.Index_policy
module Table = Pdht_util.Table
module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Strategy = Pdht_core.Strategy
module Psel = Pdht_policy.Selector

(* ------------------------------------------------------------------ *)
(* Shared parameter arguments (defaults = paper Table 1) *)

let peers_arg =
  Arg.(value & opt int Params.default.Params.num_peers
       & info [ "peers" ] ~docv:"N" ~doc:"Total number of peers (numPeers).")

let keys_arg =
  Arg.(value & opt int Params.default.Params.keys
       & info [ "keys" ] ~docv:"N" ~doc:"Number of unique keys.")

let stor_arg =
  Arg.(value & opt int Params.default.Params.stor
       & info [ "stor" ] ~docv:"N" ~doc:"Per-peer index cache capacity.")

let repl_arg =
  Arg.(value & opt int Params.default.Params.repl
       & info [ "repl" ] ~docv:"N" ~doc:"Replication factor (index and content).")

let alpha_arg =
  Arg.(value & opt float Params.default.Params.alpha
       & info [ "alpha" ] ~docv:"A" ~doc:"Zipf exponent of the query distribution.")

let fqry_arg =
  Arg.(value & opt float Params.default.Params.f_qry
       & info [ "fqry" ] ~docv:"F" ~doc:"Queries per peer per second.")

let fupd_arg =
  Arg.(value & opt float Params.default.Params.f_upd
       & info [ "fupd" ] ~docv:"F" ~doc:"Updates per key per second.")

let build_params num_peers keys stor repl alpha f_qry f_upd =
  {
    Params.default with
    Params.num_peers;
    keys;
    stor;
    repl;
    alpha;
    f_qry;
    f_upd;
  }

let params_term =
  Term.(const build_params $ peers_arg $ keys_arg $ stor_arg $ repl_arg $ alpha_arg
        $ fqry_arg $ fupd_arg)

let with_validated params k =
  match Params.validate params with
  | Ok p -> k p; `Ok ()
  | Error msg -> `Error (false, "invalid parameters: " ^ msg)

let jobs_arg =
  Arg.(value & opt int (Pdht_core.Runner.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for independent tasks (default: cores - 1). \
                 Results are identical for any value.")

(* ------------------------------------------------------------------ *)
(* Network-model flags (simulate only).  Giving any of them enables the
   model; the others fall back to [Pdht_net.Config.default]. *)

let net_term =
  let latency_arg =
    Arg.(value & opt (some string) None
         & info [ "latency" ] ~docv:"SPEC"
             ~doc:"Per-hop latency model: a bare float (constant seconds), or \
                   $(b,constant:S), $(b,uniform:LO:HI), \
                   $(b,lognormal:MU:SIGMA).  Enables the network model.")
  in
  let loss_arg =
    Arg.(value & opt (some float) None
         & info [ "loss" ] ~docv:"P"
             ~doc:"Independent per-message drop probability in [0,1].  Enables \
                   the network model.")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "rpc-timeout" ] ~docv:"S"
             ~doc:"Seconds an RPC caller waits for its first attempt (later \
                   attempts back off exponentially).  Enables the network \
                   model.")
  in
  let retries_arg =
    Arg.(value & opt (some int) None
         & info [ "rpc-retries" ] ~docv:"N"
             ~doc:"RPC retries after the first attempt (0 = one shot).  \
                   Enables the network model.")
  in
  let build latency loss rpc_timeout rpc_retries =
    match (latency, loss, rpc_timeout, rpc_retries) with
    | None, None, None, None -> Ok None
    | _ -> (
        let base = Pdht_net.Config.default in
        let latency_result =
          match latency with
          | None -> Ok base.Pdht_net.Config.latency
          | Some spec -> Pdht_net.Config.latency_of_string spec
        in
        match latency_result with
        | Error msg -> Error ("--latency: " ^ msg)
        | Ok latency -> (
            let cfg =
              {
                base with
                Pdht_net.Config.latency;
                loss = Option.value loss ~default:base.Pdht_net.Config.loss;
                rpc_timeout =
                  Option.value rpc_timeout
                    ~default:base.Pdht_net.Config.rpc_timeout;
                rpc_retries =
                  Option.value rpc_retries
                    ~default:base.Pdht_net.Config.rpc_retries;
              }
            in
            match Pdht_net.Config.validate cfg with
            | Ok cfg -> Ok (Some cfg)
            | Error msg -> Error ("invalid network model: " ^ msg)))
  in
  Term.(const build $ latency_arg $ loss_arg $ timeout_arg $ retries_arg)

(* ------------------------------------------------------------------ *)
(* Fault-injection flags (simulate only).  [--fault] carries the whole
   schedule; the companion flags turn on the self-healing and checking
   halves. *)

let fault_term =
  let plan_arg =
    Arg.(value & opt (some string) None
         & info [ "fault" ] ~docv:"PLAN"
             ~doc:"Fault schedule: comma-separated events \
                   $(b,crash:F@T) (crash fraction F at time T), \
                   $(b,crash:F@T+D) (recover after D), \
                   $(b,flap:F@T+DxN) (N crash episodes of length D), \
                   $(b,rack:LO-HI@T[+D]) (correlated index-range failure), \
                   $(b,churn:SPEC@T[+D]) (session churn from T, for D \
                   seconds if given, SPEC as for $(b,--churn); an offline \
                   peer keeps its state), \
                   $(b,abort@T).  Enables fault injection.")
  in
  let repair_arg =
    Arg.(value & opt (some float) None
         & info [ "fault-repair" ] ~docv:"S"
             ~doc:"Run a self-healing anti-entropy pass every S simulated \
                   seconds (requires $(b,--fault)).")
  in
  let threshold_arg =
    Arg.(value & opt (some float) None
         & info [ "fault-repair-threshold" ] ~docv:"F"
             ~doc:"Re-replicate an item when its online replica count falls \
                   below F * repl (default 0.5; requires $(b,--fault-repair)).")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "fault-check" ]
             ~doc:"Periodically verify fault invariants (store bounds, crashed \
                   peers hold nothing), failing the run with the simulated time \
                   on violation (requires $(b,--fault)).")
  in
  let build plan repair threshold check =
    match (plan, repair, threshold) with
    | None, None, None when not check -> Ok None
    | None, _, _ ->
        Error "--fault-repair/--fault-repair-threshold/--fault-check require --fault"
    | Some _, None, Some _ -> Error "--fault-repair-threshold requires --fault-repair"
    | Some spec, repair, threshold -> (
        match Pdht_fault.Plan.of_string spec with
        | Error msg -> Error ("--fault: " ^ msg)
        | Ok plan -> (
            let repair =
              Option.map
                (fun every ->
                  { Pdht_fault.Plan.every;
                    min_fraction = Option.value threshold ~default:0.5 })
                repair
            in
            let plan = { plan with Pdht_fault.Plan.repair; check_invariants = check } in
            match Pdht_fault.Plan.validate plan with
            | Ok plan -> Ok (Some plan)
            | Error msg -> Error ("invalid fault plan: " ^ msg)))
  in
  Term.(const build $ plan_arg $ repair_arg $ threshold_arg $ check_arg)

(* ------------------------------------------------------------------ *)
(* model *)

let run_model params =
  with_validated params @@ fun p ->
  Format.printf "%a@." Params.pp p;
  let s = Index_policy.solve p in
  Printf.printf "\nDerived quantities:\n";
  Printf.printf "  cSUnstr (Eq. 6)        %.2f msg\n" s.Index_policy.c_s_unstr;
  Printf.printf "  cSIndx (Eq. 7)         %.3f msg\n" s.Index_policy.c_s_indx;
  Printf.printf "  cIndKey (Eq. 10)       %.5f msg/s\n" s.Index_policy.c_ind_key;
  Printf.printf "  fMin (Eq. 2)           %.6f 1/s\n" s.Index_policy.f_min;
  Printf.printf "  maxRank                %d of %d keys\n" s.Index_policy.max_rank p.Params.keys;
  Printf.printf "  numActivePeers         %d\n" s.Index_policy.num_active_peers;
  Printf.printf "  pIndxd (Eq. 5)         %.4f\n" s.Index_policy.p_indexed;
  let key_ttl = Strategies.default_key_ttl s in
  Printf.printf "  keyTtl = 1/fMin        %.0f s\n\n" key_ttl;
  let show label (b : Strategies.breakdown) =
    Printf.printf "  %-22s %10.1f msg/s  (maint %.1f, index %.1f, broadcast %.1f)\n" label
      b.Strategies.total b.Strategies.maintenance b.Strategies.index_search
      b.Strategies.broadcast_search
  in
  Printf.printf "Strategy costs:\n";
  show "indexAll (Eq. 11)" (Strategies.index_all p);
  show "noIndex (Eq. 12)" (Strategies.no_index p);
  show "partial ideal (Eq. 13)" (Strategies.partial_ideal p s);
  show "partial TTL (Eq. 17)" (Strategies.partial_selection p ~key_ttl)

let model_cmd =
  let doc = "Evaluate the analytical model (Eq. 1-17) at one parameter point." in
  Cmd.v (Cmd.info "model" ~doc) Term.(ret (const run_model $ params_term))

(* ------------------------------------------------------------------ *)
(* sweep *)

let run_sweep csv jobs params =
  if jobs < 1 then `Error (false, "--jobs must be >= 1")
  else
  with_validated params @@ fun p ->
  let t =
    Table.make
      [ ( "fQry", Table.Left,
          fun (pt : Sweep.point) -> Printf.sprintf "1/%.0f" (1. /. pt.Sweep.f_qry) );
        ("indexAll", Table.Right, fun pt -> Printf.sprintf "%.0f" pt.Sweep.index_all);
        ("noIndex", Table.Right, fun pt -> Printf.sprintf "%.0f" pt.Sweep.no_index);
        ("partial", Table.Right, fun pt -> Printf.sprintf "%.0f" pt.Sweep.partial_ideal);
        ( "selection", Table.Right,
          fun pt -> Printf.sprintf "%.0f" pt.Sweep.partial_selection );
        ("idx frac", Table.Right, fun pt -> Printf.sprintf "%.3f" pt.Sweep.index_fraction);
        ("pIndxd", Table.Right, fun pt -> Printf.sprintf "%.3f" pt.Sweep.p_indexed);
        ("keyTtl", Table.Right, fun pt -> Printf.sprintf "%.0f" pt.Sweep.key_ttl) ]
      (Pdht_runner.Pool.map_list ~jobs
         ~f:(fun _ f -> Sweep.point (Params.with_query_frequency p f))
         (Params.query_frequency_sweep p))
  in
  if csv then print_endline (Table.render_csv t) else Table.print t

let sweep_cmd =
  let doc = "Print the Fig. 1-4 series across the paper's query-frequency sweep." in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an aligned table.")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(ret (const run_sweep $ csv_arg $ jobs_arg $ params_term))

(* ------------------------------------------------------------------ *)
(* simulate and cluster: the shared run *)

let strategy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "partial" -> Ok `Partial
    | "indexall" | "index-all" | "all" -> Ok `Index_all
    | "noindex" | "no-index" | "none" -> Ok `No_index
    | _ -> Error (`Msg "expected one of: partial, indexall, noindex")
  in
  let print ppf v =
    Format.pp_print_string ppf
      (match v with `Partial -> "partial" | `Index_all -> "indexall" | `No_index -> "noindex")
  in
  Arg.conv (parse, print)

let policy_conv =
  let parse s =
    match Psel.of_string s with Ok spec -> Ok spec | Error msg -> Error (`Msg msg)
  in
  let print ppf spec = Format.pp_print_string ppf (Psel.to_string spec) in
  Arg.conv (parse, print)

let setup_logging verbose log_level =
  Logs.set_reporter (Logs.format_reporter ());
  let level =
    match log_level with
    | Some l -> l
    | None -> Some (if verbose then Logs.Info else Logs.Warning)
  in
  Logs.set_level level

(* "query,dht-lookup" -> category list; errors name the bad token. *)
let parse_trace_filter spec =
  let tokens =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec convert acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match Pdht_obs.Event.category_of_label tok with
        | Some cat -> convert (cat :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown trace category %S; known: %s" tok
                 (String.concat ", "
                    (List.map Pdht_obs.Event.category_label
                       Pdht_obs.Event.all_categories))))
  in
  convert [] tokens

(* [--churn] takes an optional session spec in the
   {!Pdht_dist.Session.of_string} grammar; the bare flag means the
   historical default (exponential 10-minute uptimes, 75% availability
   — see [churn_arg]'s [~vopt]). *)
let churn_plan_of_flag = function
  | None -> Ok Scenario.No_churn
  | Some spec_str -> (
      match Pdht_dist.Session.of_string spec_str with
      | Error msg -> Error ("--churn: " ^ msg)
      | Ok spec -> Ok (Scenario.Sessions spec))

let build_scenario ~preset ~peers ~keys ~fqry ~duration ~seed ~churn =
  match preset with
  | Some name -> (
      match Scenario.preset name with
      | Some s -> Ok { s with Scenario.seed }
      | None ->
          Error
            (Printf.sprintf "unknown preset %S; available: %s" name
               (String.concat ", " (List.map (fun (n, _, _) -> n) Scenario.presets))))
  | None -> (
      match churn_plan_of_flag churn with
      | Error _ as e -> e
      | Ok churn ->
          Ok
            {
              Scenario.news_default with
              Scenario.num_peers = peers;
              keys;
              f_qry = fqry;
              duration;
              seed;
              churn;
            })

let strategy_of_flag strategy ~scenario ~options =
  match strategy with
  | `Partial ->
      Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }
  | `Index_all -> Strategy.Index_all
  | `No_index -> Strategy.No_index

(* Every flag that shapes the workload, declared once for [simulate]
   and [cluster], so a same-flag cluster run reproduces the simulator's
   workload by construction.  The term sets up logging and yields the
   validated scenario, strategy and options.  [simulate] layers its
   net, fault, bucket-refresh and timeline flags onto those options
   afterwards; {!System.derive_key_ttl} reads none of them, so the
   derived strategy holds for the layered options too. *)
let workload_term =
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log run progress to stderr.")
  in
  let log_level_arg =
    let level_conv =
      Arg.conv
        ( Logs.level_of_string,
          fun ppf l -> Format.pp_print_string ppf (Logs.level_to_string l) )
    in
    Arg.(value & opt (some level_conv) None
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Log verbosity (quiet, error, warning, info, debug); overrides \
                   $(b,--verbose).")
  in
  let preset_arg =
    Arg.(value & opt (some string) None
         & info [ "preset" ]
             ~doc:"Named scenario (news, flash-crowd, churn-storm, busy-day, \
                   uniform-stress); overrides the size/rate flags.")
  in
  let peers = Arg.(value & opt int 1000 & info [ "peers" ] ~docv:"N" ~doc:"Peers.") in
  let keys = Arg.(value & opt int 2000 & info [ "keys" ] ~docv:"N" ~doc:"Keys.") in
  let repl = Arg.(value & opt int 20 & info [ "repl" ] ~docv:"N" ~doc:"Replication factor.") in
  let stor = Arg.(value & opt int 100 & info [ "stor" ] ~docv:"N" ~doc:"Cache capacity.") in
  let fqry =
    Arg.(value & opt float (1. /. 30.) & info [ "fqry" ] ~docv:"F" ~doc:"Queries/peer/s.")
  in
  let duration_arg =
    Arg.(value & opt float 1800. & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  let strategy_arg =
    Arg.(value & opt strategy_conv `Partial
         & info [ "strategy" ] ~docv:"S" ~doc:"partial | indexall | noindex.")
  in
  let policy_arg =
    Arg.(value & opt policy_conv (Psel.Ttl Psel.Model_derived)
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Index-selection policy: $(b,ttl) (model-derived keyTtl, the \
                   default), $(b,ttl:SECS) (fixed keyTtl), $(b,ttl:adaptive) \
                   (self-tuning controller), or $(b,cost) (online Eq. 1-2 \
                   re-solve; admits keys above the fitted fMin).")
  in
  let churn_arg =
    Arg.(
      value
      & opt ~vopt:(Some "exp:up=600:down=200") (some string) None
      & info [ "churn" ] ~docv:"SPEC"
          ~doc:
            "Enable peer churn.  Bare $(b,--churn) keeps the historical default \
             (exponential sessions, 10-minute mean uptime, 75% availability).  \
             SPEC is DIST[:up=S][:down=S][:sigma=X|:shape=X][:on=F] with DIST \
             one of exp, lognormal, weibull, pareto; up/down are mean session \
             seconds, sigma/shape the heavy-tail parameter, on the initial \
             online fraction (default: stationary up/(up+down)).")
  in
  let build verbose log_level preset peers keys repl stor fqry duration seed strategy
      selection_policy churn =
    setup_logging verbose log_level;
    match build_scenario ~preset ~peers ~keys ~fqry ~duration ~seed ~churn with
    | Error _ as e -> e
    | Ok scenario -> (
        match Scenario.validate scenario with
        | Error msg -> Error ("invalid scenario: " ^ msg)
        | Ok scenario ->
            let options = System.Options.make ~repl ~stor ~selection_policy () in
            Ok (scenario, strategy_of_flag strategy ~scenario ~options, options))
  in
  Term.(
    const build $ verbose_arg $ log_level_arg $ preset_arg $ peers $ keys $ repl $ stor
    $ fqry $ duration_arg $ seed_arg $ strategy_arg $ policy_arg $ churn_arg)

let run_simulate workload metrics_out trace_out trace_filter trace_sample timeline_out
    timeline_window bucket_refresh jobs replicate net fault =
  if jobs < 1 then `Error (false, "--jobs must be >= 1")
  else if replicate < 1 then `Error (false, "--replicate must be >= 1")
  else if trace_sample < 1 then `Error (false, "--trace-sample must be >= 1")
  else if (match timeline_window with Some w -> not (w > 0.) | None -> false) then
    `Error (false, "--timeline-window must be positive")
  else if (match bucket_refresh with Some r -> not (r > 0.) | None -> false) then
    `Error (false, "--bucket-refresh must be positive")
  else
  match net with
  | Error msg -> `Error (false, msg)
  | Ok net ->
  match fault with
  | Error msg -> `Error (false, msg)
  | Ok fault ->
  match workload with
  | Error msg -> `Error (false, msg)
  | Ok (scenario, strategy, options) ->
      (* [--timeline-out] without an explicit window gets the default
         sample cadence; a bare [--timeline-window] still lands the
         summary in the printed report. *)
      let timeline_width =
        match (timeline_out, timeline_window) with
        | _, Some w -> Some w
        | Some _, None -> Some 60.
        | None, None -> None
      in
      let options =
        {
          options with
          (* [--bucket-refresh] only makes sense on Kademlia, and the CLI
             has no backend flag, so the option implies the backend. *)
          System.backend =
            (match bucket_refresh with
            | Some _ -> Pdht_dht.Dht.Kademlia_backend
            | None -> options.System.backend);
          net;
          fault;
          timeline_window = timeline_width;
          bucket_refresh;
        }
      in
      let seed = scenario.Scenario.seed in
      if replicate > 1 then begin
        if trace_out <> None || metrics_out <> None || timeline_out <> None then
          `Error
            ( false,
              "--trace-out/--metrics-out/--timeline-out describe a single run; drop \
               them or drop --replicate" )
        else begin
          let seeds = List.init replicate (fun i -> seed + i) in
          let stats =
            Pdht_core.Experiment.replicate_seeds ~jobs ~options ~scenario ~strategy
              ~seeds ()
          in
          Printf.printf "%d/%d runs (seeds %d..%d, %d domains)\n" stats.Pdht_core.Experiment.runs
            replicate seed (seed + replicate - 1) jobs;
          Printf.printf "  messages/s  %.1f +- %.1f\n"
            stats.Pdht_core.Experiment.mean_messages_per_second
            stats.Pdht_core.Experiment.sd_messages_per_second;
          Printf.printf "  hit rate    %.3f +- %.3f\n"
            stats.Pdht_core.Experiment.mean_hit_rate
            stats.Pdht_core.Experiment.sd_hit_rate;
          List.iter
            (fun (tag, msg) -> Printf.printf "  FAILED %s: %s\n" tag msg)
            stats.Pdht_core.Experiment.failures;
          `Ok ()
        end
      end
      else
      let filter =
        match trace_filter with
        | None -> Ok None
        | Some spec -> (
            match parse_trace_filter spec with
            | Ok cats -> Ok (Some cats)
            | Error msg -> Error msg)
      in
      (match filter with
      | Error msg -> `Error (false, msg)
      | Ok filter -> (
          let obs = Pdht_obs.Context.create () in
          let tracer = Pdht_obs.Context.tracer obs in
          let run_label = scenario.Scenario.name ^ "/" ^ Strategy.label strategy in
          match
            match trace_out with
            | None -> Ok None
            | Some path -> (
                match open_out path with
                | oc ->
                    Pdht_obs.Tracer.enable tracer;
                    Pdht_obs.Tracer.set_filter tracer filter;
                    Pdht_obs.Tracer.set_sampling tracer trace_sample;
                    Pdht_obs.Tracer.add_sink tracer (Pdht_obs.Sink.jsonl oc);
                    (* Keep the file usable if the run dies mid-way: the
                       engine's snapshot tick drives registered
                       flushers. *)
                    Pdht_obs.Tracer.add_flusher tracer (fun () -> flush oc);
                    Ok (Some oc)
                | exception Sys_error msg -> Error ("cannot open trace file: " ^ msg))
          with
          | Error msg -> `Error (false, msg)
          | Ok trace_channel -> (
              (* Same interrupted-run insurance for metrics: rewrite the
                 snapshot (sans final timestamp) on every flush tick; the
                 post-run write below restores the exact final file. *)
              (match metrics_out with
              | None -> ()
              | Some path ->
                  Pdht_obs.Tracer.add_flusher tracer (fun () ->
                      try
                        Pdht_obs.Export.to_file ~run:run_label ~path
                          (Pdht_obs.Registry.snapshot (Pdht_obs.Context.registry obs))
                      with Sys_error _ -> ()));
              (* Single-spec batch: the runner executes it inline against
                 this obs context, so the tracer still sees every event,
                 and the seed derivation matches what batch runs use. *)
              let report =
                Pdht_core.Runner.run_all ~jobs ~obs
                  [ Pdht_core.Run_spec.make ~strategy ~options scenario ]
                |> List.hd |> snd |> Pdht_core.Run_result.report_exn
              in
              Format.printf "%a@." System.pp_report report;
              (match trace_channel with
              | None -> ()
              | Some oc ->
                  close_out oc;
                  Logs.info (fun m ->
                      m "wrote %d trace events"
                        (Pdht_obs.Tracer.events_emitted tracer)));
              let timeline_status =
                match (timeline_out, report.System.timeline) with
                | None, _ -> Ok ()
                | Some path, Some summary -> (
                    match open_out path with
                    | oc ->
                        Pdht_obs.Timeline.write_jsonl oc summary;
                        close_out oc;
                        Ok ()
                    | exception Sys_error msg ->
                        Error ("cannot write timeline file: " ^ msg))
                | Some _, None -> Error "timeline missing from report (internal error)"
              in
              match timeline_status with
              | Error msg -> `Error (false, msg)
              | Ok () -> (
                  match metrics_out with
                  | None -> `Ok ()
                  | Some path -> (
                      match
                        Pdht_obs.Export.to_file ~run:run_label
                          ~time:scenario.Scenario.duration ~path
                          (Pdht_obs.Registry.snapshot (Pdht_obs.Context.registry obs))
                      with
                      | () -> `Ok ()
                      | exception Sys_error msg ->
                          `Error (false, "cannot write metrics file: " ^ msg))))))

let simulate_cmd =
  let doc = "Run the event-driven simulator for one strategy on a news-style scenario." in
  let bucket_refresh_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "bucket-refresh" ] ~docv:"SECS"
          ~doc:
            "Live Kademlia routing tables: mutable k-buckets with replacement \
             caches and liveness probing, plus a stale-range refresh sweep \
             every SECS simulated seconds.  Implies the Kademlia backend; \
             probe traffic is charged to the maintenance account.")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the final metrics snapshot to FILE (JSONL, or CSV if the \
                   name ends in .csv).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Enable event tracing and stream typed events to FILE as JSONL.")
  in
  let trace_filter_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-filter" ] ~docv:"CATS"
             ~doc:"Comma-separated event categories to keep (e.g. \
                   query,dht-lookup); default: all.  Filtering can orphan \
                   child spans whose parent's category is dropped; the trace \
                   analyzer only guarantees rooted trees on unfiltered \
                   traces.")
  in
  let trace_sample_arg =
    Arg.(value & opt int 1
         & info [ "trace-sample" ] ~docv:"N"
             ~doc:"Causally trace 1 in N queries/updates (default 1 = all): \
                   sampled operations carry span ids linking every step to \
                   its root, for $(b,trace_stats).")
  in
  let timeline_out_arg =
    Arg.(value & opt (some string) None
         & info [ "timeline-out" ] ~docv:"FILE"
             ~doc:"Record a windowed timeline (queries, hits, messages, \
                   latency, indexed keys per window) and write it to FILE as \
                   JSONL.")
  in
  let timeline_window_arg =
    Arg.(value & opt (some float) None
         & info [ "timeline-window" ] ~docv:"S"
             ~doc:"Timeline window width in simulated seconds (default 60); \
                   also enables the timeline in the printed report without \
                   $(b,--timeline-out).")
  in
  let replicate_arg =
    Arg.(value & opt int 1
         & info [ "replicate" ] ~docv:"N"
             ~doc:"Run N independent replicas on seeds seed..seed+N-1 (spread over \
                   $(b,--jobs) domains) and report mean +- sd instead of one report.")
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run_simulate $ workload_term $ metrics_out_arg $ trace_out_arg
         $ trace_filter_arg $ trace_sample_arg $ timeline_out_arg $ timeline_window_arg
         $ bucket_refresh_arg $ jobs_arg $ replicate_arg $ net_term $ fault_term))

(* ------------------------------------------------------------------ *)
(* ttl *)

let run_ttl params =
  with_validated params @@ fun p ->
  let module T = Pdht_model.Ttl_analysis in
  Table.print
    (Table.make
       [ ("scale", Table.Right, fun (r : T.row) -> Printf.sprintf "%.2f" r.T.scale);
         ("keyTtl", Table.Right, fun r -> Printf.sprintf "%.0f" r.T.key_ttl);
         ("cost [msg/s]", Table.Right, fun r -> Printf.sprintf "%.0f" r.T.total_cost);
         ("vs indexAll", Table.Right, fun r -> Printf.sprintf "%.3f" r.T.savings_vs_all);
         ("vs noIndex", Table.Right, fun r -> Printf.sprintf "%.3f" r.T.savings_vs_none);
         ( "savings drop", Table.Right,
           fun r -> Printf.sprintf "%+.4f" r.T.savings_drop_vs_ideal_ttl ) ]
       (T.run p ~scales:T.default_scales))

let ttl_cmd =
  let doc = "keyTtl estimation-error sensitivity (paper Section 5.1.1)." in
  Cmd.v (Cmd.info "ttl" ~doc) Term.(ret (const run_ttl $ params_term))

(* ------------------------------------------------------------------ *)
(* plan *)

let run_plan params availability target max_repl =
  with_validated params @@ fun p ->
  let module Planner = Pdht_model.Replication_planner in
  match Planner.plan p ~peer_availability:availability ~target ~max_repl with
  | plan ->
      Printf.printf "peer availability %.2f, target item availability %.4f:\n" availability target;
      Printf.printf "  availability floor     %d replicas\n" plan.Planner.floor;
      Printf.printf "  cost-optimal factor    %d replicas\n" plan.Planner.repl;
      Printf.printf "  achieved availability  %.6f\n" plan.Planner.achieved_availability;
      Printf.printf "  Eq. 17 system cost     %.0f msg/s\n" plan.Planner.partial_cost
  | exception Invalid_argument msg -> Printf.printf "no feasible plan: %s\n" msg

let plan_cmd =
  let doc = "Plan a replication factor for an availability target ([VaCh02] mechanism)." in
  let availability_arg =
    Arg.(value & opt float 0.5
         & info [ "availability" ] ~docv:"A" ~doc:"Probability a peer is online.")
  in
  let target_arg =
    Arg.(value & opt float 0.99
         & info [ "target" ] ~docv:"T" ~doc:"Required item availability in [0,1).")
  in
  let max_repl_arg =
    Arg.(value & opt int 200 & info [ "max-repl" ] ~docv:"N" ~doc:"Largest factor to consider.")
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(ret (const run_plan $ params_term $ availability_arg $ target_arg $ max_repl_arg))

(* ------------------------------------------------------------------ *)
(* node *)

let run_node connect node_id obs_out =
  if connect < 1 || connect > 65535 then
    `Error (false, "--connect must be a TCP port (1-65535)")
  else if node_id < 0 then `Error (false, "--node-id must be >= 0")
  else
    match Pdht_proc.Node.run ?obs_out ~port:connect ~node_id () with
    | () -> `Ok ()
    | exception Failure msg -> `Error (false, msg)
    | exception Unix.Unix_error (err, fn, _) ->
        `Error
          ( false,
            Printf.sprintf "node %d: %s: %s" node_id fn (Unix.error_message err) )

let node_cmd =
  let doc =
    "Run one storage worker process (spawned by $(b,cluster); rarely run by hand)."
  in
  let connect_arg =
    Arg.(required & opt (some int) None
         & info [ "connect" ] ~docv:"PORT"
             ~doc:"Conductor port on 127.0.0.1 to connect to.")
  in
  let node_id_arg =
    Arg.(required & opt (some int) None
         & info [ "node-id" ] ~docv:"K" ~doc:"This worker's id in [0, nodes).")
  in
  let obs_out_arg =
    Arg.(value & opt (some string) None
         & info [ "obs-out" ] ~docv:"FILE"
             ~doc:"Write this node's counter registry as node-stamped JSONL on \
                   shutdown.")
  in
  Cmd.v (Cmd.info "node" ~doc)
    Term.(ret (const run_node $ connect_arg $ node_id_arg $ obs_out_arg))

(* ------------------------------------------------------------------ *)
(* cluster *)

let run_cluster nodes obs_dir workload =
  if nodes < 1 then `Error (false, "--nodes must be >= 1")
  else
    match workload with
    | Error msg -> `Error (false, msg)
    | Ok (scenario, strategy, options) -> (
        (* The simulator path hands its spec to the batch runner, which
           derives the run seed as stream 0 of the scenario seed; apply
           the same derivation so a same-flag cluster run is the
           same-seed run. *)
        let scenario =
          { scenario with
            Scenario.seed =
              Pdht_util.Rng.derive_seed ~seed:scenario.Scenario.seed ~stream:0 }
        in
        let config =
          { (Pdht_proc.Cluster.default_config ~nodes ~exe:Sys.executable_name)
            with Pdht_proc.Cluster.obs_dir }
        in
        match Pdht_proc.Cluster.run config scenario strategy options with
        | report ->
            Format.printf "%a@." System.pp_report report;
            `Ok ()
        | exception Failure msg -> `Error (false, msg)
        | exception Invalid_argument msg -> `Error (false, msg)
        | exception Unix.Unix_error (err, fn, _) ->
            `Error
              (false, Printf.sprintf "cluster: %s: %s" fn (Unix.error_message err)))

let cluster_cmd =
  let doc =
    "Run a scenario across N worker processes on this machine: the conductor \
     keeps the protocol brain and drives every index-store access and DHT hop \
     over loopback TCP to the worker owning that member's shard.  With the \
     same flags and seed, prints the exact report $(b,simulate) prints."
  in
  let nodes_arg =
    Arg.(value & opt int 4
         & info [ "nodes" ] ~docv:"N" ~doc:"Worker process count.")
  in
  let obs_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "obs-dir" ] ~docv:"DIR"
             ~doc:"Telemetry directory: each worker writes \
                   $(i,node-K.jsonl) and the conductor writes \
                   $(i,merged.jsonl) (run registry plus summed worker \
                   counters).")
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(ret (const run_cluster $ nodes_arg $ obs_dir_arg $ workload_term))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "query-adaptive partial distributed hash table (Klemm, Datta, Aberer; EDBT 2004)" in
  let info = Cmd.info "pdht" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ model_cmd; sweep_cmd; simulate_cmd; cluster_cmd; node_cmd; ttl_cmd;
            plan_cmd ]))
