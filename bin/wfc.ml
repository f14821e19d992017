(* wfc — command-line front end to the workflow-checkpointing library.

   Subcommands:
     generate   emit a synthetic Pegasus workflow (stats or DOT)
     evaluate   expected makespan of one heuristic schedule
     schedule   compare all heuristics on one workflow
     simulate   Monte Carlo fault injection vs the analytic evaluator
     solve      optimal solvers on special structures (chain / fork / join)
     stress     misspecification campaign ranking heuristics by tail behavior
     adapt      static vs adaptive execution on shared failure traces
     replay     record / replay deterministic failure traces
     profile    instrumented end-to-end workload reporting internal metrics
     corpus     sweep a directory of real workflow files across failure
                scenarios and heuristics (golden-testable tables)
     serve      scheduling-as-a-service daemon over a Unix/TCP socket with a
                warm-engine LRU and bounded-queue admission control
     request    client for a running daemon (text or binary protocol)

   Every analysis subcommand also takes --metrics (print internal counters
   after the normal output) and --trace FILE (write solver/simulator spans
   as Chrome trace JSON, or JSONL for .jsonl paths). A running daemon
   reports the same counters through `wfc request stats`. *)

open Cmdliner
open Wfc_core
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model
module Linearize = Wfc_dag.Linearize

(* ---- shared converters and options ---- *)

let family_conv =
  let parse s =
    match P.family_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown workflow family %S" s))
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf (P.family_name f))

let cost_conv =
  let parse s =
    match CM.of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg "cost must look like 0.1w or 5s")
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (CM.name c))

let lin_conv =
  let parse s =
    match Linearize.strategy_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg "linearization must be DF, BF or RF")
  in
  Arg.conv
    (parse, fun ppf l -> Format.pp_print_string ppf (Linearize.strategy_name l))

let ckpt_conv =
  let parse s =
    match Heuristics.ckpt_strategy_of_string s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg "strategy must be CkptNvr, CkptAlws, CkptW, CkptC, CkptD or CkptPer")
  in
  Arg.conv
    (parse, fun ppf c -> Format.pp_print_string ppf (Heuristics.ckpt_strategy_name c))

(* Validated numeric converters: out-of-range values must die as one-line
   Cmdliner usage errors (exit 124), never as Invalid_argument backtraces. *)

let float_conv ~what ~ok ~must =
  let parse s =
    match float_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be %s (got '%s')" what must s))
    | None -> Error (`Msg (Printf.sprintf "invalid %s '%s'" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

let positive_float what =
  float_conv ~what ~ok:(fun v -> v > 0. && Float.is_finite v) ~must:"positive"

let nonneg_float what =
  float_conv ~what ~ok:(fun v -> v >= 0. && Float.is_finite v)
    ~must:"non-negative"

let probability what =
  float_conv ~what ~ok:(fun v -> v >= 0. && v <= 1.) ~must:"in [0, 1]"

let positive_int what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some _ ->
        Error (`Msg (Printf.sprintf "%s must be at least 1 (got '%s')" what s))
    | None -> Error (`Msg (Printf.sprintf "invalid %s '%s'" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some _ ->
        Error (`Msg (Printf.sprintf "%s must be non-negative (got '%s')" what s))
    | None -> Error (`Msg (Printf.sprintf "invalid %s '%s'" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let port_conv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 && v <= 65535 -> Ok v
    | Some _ ->
        Error (`Msg (Printf.sprintf "port must be in [0, 65535] (got '%s')" s))
    | None -> Error (`Msg (Printf.sprintf "invalid port '%s'" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --deadline SECONDS: one validated term shared by stress, corpus and the
   serve-side text/binary protocol (which reuses the same wording in
   Wfc_serve.Protocol.validate), so every surface rejects a bad deadline
   with the same message. *)
let deadline_arg ~doc =
  Arg.(value & opt (some (positive_float "deadline")) None
       & info [ "deadline" ] ~docv:"SECONDS" ~doc)

(* --failures LAW: one validated inter-arrival law grammar shared by
   simulate, stress, adapt and replay. Nonsense dies as a usage error
   (exit 124), including out-of-range parameters the Distribution smart
   constructors would reject. *)

module Dist = Wfc_platform.Distribution

let failures_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "invalid failure law %S: expected exp:RATE, weibull:SHAPE,SCALE, \
              hyper:P,RATE1,RATE2 or const:VALUE"
             s))
    in
    match String.index_opt s ':' with
    | None -> fail ()
    | Some i -> (
        let kind = String.lowercase_ascii (String.sub s 0 i) in
        let args =
          String.split_on_char ',' (String.sub s (i + 1) (String.length s - i - 1))
          |> List.map float_of_string_opt
        in
        let guard make = try Ok (make ()) with Invalid_argument m -> Error (`Msg m) in
        match (kind, args) with
        | "exp", [ Some rate ] -> guard (fun () -> Dist.exponential ~rate)
        | "weibull", [ Some shape; Some scale ] ->
            guard (fun () -> Dist.weibull ~shape ~scale)
        | "hyper", [ Some p; Some rate1; Some rate2 ] ->
            guard (fun () -> Dist.hyperexponential ~p ~rate1 ~rate2)
        | "const", [ Some v ] ->
            if v > 0. && Float.is_finite v then Ok (Dist.constant v)
            else Error (`Msg "const: inter-arrival time must be positive")
        | _ -> fail ())
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Dist.name d))

let failures_t =
  Arg.(value & opt (some failures_conv) None
       & info [ "failures" ] ~docv:"LAW"
           ~doc:"Failure inter-arrival law for renewal simulation: \
                 $(b,exp:RATE), $(b,weibull:SHAPE,SCALE), \
                 $(b,hyper:P,RATE1,RATE2) or $(b,const:VALUE) (seconds). \
                 Failures arrive as a renewal process of this law instead of \
                 memoryless exponential ones.")

(* --replicas POLICY: one validated replication-policy grammar shared by
   solve, simulate, stress, adapt and profile. Nonsense dies as a usage
   error (exit 124), like --failures. *)

let replicas_conv =
  let parse s =
    match Replication.spec_of_string s with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid replication policy %S: expected auto, none, k:N \
                (N >= 1) or budget:F (F > 0)"
               s))
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf (Replication.spec_name s))

let replicas_t =
  Arg.(value & opt replicas_conv Replication.No_replication
       & info [ "replicas" ] ~docv:"POLICY"
           ~doc:"Task replication policy, the second resilience axis next to \
                 checkpointing: $(b,none) (default), $(b,auto) (greedy spend \
                 of 20% of the total weight in extra copies), $(b,k:N) \
                 (duplicate the N heaviest tasks) or $(b,budget:F) (greedy \
                 spend of a fraction F of the total weight).")

let replica_cost_t =
  Arg.(value & opt (nonneg_float "replica cost") Replication.default_cost
       & info [ "replica-cost" ] ~docv:"FRACTION"
           ~doc:"Execution-time surcharge per extra replica, as a fraction \
                 of the task's weight (default 1: each copy is a full \
                 re-execution).")

let family_t =
  Arg.(value & opt family_conv P.Montage & info [ "w"; "workflow" ] ~doc:"Workflow family: Montage, Ligo, CyberShake or Genome.")

let n_t =
  Arg.(value & opt (positive_int "task count") 100
       & info [ "n"; "tasks" ] ~doc:"Number of tasks.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generation seed.")

let mtbf_t =
  Arg.(value & opt (positive_float "MTBF") 1000.
       & info [ "mtbf" ] ~doc:"Platform MTBF in seconds.")

let downtime_t =
  Arg.(value & opt (nonneg_float "downtime") 0.
       & info [ "downtime" ] ~doc:"Downtime after each failure (s).")

let cost_t =
  Arg.(value & opt cost_conv (CM.Proportional 0.1)
       & info [ "c"; "cost" ] ~doc:"Checkpoint cost model: e.g. 0.1w (proportional) or 5s (constant). Recovery cost equals checkpoint cost.")

let lin_t =
  Arg.(value & opt lin_conv Linearize.Depth_first
       & info [ "l"; "linearization" ] ~doc:"Linearization strategy: DF, BF or RF.")

let ckpt_t =
  Arg.(value & opt ckpt_conv Heuristics.Ckpt_weight
       & info [ "s"; "strategy" ] ~doc:"Checkpointing strategy.")

let grid_t =
  Arg.(value & opt int 0
       & info [ "grid" ] ~doc:"Search the checkpoint count on a grid of at most this many values (0 = exhaustive).")

let load_t =
  Arg.(value & opt (some string) None
       & info [ "load" ] ~docv:"FILE"
           ~doc:"Load the workflow from a file instead of generating one. \
                 The format is sniffed from the contents: Pegasus DAX XML, \
                 WfCommons instance JSON or native JSON. Files without \
                 checkpoint costs (DAX, WfCommons) get the $(b,--cost) \
                 model applied; native JSON carries its own costs.")

let workflow ~load family n seed cost =
  match load with
  | Some path -> (
      match Wfc_io.Workflow_io.load path with
      (* raw-runtime formats carry no checkpoint costs: apply --cost *)
      | Ok g -> CM.ensure cost g
      | Error msg ->
          Printf.eprintf "cannot load %s\n" msg;
          exit 1)
  | None -> CM.apply cost (P.generate family ~n ~seed)

let model mtbf downtime = FM.of_mtbf ~mtbf ~downtime ()

let search_of_grid grid =
  if grid <= 0 then Heuristics.Exhaustive else Heuristics.Grid grid

(* ---- observability (--metrics / --trace) ---- *)

module Obs_metrics = Wfc_obs.Metrics
module Obs_trace = Wfc_obs.Trace

let metrics_t =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Record internal counters (engine cache hits, B&B nodes, \
                 simulator replicas, ...) and print them after the command's \
                 normal output.")

let obs_trace_t =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record solver and simulator spans and write them to $(docv) \
                 on exit: Chrome trace-event JSON (load in about://tracing or \
                 Perfetto), or flat JSONL when $(docv) ends in .jsonl.")

(* Zero counters and empty histograms are skipped, so the table only shows
   the machinery the command actually exercised and its rows are stable
   enough to pin in cram tests. *)
let metrics_rows () =
  let s = Obs_metrics.snapshot () in
  List.filter_map
    (fun (name, v) ->
      if v = 0 then None else Some [ name; "counter"; string_of_int v ])
    s.Obs_metrics.counters
  @ List.map
      (fun (name, v) -> [ name; "gauge"; Printf.sprintf "%.4g" v ])
      s.Obs_metrics.gauges
  @ List.filter_map
      (fun (name, h) ->
        if h.Obs_metrics.hcount = 0 then None
        else Some [ name; "histogram"; Obs_metrics.hist_summary h ])
      s.Obs_metrics.histograms

let print_metrics () =
  let table =
    Wfc_reporting.Table.create ~columns:[ "metric"; "kind"; "value" ]
  in
  List.iter (Wfc_reporting.Table.add_row table) (metrics_rows ());
  Wfc_reporting.Table.print table

let write_trace path =
  if Filename.check_suffix path ".jsonl" then Obs_trace.write_jsonl path
  else Obs_trace.write_chrome path;
  Format.printf "trace written to %s (%d events)@." path
    (Obs_trace.event_count ())

let with_obs ~metrics ~trace f =
  Obs_metrics.set_enabled metrics;
  if trace <> None then Obs_trace.set_enabled true;
  let r = f () in
  (match trace with Some path -> write_trace path | None -> ());
  if metrics then begin
    Format.printf "@.-- metrics --@.";
    print_metrics ()
  end;
  r

(* ---- generate ---- *)

let generate family n seed cost dot json dax =
  let g = workflow ~load:None family n seed cost in
  let emitted = ref false in
  (match dot with
  | Some path ->
      Wfc_dag.Dot.write_file path (Wfc_dag.Dot.to_dot ~name:(P.family_name family) g);
      Format.printf "wrote %s@." path;
      emitted := true
  | None -> ());
  (match json with
  | Some path ->
      Wfc_io.Workflow_format.save_dag
        ~name:(Printf.sprintf "%s-%d" (P.family_name family) n)
        path g;
      Format.printf "wrote %s@." path;
      emitted := true
  | None -> ());
  (match dax with
  | Some path ->
      Wfc_io.Dax.save ~name:(P.family_name family) path g;
      Format.printf "wrote %s@." path;
      emitted := true
  | None -> ());
  if not !emitted then begin
    Format.printf "%a@." Wfc_dag.Dag.pp_stats g;
    Format.printf "sources: %d, sinks: %d, critical path: %.1f s@."
      (List.length (Wfc_dag.Dag.sources g))
      (List.length (Wfc_dag.Dag.sinks g))
      (Wfc_dag.Dag.critical_path g)
  end

let generate_cmd =
  let dot_t =
    Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"Write the DAG in DOT format to $(docv)." ~docv:"FILE")
  in
  let json_t =
    Arg.(value & opt (some string) None & info [ "json" ] ~doc:"Write the workflow as JSON to $(docv) (reloadable with --load)." ~docv:"FILE")
  in
  let dax_t =
    Arg.(value & opt (some string) None & info [ "dax" ] ~doc:"Write the workflow as a Pegasus DAX file to $(docv)." ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic Pegasus workflow")
    Term.(const generate $ family_t $ n_t $ seed_t $ cost_t $ dot_t $ json_t
          $ dax_t)

(* ---- evaluate ---- *)

let source_name ~load family =
  match load with Some path -> path | None -> P.family_name family

let evaluate family n seed cost mtbf downtime lin ckpt grid load save
    metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let g = workflow ~load family n seed cost in
  let model = model mtbf downtime in
  let o =
    Heuristics.run ~search:(search_of_grid grid) model g ~lin ~ckpt
  in
  (match save with
  | Some path ->
      Wfc_io.Workflow_format.save_schedule path o.Heuristics.schedule;
      Format.printf "schedule written to %s@." path
  | None -> ());
  let tinf = Wfc_dag.Dag.total_weight g in
  Format.printf "%s on %s (%d tasks), %a@."
    (Heuristics.name lin ckpt) (source_name ~load family)
    (Wfc_dag.Dag.n_tasks g) FM.pp model;
  Format.printf "  E[makespan] = %.2f s@." o.Heuristics.makespan;
  Format.printf "  T_inf       = %.2f s (ratio %.4f)@." tinf
    (o.Heuristics.makespan /. tinf);
  Format.printf "  checkpoints = %d (evaluator calls: %d)@."
    (Schedule.checkpoint_count o.Heuristics.schedule)
    o.Heuristics.evaluations

let evaluate_cmd =
  let save_t =
    Arg.(value & opt (some string) None
         & info [ "save-schedule" ] ~docv:"FILE"
             ~doc:"Write the chosen schedule (order + checkpoint set) as \
                   JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Expected makespan of one heuristic schedule")
    Term.(const evaluate $ family_t $ n_t $ seed_t $ cost_t $ mtbf_t
          $ downtime_t $ lin_t $ ckpt_t $ grid_t $ load_t $ save_t
          $ metrics_t $ obs_trace_t)

(* ---- schedule (compare heuristics) ---- *)

let schedule family n seed cost mtbf downtime grid load extended
    metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let g = workflow ~load family n seed cost in
  let model = model mtbf downtime in
  let tinf = Wfc_dag.Dag.total_weight g in
  Format.printf "%s, %d tasks, %s, %a@.@." (source_name ~load family)
    (Wfc_dag.Dag.n_tasks g) (CM.name cost) FM.pp model;
  let table =
    Wfc_reporting.Table.create
      ~columns:[ "heuristic"; "E[makespan]"; "ratio"; "checkpoints" ]
  in
  let strategies =
    if extended then Heuristics.extended_ckpt_strategies
    else Heuristics.all_ckpt_strategies
  in
  let linearizations = if extended then Linearize.extended else Linearize.all in
  List.iter
    (fun ckpt ->
      let lins =
        match ckpt with
        | Heuristics.Ckpt_never | Heuristics.Ckpt_always ->
            [ Linearize.Depth_first ]
        | _ -> linearizations
      in
      List.iter
        (fun lin ->
          let o =
            Heuristics.run ~search:(search_of_grid grid) model g ~lin ~ckpt
          in
          Wfc_reporting.Table.add_row table
            [
              Heuristics.name lin ckpt;
              Printf.sprintf "%.1f" o.Heuristics.makespan;
              Printf.sprintf "%.4f" (o.Heuristics.makespan /. tinf);
              string_of_int (Schedule.checkpoint_count o.Heuristics.schedule);
            ])
        lins)
    strategies;
  Wfc_reporting.Table.print table

let schedule_cmd =
  let extended_t =
    Arg.(value & flag
         & info [ "extended" ]
             ~doc:"Also run the extension strategies (DF-BL linearization, \
                   CkptE checkpointing).")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Compare all 14 heuristics on one workflow")
    Term.(const schedule $ family_t $ n_t $ seed_t $ cost_t $ mtbf_t
          $ downtime_t $ grid_t $ load_t $ extended_t $ metrics_t
          $ obs_trace_t)

(* ---- simulate ---- *)

let simulate family n seed cost mtbf downtime lin ckpt grid runs load
    replicas replica_cost failures_opt weibull_shape overlap events metrics
    trace =
  with_obs ~metrics ~trace @@ fun () ->
  if replicas <> Replication.No_replication && overlap <> None then begin
    Printf.eprintf
      "wfc simulate: --replicas cannot be combined with --overlap \
       (non-blocking checkpoints are single-copy)\n";
    exit 124
  end;
  let g = workflow ~load family n seed cost in
  let model = model mtbf downtime in
  let o =
    Heuristics.run ~search:(search_of_grid grid) model g ~lin ~ckpt
  in
  (match events with
  | Some limit ->
      let _, events =
        Wfc_simulator.Sim_trace.run ~rng:(Wfc_platform.Rng.create seed) model g
          o.Heuristics.schedule
      in
      Format.printf "-- trace of one run (%d of %d events) --@."
        (Int.min limit (List.length events))
        (List.length events);
      List.iteri
        (fun i e ->
          if i < limit then
            Format.printf "%a@." Wfc_simulator.Sim_trace.pp_event e)
        events;
      if Wfc_dag.Dag.n_tasks g <= 40 then
        Format.printf "%s" (Wfc_simulator.Sim_trace.render_timeline events)
  | None -> ());
  let o = Heuristics.replicate ~cost:replica_cost replicas model g o in
  (* --failures names the renewal law directly and wins over the
     --weibull-shape shorthand; with neither, failures are memoryless
     exponential at the model's rate *)
  let failures =
    match (failures_opt, weibull_shape) with
    | Some d, _ -> d
    | None, Some shape -> Dist.weibull_of_mean ~shape ~mean:mtbf
    | None, None -> Dist.exponential ~rate:model.FM.lambda
  in
  let renewal = failures_opt <> None || weibull_shape <> None in
  let est =
    match overlap with
    | Some interference ->
        Wfc_simulator.Monte_carlo.estimate_overlap ~runs ~seed
          { Wfc_simulator.Sim_overlap.interference; failures; downtime }
          g o.Heuristics.schedule
    | None ->
        if renewal then
          Wfc_simulator.Monte_carlo.estimate_renewal ~replica_cost ~runs ~seed
            ~failures ~downtime g o.Heuristics.schedule
        else
          Wfc_simulator.Monte_carlo.estimate ~replica_cost ~runs ~seed model g
            o.Heuristics.schedule
  in
  let module Stats = Wfc_platform.Stats in
  let mc = est.Wfc_simulator.Monte_carlo.makespan in
  let lo, hi = Stats.confidence95 mc in
  Format.printf "%s on %s (%d tasks), %a, failures %s%s@."
    (Heuristics.name lin ckpt) (source_name ~load family) (Wfc_dag.Dag.n_tasks g)
    FM.pp model
    (Wfc_platform.Distribution.name failures)
    (match overlap with
    | Some s -> Printf.sprintf ", non-blocking checkpoints (interference %g)" s
    | None -> "");
  Format.printf "  analytic E[makespan] : %.2f s (exponential, blocking model)@."
    o.Heuristics.makespan;
  if Schedule.is_replicated o.Heuristics.schedule then
    Format.printf "  replication          : %s (%d extra copies, %g weight each)@."
      (Replication.spec_name replicas)
      (Schedule.extra_replicas o.Heuristics.schedule)
      replica_cost;
  Format.printf "  simulated mean       : %.2f s  (95%% CI [%.2f, %.2f], %d runs)@."
    (Stats.mean mc) lo hi runs;
  Format.printf "  failures per run     : %.2f (max %.0f)@."
    (Stats.mean est.Wfc_simulator.Monte_carlo.failures)
    (Stats.max_value est.Wfc_simulator.Monte_carlo.failures);
  Format.printf "  wasted time per run  : %.2f s@."
    (Stats.mean est.Wfc_simulator.Monte_carlo.wasted)

let simulate_cmd =
  let runs_t =
    Arg.(value & opt (positive_int "run count") 10_000
         & info [ "runs" ] ~doc:"Number of Monte Carlo runs.")
  in
  let weibull_t =
    Arg.(value & opt (some float) None
         & info [ "weibull-shape" ]
             ~doc:"Inject Weibull failures of this shape (renewal process at \
                   the same MTBF) instead of exponential ones.")
  in
  let overlap_t =
    Arg.(value & opt (some float) None
         & info [ "overlap" ] ~docv:"INTERFERENCE"
             ~doc:"Simulate non-blocking checkpoints: writes proceed in the \
                   background while computation slows down by $(docv) in \
                   [0,1].")
  in
  let events_t =
    Arg.(value & opt (some int) None
         & info [ "events" ] ~docv:"EVENTS"
             ~doc:"Print the first $(docv) events of one traced run before \
                   the Monte Carlo summary.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte Carlo fault injection vs the analytic evaluator")
    Term.(const simulate $ family_t $ n_t $ seed_t $ cost_t $ mtbf_t
          $ downtime_t $ lin_t $ ckpt_t $ grid_t $ runs_t $ load_t
          $ replicas_t $ replica_cost_t $ failures_t $ weibull_t $ overlap_t
          $ events_t $ metrics_t $ obs_trace_t)

(* ---- stress (misspecification campaign) ---- *)

let stress family n seed cost mtbf downtime grid load replicas
    replica_cost runs domains csv exact_budget deadline failures_opt p_ckpt
    p_rec max_failures metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let module Stress = Wfc_resilience.Stress in
  let module Driver = Wfc_resilience.Solver_driver in
  let g = workflow ~load family n seed cost in
  let nominal = model mtbf downtime in
  let scenarios =
    Stress.default_grid nominal
    @ (match failures_opt with
      | Some d ->
          [
            {
              Stress.name = Printf.sprintf "custom(%s)" (Dist.name d);
              params =
                {
                  (Wfc_simulator.Sim_faults.nominal nominal) with
                  Wfc_simulator.Sim_faults.failures = d;
                };
            };
          ]
      | None -> [])
    @
    if p_ckpt > 0. || p_rec > 0. then
      [
        {
          Stress.name = Printf.sprintf "custom(pc=%g,pr=%g)" p_ckpt p_rec;
          params =
            {
              (Wfc_simulator.Sim_faults.nominal nominal) with
              Wfc_simulator.Sim_faults.p_ckpt_fail = p_ckpt;
              p_rec_fail = p_rec;
            };
        };
      ]
    else []
  in
  let heuristics =
    List.map
      (fun ckpt -> (Linearize.Depth_first, ckpt))
      [
        Heuristics.Ckpt_never; Heuristics.Ckpt_always; Heuristics.Ckpt_weight;
        Heuristics.Ckpt_cost; Heuristics.Ckpt_outweight; Heuristics.Ckpt_periodic;
      ]
  in
  let ranked =
    Stress.rank ~runs ?domains ~max_failures ~search:(search_of_grid grid)
      ~replication:replicas ~replica_cost ~seed ~nominal ~scenarios g
      heuristics
  in
  let rows =
    List.map
      (fun r ->
        ( r.Stress.heuristic,
          r.Stress.outcome.Heuristics.makespan,
          r.Stress.report ))
      ranked
  in
  (* optional graceful-degradation driver entry, stress-tested like the rest *)
  let driver_result =
    if exact_budget <= 0 then None
    else begin
      let order = Linearize.run Linearize.Depth_first g in
      let config =
        {
          Driver.default_config with
          Driver.max_nodes = exact_budget;
          deadline;
          search = search_of_grid grid;
        }
      in
      let d = Driver.solve ~config nominal g ~order in
      let report =
        Stress.evaluate ~runs ?domains ~max_failures ~seed ~nominal ~scenarios
          g d.Driver.schedule
      in
      Some (d, ("DF-exact[" ^ Driver.tier_name d.Driver.tier ^ "]", d.Driver.makespan, report))
    end
  in
  let rows =
    match driver_result with None -> rows | Some (_, row) -> rows @ [ row ]
  in
  let rows =
    List.stable_sort
      (fun (_, m1, r1) (_, m2, r2) ->
        match Float.compare r1.Stress.robustness r2.Stress.robustness with
        | 0 -> Float.compare m1 m2
        | c -> c)
      rows
  in
  Format.printf
    "stress campaign: %s (%d tasks), nominal %a@.%d scenarios x %d schedules, \
     %d runs each, seed %d@.@."
    (source_name ~load family) (Wfc_dag.Dag.n_tasks g) FM.pp nominal
    (List.length scenarios) (List.length rows) runs seed;
  (match driver_result with
  | Some (d, _) ->
      Format.printf "exact driver: tier %s, E[makespan] %.2f s (%s)@.@."
        (Driver.tier_name d.Driver.tier) d.Driver.makespan d.Driver.reason
  | None -> ());
  let ranking =
    Wfc_reporting.Table.create
      ~columns:
        [
          "rank"; "schedule"; "E[T] nominal"; "worst mean x"; "worst p99 x";
          "divergent";
        ]
  in
  List.iteri
    (fun i (name, nominal_m, report) ->
      let worst_mean =
        List.fold_left
          (fun acc r -> Float.max acc r.Stress.mean_degradation)
          0. report.Stress.results
      in
      let divergent =
        List.fold_left
          (fun acc r -> acc + r.Stress.divergent)
          0 report.Stress.results
      in
      Wfc_reporting.Table.add_row ranking
        [
          string_of_int (i + 1);
          name;
          Printf.sprintf "%.1f" nominal_m;
          Printf.sprintf "%.3f" worst_mean;
          (* divergent runs truncate makespans, so the tail ratio is a
             meaningless lower bound: flag it instead of printing it *)
          (if Float.is_finite report.Stress.robustness then
             Printf.sprintf "%.3f" report.Stress.robustness
           else "(divergent)");
          string_of_int divergent;
        ])
    rows;
  Wfc_reporting.Table.print ranking;
  (match rows with
  | (best, _, report) :: _ ->
      Format.printf "@.per-scenario tail behavior of %s:@.@." best;
      let detail =
        Wfc_reporting.Table.create
          ~columns:
            [ "scenario"; "mean"; "p95"; "p99"; "mean x"; "p99 x"; "divergent" ]
      in
      List.iter
        (fun r ->
          Wfc_reporting.Table.add_row detail
            [
              r.Stress.scenario.Stress.name;
              Printf.sprintf "%.1f" r.Stress.mean;
              Printf.sprintf "%.1f" r.Stress.p95;
              Printf.sprintf "%.1f" r.Stress.p99;
              Printf.sprintf "%.3f" r.Stress.mean_degradation;
              Printf.sprintf "%.3f" r.Stress.tail_degradation;
              string_of_int r.Stress.divergent;
            ])
        report.Stress.results;
      Wfc_reporting.Table.print detail
  | [] -> ());
  match csv with
  | None -> ()
  | Some path ->
      let csv_rows =
        List.concat_map
          (fun (name, nominal_m, report) ->
            List.map
              (fun r ->
                [
                  name;
                  r.Stress.scenario.Stress.name;
                  Printf.sprintf "%.6g" nominal_m;
                  Printf.sprintf "%.6g" r.Stress.mean;
                  Printf.sprintf "%.6g" r.Stress.p95;
                  Printf.sprintf "%.6g" r.Stress.p99;
                  Printf.sprintf "%.6g" r.Stress.mean_degradation;
                  Printf.sprintf "%.6g" r.Stress.tail_degradation;
                ])
              report.Stress.results)
          rows
      in
      Wfc_reporting.Csv.write_file path
        ~header:
          [
            "schedule"; "scenario"; "nominal_makespan"; "mean"; "p95"; "p99";
            "mean_degradation"; "p99_degradation";
          ]
        ~rows:csv_rows;
      Format.printf "@.wrote %s@." path

let stress_cmd =
  let runs_t =
    Arg.(value & opt (positive_int "run count") 2000
         & info [ "runs" ] ~doc:"Monte Carlo runs per scenario.")
  in
  let domains_t =
    Arg.(value & opt (some (positive_int "domain count")) None
         & info [ "domains" ]
             ~doc:"Parallelize each scenario over this many domains (results \
                   are bit-identical whatever the value).")
  in
  let csv_t =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Also dump every (schedule, scenario) row as CSV to $(docv).")
  in
  let exact_budget_t =
    Arg.(value & opt int 0
         & info [ "exact-budget" ] ~docv:"NODES"
             ~doc:"Also run the graceful-degradation exact driver with this \
                   branch-and-bound node budget (0 = skip).")
  in
  let deadline_t =
    deadline_arg ~doc:"Wall-clock deadline for the exact driver's search."
  in
  let p_ckpt_t =
    Arg.(value & opt (probability "checkpoint corruption probability") 0.
         & info [ "p-ckpt-fail" ]
             ~doc:"Add a custom scenario where checkpoints silently corrupt \
                   with this probability.")
  in
  let p_rec_t =
    Arg.(value & opt (probability "recovery failure probability") 0.
         & info [ "p-rec-fail" ]
             ~doc:"Add a custom scenario where recovery reads fail \
                   transiently with this probability.")
  in
  let max_failures_t =
    Arg.(value & opt (positive_int "failure cap") 10_000
         & info [ "max-failures" ]
             ~doc:"Per-run failure cap: runs injecting this many failures \
                   stop early and count as divergent, which disqualifies \
                   the schedule's robustness score. Raise it for heavy \
                   workflows whose runs legitimately survive thousands of \
                   failures.")
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"Misspecification campaign: rank schedules by tail behavior under \
             perturbed platforms")
    Term.(const stress $ family_t $ n_t $ seed_t $ cost_t $ mtbf_t $ downtime_t
          $ grid_t $ load_t $ replicas_t $ replica_cost_t $ runs_t
          $ domains_t $ csv_t $ exact_budget_t $ deadline_t $ failures_t
          $ p_ckpt_t $ p_rec_t $ max_failures_t $ metrics_t $ obs_trace_t)

(* ---- solve (special structures) ---- *)

let solve kind n seed mtbf downtime replicas replica_cost metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let model = model mtbf downtime in
  let rng = Wfc_platform.Rng.create seed in
  let rand b = Wfc_platform.Rng.float rng b in
  if replicas <> Replication.No_replication && kind <> "chain" then
    Format.printf "(--replicas applies to the chain structure only; ignored)@.";
  match kind with
  | "chain" ->
      let weights = Array.init n (fun _ -> 10. +. rand 90.) in
      let g =
        Wfc_dag.Builders.chain ~weights
          ~checkpoint_cost:(fun _ w -> 0.1 *. w)
          ~recovery_cost:(fun _ w -> 0.1 *. w)
          ()
      in
      let sol = Chain_solver.solve model g in
      Format.printf "random chain of %d tasks: optimal E[makespan] = %.2f s@." n
        sol.Chain_solver.makespan;
      Format.printf "checkpointed tasks: %s@."
        (String.concat " "
           (List.filteri (fun i _ -> sol.Chain_solver.checkpointed.(i))
              (List.init n string_of_int)
           |> List.map (fun s -> "T" ^ s)));
      (match replicas with
      | Replication.No_replication -> ()
      | spec ->
          (* replication on top of the optimal checkpoint placement: the
             chain keeps its order, the policy spends extra copies *)
          let sched =
            Schedule.make g ~order:(Array.init n Fun.id)
              ~checkpointed:sol.Chain_solver.checkpointed
          in
          let reps, m =
            Heuristics.replication_counts ~cost:replica_cost spec model g
              ~sched
          in
          Format.printf
            "with replication %s: E[makespan] = %.2f s (%d extra copies)@."
            (Replication.spec_name spec) m
            (Schedule.extra_replicas (Schedule.with_replicas sched reps)))
  | "fork" ->
      let g =
        Wfc_dag.Builders.fork ~source_weight:(50. +. rand 50.)
          ~sink_weights:(Array.init (n - 1) (fun _ -> 10. +. rand 40.))
          ~checkpoint_cost:(fun _ w -> 0.1 *. w)
          ~recovery_cost:(fun _ w -> 0.1 *. w)
          ()
      in
      let sol = Fork_solver.solve model g in
      Format.printf
        "random fork (1 + %d tasks): checkpoint source? %b@.  with ckpt %.2f s, without %.2f s@."
        (n - 1) sol.Fork_solver.checkpoint_source
        sol.Fork_solver.makespan_if_checkpointed sol.Fork_solver.makespan_if_not
  | "join" ->
      let k = Int.min (n - 1) 16 in
      let g =
        Wfc_dag.Builders.join
          ~source_weights:(Array.init k (fun _ -> 10. +. rand 40.))
          ~sink_weight:(5. +. rand 10.)
          ~checkpoint_cost:(fun _ w -> 0.1 *. w)
          ~recovery_cost:(fun _ w -> 0.1 *. w)
          ()
      in
      let sol = Join_solver.solve_exact model g in
      let chosen =
        List.filteri (fun i _ -> sol.Join_solver.ckpt.(i)) (List.init k Fun.id)
        |> List.map (fun i -> "T" ^ string_of_int i)
      in
      Format.printf
        "random join (%d + 1 tasks): optimal E[makespan] = %.2f s@.checkpointed sources: %s@."
        k sol.Join_solver.makespan
        (if chosen = [] then "(none)" else String.concat " " chosen)
  | other ->
      (* unreachable: the converter only lets the three structures through *)
      invalid_arg ("Wfc.solve: " ^ other)

let solve_cmd =
  let structure_conv =
    let parse s =
      match String.lowercase_ascii s with
      | ("chain" | "fork" | "join") as k -> Ok k
      | _ ->
          Error
            (`Msg (Printf.sprintf "unknown structure %S (chain, fork or join)" s))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let kind_t =
    Arg.(value & pos 0 structure_conv "chain"
         & info [] ~docv:"STRUCTURE" ~doc:"chain, fork or join.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Optimal solvers on special structures")
    Term.(const solve $ kind_t $ n_t $ seed_t $ mtbf_t $ downtime_t
          $ replicas_t $ replica_cost_t $ metrics_t $ obs_trace_t)

(* ---- adapt (risk-aware adaptive-vs-static selection) ---- *)

module Robust = Wfc_resilience.Robust
module SA = Wfc_simulator.Sim_adaptive
module Trace_io = Wfc_simulator.Trace_io

let trigger_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "invalid trigger %S: expected every, k:N (N >= 1) or drift:F \
              (F > 1)"
             s))
    in
    match String.lowercase_ascii s with
    | "every" -> Ok SA.Every_failure
    | s -> (
        match String.index_opt s ':' with
        | None -> fail ()
        | Some i -> (
            let tail = String.sub s (i + 1) (String.length s - i - 1) in
            match String.sub s 0 i with
            | "k" -> (
                match int_of_string_opt tail with
                | Some k when k >= 1 -> Ok (SA.Every_k k)
                | _ -> fail ())
            | "drift" -> (
                match float_of_string_opt tail with
                | Some f when f > 1. && Float.is_finite f -> Ok (SA.On_drift f)
                | _ -> fail ())
            | _ -> fail ()))
  in
  let print ppf = function
    | SA.Every_failure -> Format.pp_print_string ppf "every"
    | SA.Every_k k -> Format.fprintf ppf "k:%d" k
    | SA.On_drift f -> Format.fprintf ppf "drift:%g" f
  in
  Arg.conv (parse, print)

let criterion_conv =
  let parse s =
    match Robust.criterion_of_string s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown criterion %S: expected mean, worst, cvar or cvar:Q \
                with Q in [0, 1]"
               s))
  in
  Arg.conv
    (parse, fun ppf c -> Format.pp_print_string ppf (Robust.criterion_name c))

let adapt family n seed cost mtbf downtime lin ckpt grid load replicas
    replica_cost true_mtbf failures_opt trigger budget traces criterion
    relinearize csv metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let module Driver = Wfc_resilience.Solver_driver in
  let g = workflow ~load family n seed cost in
  let planning = model mtbf downtime in
  let o =
    Heuristics.run ~search:(search_of_grid grid) planning g ~lin ~ckpt
  in
  let true_mtbf = Option.value true_mtbf ~default:mtbf in
  let truth = FM.of_mtbf ~mtbf:true_mtbf ~downtime () in
  let scenarios =
    match failures_opt with
    | Some d ->
        [ { Robust.name = Dist.name d; failures = d;
            downtime = Dist.constant downtime } ]
    | None -> Robust.default_scenarios truth
  in
  let replanner =
    Driver.replanner ~budget
      ?relinearize:(if relinearize then Some lin else None) g
  in
  let config =
    { (SA.default_config planning) with SA.trigger; replan = Some replanner }
  in
  let static_name = Heuristics.name lin ckpt in
  let candidates =
    [
      Robust.static ~name:static_name g o.Heuristics.schedule;
      Robust.adaptive ~name:"adaptive" config g o.Heuristics.schedule;
    ]
    @
    (* the checkpoint-vs-replica trade-off: score a mixed (checkpoints +
       replicas) and a replica-only policy on the same primary failure
       stream as the checkpoint-only candidates *)
    match replicas with
    | Replication.No_replication -> []
    | spec ->
        let tag = Replication.spec_name spec in
        let mixed =
          (Heuristics.replicate ~cost:replica_cost spec planning g o)
            .Heuristics.schedule
        in
        let bare =
          Schedule.with_checkpoints o.Heuristics.schedule
            (Array.make (Wfc_dag.Dag.n_tasks g) false)
        in
        let replica_only =
          Schedule.with_replicas bare
            (fst
               (Heuristics.replication_counts ~cost:replica_cost spec planning
                  g ~sched:bare))
        in
        (if Schedule.is_replicated mixed then
           [
             Robust.static ~replica_cost
               ~name:(static_name ^ "+" ^ tag)
               g mixed;
           ]
         else [])
        @
        if Schedule.is_replicated replica_only then
          [
            Robust.static ~replica_cost
              ~name:("replica-only " ^ tag)
              g replica_only;
          ]
        else []
  in
  let r =
    Robust.evaluate ~traces_per_scenario:traces ~seed ~criterion ~scenarios
      candidates
  in
  Format.printf
    "adaptive selection: %s (%d tasks), planning %a, true MTBF %g s@.criterion \
     %s, %d scenarios x %d traces, seed %d@.@."
    (source_name ~load family) (Wfc_dag.Dag.n_tasks g) FM.pp planning true_mtbf
    (Robust.criterion_name criterion)
    (List.length scenarios) traces seed;
  let summary =
    Wfc_reporting.Table.create
      ~columns:
        [ "policy"; "mean"; Printf.sprintf "cvar@%g" r.Robust.alpha; "worst";
          "max regret" ]
  in
  List.iter
    (fun s ->
      Wfc_reporting.Table.add_row summary
        [
          s.Robust.candidate;
          Printf.sprintf "%.1f" s.Robust.mean;
          Printf.sprintf "%.1f" s.Robust.cvar;
          Printf.sprintf "%.1f" s.Robust.worst;
          Printf.sprintf "%.1f" s.Robust.max_regret;
        ])
    r.Robust.scores;
  Wfc_reporting.Table.print summary;
  Format.printf "@.per-scenario mean makespan and regret:@.@.";
  let detail =
    Wfc_reporting.Table.create
      ~columns:[ "policy"; "scenario"; "mean"; "regret" ]
  in
  List.iter
    (fun s ->
      List.iter2
        (fun (scenario, mean) (_, regret) ->
          Wfc_reporting.Table.add_row detail
            [
              s.Robust.candidate; scenario;
              Printf.sprintf "%.1f" mean;
              Printf.sprintf "%.1f" regret;
            ])
        s.Robust.per_scenario s.Robust.regret)
    r.Robust.scores;
  Wfc_reporting.Table.print detail;
  Format.printf "@.selected: %s by %s@." r.Robust.winner.Robust.candidate
    (Robust.criterion_name criterion);
  match csv with
  | None -> ()
  | Some path ->
      let rows =
        List.concat_map
          (fun s ->
            List.map2
              (fun (scenario, mean) (_, regret) ->
                [
                  s.Robust.candidate; scenario;
                  Printf.sprintf "%.6g" mean;
                  Printf.sprintf "%.6g" regret;
                  Printf.sprintf "%.6g" s.Robust.mean;
                  Printf.sprintf "%.6g" s.Robust.cvar;
                  Printf.sprintf "%.6g" s.Robust.worst;
                ])
              s.Robust.per_scenario s.Robust.regret)
          r.Robust.scores
      in
      Wfc_reporting.Csv.write_file path
        ~header:
          [
            "policy"; "scenario"; "scenario_mean"; "regret"; "pooled_mean";
            "pooled_cvar"; "pooled_worst";
          ]
        ~rows;
      Format.printf "@.wrote %s@." path

let adapt_cmd =
  let true_mtbf_t =
    Arg.(value & opt (some (positive_float "true MTBF")) None
         & info [ "true-mtbf" ] ~docv:"SECONDS"
             ~doc:"The platform's actual MTBF, when the planning $(b,--mtbf) \
                   is misspecified (default: equal to $(b,--mtbf)).")
  in
  let trigger_t =
    Arg.(value & opt trigger_conv SA.Every_failure
         & info [ "trigger" ] ~docv:"TRIGGER"
             ~doc:"When the adaptive policy replans: $(b,every) failure, \
                   $(b,k:N) (every N-th failure) or $(b,drift:F) (estimated \
                   rate drifted by factor F from the planned one).")
  in
  let budget_t =
    Arg.(value & opt (positive_int "replan budget") 256
         & info [ "replan-budget" ]
             ~doc:"Candidate evaluations each replan may spend.")
  in
  let traces_t =
    Arg.(value & opt (positive_int "trace count") 50
         & info [ "traces" ] ~doc:"Seeded failure traces per scenario.")
  in
  let criterion_t =
    Arg.(value & opt criterion_conv (Robust.CVaR 0.95)
         & info [ "criterion" ] ~docv:"CRITERION"
             ~doc:"Selection criterion: $(b,mean), $(b,worst), $(b,cvar) \
                   (alpha 0.95) or $(b,cvar:Q).")
  in
  let relinearize_t =
    Arg.(value & flag
         & info [ "relinearize" ]
             ~doc:"Let each replan also reorder the remaining tasks with the \
                   $(b,--linearization) strategy, keeping the better suffix.")
  in
  let csv_t =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Also dump every (policy, scenario) row as CSV to $(docv).")
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:"Score static vs adaptive execution on shared failure traces and \
             pick by risk-aware criterion")
    Term.(const adapt $ family_t $ n_t $ seed_t $ cost_t $ mtbf_t $ downtime_t
          $ lin_t $ ckpt_t $ grid_t $ load_t $ replicas_t
          $ replica_cost_t $ true_mtbf_t $ failures_t $ trigger_t $ budget_t
          $ traces_t $ criterion_t $ relinearize_t $ csv_t
          $ metrics_t $ obs_trace_t)

(* ---- replay (record / replay failure traces) ---- *)

let kind_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "attempts" -> Ok `Attempts
    | "renewal" -> Ok `Renewal
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "unknown trace kind %S (attempts or renewal)" s))
  in
  let print ppf k =
    Format.pp_print_string ppf
      (match k with `Attempts -> "attempts" | `Renewal -> "renewal")
  in
  Arg.conv (parse, print)

let replay family n seed cost mtbf downtime lin ckpt grid load
    failures_opt record input kind metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let module Sim = Wfc_simulator.Sim in
  let g = workflow ~load family n seed cost in
  let m = model mtbf downtime in
  let o =
    Heuristics.run ~search:(search_of_grid grid) m g ~lin ~ckpt
  in
  let sched = o.Heuristics.schedule in
  let describe verb t =
    Format.printf "%s %s trace: %d events, %d failures@." verb
      (Trace_io.kind_name t) (Trace_io.n_events t) (Trace_io.n_failures t)
  in
  let summary (run : Sim.run) =
    Format.printf "  makespan %.2f s, %d failures, %.2f s wasted@."
      run.Sim.makespan run.Sim.failures run.Sim.wasted
  in
  match (record, input) with
  | Some _, Some _ | None, None ->
      Printf.eprintf
        "wfc replay: exactly one of --record or --input is required\n";
      exit 124
  | Some path, None ->
      let rng = Wfc_platform.Rng.create seed in
      let run, t =
        match kind with
        | `Renewal ->
            let failures =
              Option.value failures_opt
                ~default:(Dist.exponential ~rate:m.FM.lambda)
            in
            Trace_io.record_renewal ~rng ~failures
              ~downtime:(Dist.constant downtime) g sched
        | `Attempts -> (
            match failures_opt with
            | None -> Trace_io.record_run ~rng m g sched
            | Some failures ->
                let rec_ = Trace_io.recorder () in
                let source =
                  Trace_io.recording_source rec_
                    (Sim.renewal_source ~rng ~failures
                       ~downtime:(Dist.constant downtime))
                in
                (Sim.run_with_source source g sched, Trace_io.recorded rec_))
      in
      Trace_io.save path t;
      describe "recorded" t;
      summary run;
      Format.printf "wrote %s@." path
  | None, Some path -> (
      match Trace_io.load path with
      | Error msg ->
          Printf.eprintf "cannot load %s: %s\n" path msg;
          exit 1
      | Ok t -> (
          describe "loaded" t;
          match Trace_io.replay t g sched with
          | run -> summary run
          | exception Trace_io.Divergence msg ->
              Printf.eprintf
                "replay diverged (schedule differs from the recorded one): %s\n"
                msg;
              exit 1))

let replay_cmd =
  let record_t =
    Arg.(value & opt (some string) None
         & info [ "record" ] ~docv:"FILE"
             ~doc:"Execute once and write the failure trace to $(docv) \
                   (JSONL, bit-exact hex floats).")
  in
  let input_t =
    Arg.(value & opt (some string) None
         & info [ "input" ] ~docv:"FILE"
             ~doc:"Replay the trace in $(docv) against the schedule instead \
                   of drawing fresh failures.")
  in
  let kind_t =
    Arg.(value & opt kind_conv `Renewal
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Trace kind to record: $(b,renewal) (raw uptime/downtime \
                   draws, replayable under any policy) or $(b,attempts) \
                   (per-attempt draws, bit-exact for the same schedule).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Record a failure trace to disk, or replay one deterministically")
    Term.(const replay $ family_t $ n_t $ seed_t $ cost_t $ mtbf_t $ downtime_t
          $ lin_t $ ckpt_t $ grid_t $ load_t $ failures_t
          $ record_t $ input_t $ kind_t $ metrics_t $ obs_trace_t)

(* ---- profile (instrumented end-to-end workload) ---- *)

let profile family n seed cost mtbf downtime grid bnb_domains runs
    budget replicas replica_cost csv trace =
  let module Driver = Wfc_resilience.Solver_driver in
  let g = workflow ~load:None family n seed cost in
  let model = model mtbf downtime in
  Obs_metrics.set_enabled true;
  if trace <> None then Obs_trace.set_enabled true;
  let search = search_of_grid grid in
  (* stage 1: heuristic sweep, every checkpoint strategy on the DF order *)
  List.iter
    (fun ckpt ->
      ignore
        (Heuristics.run ~search model g ~lin:Linearize.Depth_first ~ckpt))
    Heuristics.all_ckpt_strategies;
  (* stage 2: exact tier (branch and bound), degrading gracefully when the
     node budget runs out *)
  let order = Linearize.run Linearize.Depth_first g in
  let config =
    { Driver.default_config with
      Driver.max_nodes = budget; search; bnb_domains }
  in
  let d = Driver.solve ~config model g ~order in
  (* stage 3: refine the winner, then fault-inject it *)
  let ls =
    Local_search.improve ~max_evaluations:500 model g d.Driver.schedule
  in
  let est =
    Wfc_simulator.Monte_carlo.estimate ~runs ~seed model g
      ls.Local_search.schedule
  in
  (* stage 4 (optional): replication policy on the refined schedule,
     fault-injected so the replica counters show up in the metric table *)
  let replicated =
    match replicas with
    | Replication.No_replication -> None
    | spec ->
        let reps, m =
          Heuristics.replication_counts ~cost:replica_cost spec model g
            ~sched:ls.Local_search.schedule
        in
        let rsched = Schedule.with_replicas ls.Local_search.schedule reps in
        let est_r =
          Wfc_simulator.Monte_carlo.estimate ~replica_cost ~runs ~seed model g
            rsched
        in
        Some (spec, rsched, m, est_r)
  in
  Format.printf "profile: %s (%d tasks), %a@." (P.family_name family)
    (Wfc_dag.Dag.n_tasks g) FM.pp model;
  Format.printf "  driver tier %s (%s)@."
    (Driver.tier_name d.Driver.tier) d.Driver.reason;
  Format.printf "  E[makespan] %.2f s, simulated mean %.2f s (%d runs)@."
    ls.Local_search.makespan
    (Wfc_platform.Stats.mean est.Wfc_simulator.Monte_carlo.makespan)
    runs;
  (match replicated with
  | None -> ()
  | Some (spec, rsched, m, est_r) ->
      Format.printf
        "  replication %s: E[makespan] %.2f s, simulated mean %.2f s (%d \
         extra copies)@."
        (Replication.spec_name spec) m
        (Wfc_platform.Stats.mean est_r.Wfc_simulator.Monte_carlo.makespan)
        (Schedule.extra_replicas rsched));
  Format.printf "@.";
  (match csv with
  | Some path ->
      Wfc_reporting.Csv.write_file path ~header:[ "metric"; "kind"; "value" ]
        ~rows:(metrics_rows ());
      Format.printf "wrote %s@." path
  | None -> print_metrics ());
  match trace with Some path -> write_trace path | None -> ()

let profile_cmd =
  let runs_t =
    Arg.(value & opt (positive_int "run count") 1000
         & info [ "runs" ] ~doc:"Monte Carlo runs for the simulation stage.")
  in
  let budget_t =
    Arg.(value & opt (positive_int "node budget") 200_000
         & info [ "exact-budget" ] ~docv:"NODES"
             ~doc:"Branch-and-bound node budget for the exact tier (the \
                   default covers Genome n=20 to optimality).")
  in
  let csv_t =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write the metric table as CSV to $(docv) instead of \
                   printing it.")
  in
  let bnb_domains_t =
    Arg.(value & opt (positive_int "domain count") 1
         & info [ "bnb-domains" ] ~docv:"N"
             ~doc:"Explore the exact tier's branch-and-bound tree over this \
                   many parallel domains.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run an instrumented end-to-end workload (heuristics, exact \
             search, local search, simulation) and report internal metrics")
    Term.(const profile $ family_t $ n_t $ seed_t $ cost_t $ mtbf_t
          $ downtime_t $ grid_t $ bnb_domains_t $ runs_t $ budget_t
          $ replicas_t $ replica_cost_t $ csv_t $ obs_trace_t)

(* ---- corpus ---- *)

module Corpus = Wfc_corpus.Corpus

(* --mtbf-ratios R,R,...: the relative scenario grid (MTBF as a multiple of
   each instance's total weight). Nonsense dies as a usage error, like
   --failures. *)
let ratios_conv =
  let parse s =
    if String.lowercase_ascii s = "none" then Ok []
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match float_of_string_opt (String.trim p) with
            | Some v when v > 0. && Float.is_finite v -> go (v :: acc) rest
            | _ ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "invalid MTBF ratio %S: expected positive multiples \
                        of the total weight (e.g. 0.1,1,10) or 'none'"
                       p)))
      in
      go [] (String.split_on_char ',' s)
  in
  let print ppf rs =
    Format.pp_print_string ppf
      (String.concat "," (List.map (Printf.sprintf "%g") rs))
  in
  Arg.conv (parse, print)

let corpus dir ratios laws cost grid replicas replica_cost downtime
    exact_budget deadline exact_max_n domains seed json metrics trace =
  with_obs ~metrics ~trace (fun () ->
      let scenarios =
        List.map (fun r -> Corpus.Relative r) ratios
        @ List.map (fun d -> Corpus.Law d) laws
      in
      if scenarios = [] then begin
        Printf.eprintf
          "no failure scenarios: give --mtbf-ratios or --failures\n";
        exit 1
      end;
      match Corpus.load_dir ~cost dir with
      | Error msg ->
          Printf.eprintf "cannot read %s: %s\n" dir msg;
          exit 1
      | Ok (instances, skipped) ->
          if instances = [] then begin
            List.iter
              (fun (p, m) -> Printf.printf "skipped %s: %s\n" p m)
              skipped;
            Printf.eprintf "no loadable workflow files in %s\n" dir;
            exit 1
          end;
          let config =
            {
              Corpus.default_config with
              Corpus.scenarios;
              search = search_of_grid grid;
              replication = replicas;
              replica_cost;
              downtime;
              exact_budget;
              exact_deadline = deadline;
              exact_max_n;
              domains;
              seed;
            }
          in
          let report = Corpus.sweep ~config ~skipped instances in
          Corpus.print_report report;
          (match json with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  output_string oc
                    (Wfc_io.Json.to_string (Corpus.to_json report));
                  output_char oc '\n');
              Format.printf "wrote %s@." path))

let corpus_cmd =
  let dir_t =
    Arg.(required & pos 0 (some dir) None
         & info [] ~docv:"DIR"
             ~doc:"Directory of workflow files. Every $(b,.dax), $(b,.xml) \
                   and $(b,.json) entry is ingested (Pegasus DAX, WfCommons \
                   or native JSON, sniffed from the contents); files that \
                   fail to decode are reported and skipped.")
  in
  let ratios_t =
    Arg.(value & opt ratios_conv [ 0.1; 1.; 10. ]
         & info [ "mtbf-ratios" ] ~docv:"R,R,..."
             ~doc:"Relative failure scenarios: one sweep column group per \
                   ratio, with MTBF = R times the instance's total weight \
                   (the paper's MTBF/W axis). $(b,none) disables the \
                   relative grid (combine with $(b,--failures)).")
  in
  let laws_t =
    Arg.(value & opt_all failures_conv []
         & info [ "failures" ] ~docv:"LAW"
             ~doc:"Absolute failure scenario from the shared law grammar \
                   ($(b,exp:RATE), $(b,weibull:SHAPE,SCALE), \
                   $(b,hyper:P,RATE1,RATE2), $(b,const:VALUE)); the \
                   analytic model uses the law's mean as the MTBF. \
                   Repeatable; appended after the relative grid.")
  in
  let budget_t =
    Arg.(value & opt (nonneg_int "node budget") 0
         & info [ "exact-budget" ] ~docv:"NODES"
             ~doc:"Branch-and-bound node budget for an extra exact column \
                   (graceful solver-driver tiers); 0 (default) disables it.")
  in
  let deadline_t =
    deadline_arg
      ~doc:"Wall-clock cap per exact attempt. Unset keeps the sweep \
            fully deterministic; setting it trades byte-stability \
            for bounded latency."
  in
  let exact_max_n_t =
    Arg.(value & opt (positive_int "task cap") 24
         & info [ "exact-max-n" ] ~docv:"N"
             ~doc:"Skip the exact column on instances with more than $(docv) \
                   tasks.")
  in
  let domains_t =
    Arg.(value & opt (positive_int "domain count") 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Spread the sweep over this many domains. Results are \
                   independent of the domain count.")
  in
  let json_t =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the full report as deterministic JSON to \
                   $(docv).")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Sweep a directory of real workflow files (DAX, WfCommons, \
             native JSON) across failure scenarios and heuristics, \
             producing Figure-style ratio tables and an optional JSON \
             report")
    Term.(const corpus $ dir_t $ ratios_t $ laws_t $ cost_t $ grid_t
          $ replicas_t $ replica_cost_t $ downtime_t $ budget_t
          $ deadline_t $ exact_max_n_t $ domains_t $ seed_t $ json_t
          $ metrics_t $ obs_trace_t)

(* ---- serve / request ---- *)

module Srv = Wfc_serve.Server
module Cli = Wfc_serve.Client

let listen_of ~socket ~port =
  match socket with Some p -> Srv.Unix_sock p | None -> Srv.Tcp port

let serve port socket cache_size queue_depth workers domains timeout trace =
  let config = { Srv.cache_size; queue_depth; workers; domains; timeout } in
  with_obs ~metrics:false ~trace @@ fun () ->
  match
    Srv.serve ~config
      ~ready:(fun addr -> Printf.printf "wfc serve: listening on %s\n%!" addr)
      (listen_of ~socket ~port)
  with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "wfc serve: %s\n" msg;
      exit 1

let socket_t =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on (or connect to) a Unix-domain socket at $(docv) \
                 instead of TCP. The path must not already exist when \
                 serving; it is removed on shutdown.")

let serve_cmd =
  let port_t =
    Arg.(value & opt port_conv 0
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port to bind on 127.0.0.1; 0 (default) picks a free \
                   port and reports it on stdout.")
  in
  let cache_size_t =
    Arg.(value & opt (nonneg_int "cache size") Srv.default_config.cache_size
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Warm evaluation engines kept in the LRU; 0 disables the \
                   cache. Responses are byte-identical either way — only \
                   latency changes.")
  in
  let queue_depth_t =
    Arg.(value & opt (positive_int "queue depth") Srv.default_config.queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admission bound on outstanding compute requests; beyond \
                   it requests are refused with a structured $(b,busy) \
                   error instead of queueing unboundedly.")
  in
  let workers_t =
    Arg.(value & opt (positive_int "worker count") Srv.default_config.workers
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains draining the compute queue.")
  in
  let domains_t =
    Arg.(value & opt (positive_int "domain count") Srv.default_config.domains
         & info [ "domains" ] ~docv:"N"
             ~doc:"Parallelism handed to corpus sweeps inside the daemon. \
                   Never affects response bytes.")
  in
  let timeout_t =
    Arg.(value & opt (some (positive_float "timeout")) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request wall-clock watchdog: compute requests \
                   running longer than $(docv) are cooperatively cancelled \
                   and answer a structured $(b,timeout) error. Distinct \
                   from the deterministic $(b,deadline) tiering; responses \
                   that finish in time are byte-for-byte unaffected.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the scheduling daemon: solve / simulate / adapt / corpus \
             requests over a Unix or TCP socket, in a line-oriented text \
             mode or a length-prefixed binary protocol, with a warm-engine \
             LRU and bounded-queue admission control")
    Term.(const serve $ port_t $ socket_t $ cache_size_t $ queue_depth_t
          $ workers_t $ domains_t $ timeout_t $ obs_trace_t)

let request port socket binary retry from_stdin words =
  let target =
    match (socket, port) with
    | Some p, _ -> Srv.Unix_sock p
    | None, Some p -> Srv.Tcp p
    | None, None ->
        Printf.eprintf "wfc request: need --socket PATH or --port PORT\n";
        exit 1
  in
  let lines =
    if from_stdin then In_channel.input_lines In_channel.stdin
    else if words = [] then []
    else [ String.concat " " words ]
  in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  if lines = [] then begin
    Printf.eprintf "wfc request: nothing to send\n";
    exit 1
  end;
  match Cli.connect ~retry target with
  | Error msg ->
      (* distinct exit code: scripts can tell "no daemon" from "daemon
         said no" *)
      Printf.eprintf "wfc request: %s\n" msg;
      exit 2
  | Ok fd ->
      let replies = Cli.exchange ~binary fd lines in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let failed = ref false and busy = ref false and timed_out = ref false in
      List.iter
        (fun (r : Cli.reply) ->
          match r.body with
          | Ok body -> List.iter print_endline body
          | Error detail ->
              failed := true;
              (match String.index_opt detail ' ' with
              | Some i -> (
                  match String.sub detail 0 i with
                  | "busy" -> busy := true
                  | "timeout" -> timed_out := true
                  | _ -> ())
              | None ->
                  if detail = "busy" then busy := true
                  else if detail = "timeout" then timed_out := true);
              Printf.printf "error: %s\n" detail)
        replies;
      (* timeout > busy > other: the most actionable failure wins *)
      if !timed_out then exit 4
      else if !busy then exit 3
      else if !failed then exit 1

let request_cmd =
  let port_t =
    Arg.(value & opt (some port_conv) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Connect to the daemon on 127.0.0.1:$(docv).")
  in
  let binary_t =
    Arg.(value & flag
         & info [ "binary" ]
             ~doc:"Use the length-prefixed binary codec instead of the text \
                   protocol. Rendered output is byte-identical to text mode.")
  in
  let retry_t =
    Arg.(value & opt (nonneg_float "retry budget") 5.
         & info [ "retry" ] ~docv:"SECONDS"
             ~doc:"Keep retrying a refused connection for up to $(docv) \
                   (the daemon may still be starting).")
  in
  let stdin_t =
    Arg.(value & flag
         & info [ "stdin" ]
             ~doc:"Read one request per line from standard input and \
                   pipeline them over a single connection; replies print \
                   in request order regardless of completion order.")
  in
  let words_t =
    Arg.(value & pos_all string []
         & info [] ~docv:"WORD"
             ~doc:"Request words, joined into one text-protocol line, e.g. \
                   $(b,wfc request --port P solve family=chain n=8).")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send requests to a running wfc serve daemon and print the \
             replies. Exit codes separate the failure modes: 2 when no \
             connection could be made, 3 when a reply was $(b,busy) \
             (refused at admission), 4 when a reply was $(b,timeout) (the \
             watchdog cancelled it mid-compute), 1 for any other error \
             reply.")
    Term.(const request $ port_t $ socket_t $ binary_t $ retry_t $ stdin_t
          $ words_t)

(* ---- chaos ---- *)

module Chaos = Wfc_serve.Chaos

let chaos port socket seeds seed_base spec =
  let target =
    match (socket, port) with
    | Some p, _ -> Srv.Unix_sock p
    | None, Some p -> Srv.Tcp p
    | None, None ->
        Printf.eprintf "wfc chaos: need --socket PATH or --port PORT\n";
        exit 1
  in
  (match spec with
  | Some s -> Printf.printf "chaos spec: %s\n" (Chaos.to_string s)
  | None -> ());
  let seed_list = List.init seeds (fun i -> seed_base + i) in
  let r = Chaos.soak ?spec ~target ~seeds:seed_list () in
  Printf.printf "chaos soak: %d runs (seed base %d)\n" r.Chaos.runs seed_base;
  Printf.printf "  completed   %d\n" r.Chaos.completed;
  Printf.printf "  structured  %d\n" r.Chaos.structured;
  Printf.printf "  torn        %d\n" r.Chaos.torn;
  Printf.printf "  mismatched  %d\n" r.Chaos.mismatched;
  let ok = r.Chaos.mismatched = 0 && r.Chaos.leaked = 0 && r.Chaos.alive in
  Printf.printf "invariants: mismatched=%d leaked=%d alive=%s\n"
    r.Chaos.mismatched r.Chaos.leaked
    (if r.Chaos.alive then "yes" else "no");
  if not ok then exit 1

let chaos_cmd =
  let port_t =
    Arg.(value & opt (some port_conv) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Attack the daemon on 127.0.0.1:$(docv).")
  in
  let seeds_t =
    Arg.(value & opt (positive_int "seed count") 50
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Number of seeded fault schedules to run (seeds \
                   $(b,base)..$(b,base+N-1); even seeds use the text \
                   protocol, odd seeds the binary codec).")
  in
  let seed_base_t =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"BASE"
             ~doc:"First seed of the soak; a failing run replays exactly \
                   from its seed.")
  in
  let spec_t =
    let parse s =
      match Chaos.of_string s with
      | Ok spec -> Ok spec
      | Error msg -> Error (`Msg ("chaos spec: " ^ msg))
    in
    let spec_conv =
      Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Chaos.to_string s))
    in
    Arg.(value & opt (some spec_conv) None
         & info [ "spec" ] ~docv:"SPEC"
             ~doc:"Inject this exact fault schedule on every run instead of \
                   deriving one per seed: comma-separated \
                   $(b,tear\\@K), $(b,reset\\@K), $(b,corrupt\\@K:MASK), \
                   $(b,delay:MS), $(b,trickle:N), or $(b,none).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Soak a running wfc serve daemon through a fault-injecting \
             proxy: seeded, replayable schedules of torn frames, corrupted \
             bytes, delays and connection resets. Verifies the crash-only \
             invariants — completed replies byte-identical to a chaos-free \
             exchange, no hangs, daemon alive afterwards with zero warm \
             engines leaked — and exits 1 if any is violated.")
    Term.(const chaos $ port_t $ socket_t $ seeds_t $ seed_base_t $ spec_t)

let main_cmd =
  Cmd.group
    (Cmd.info "wfc" ~version:"1.0.0"
       ~doc:"Scheduling computational workflows on failure-prone platforms")
    [ generate_cmd; evaluate_cmd; schedule_cmd; simulate_cmd; solve_cmd;
      stress_cmd; adapt_cmd; replay_cmd; profile_cmd; corpus_cmd;
      serve_cmd; request_cmd; chaos_cmd ]

let () = exit (Cmd.eval main_cmd)
