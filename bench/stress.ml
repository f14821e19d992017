(* Micro stress campaign: wall-clock cost of the resilience subsystem.

   Not a figure of the paper — a throughput check that fault-injection
   simulation, misspecification campaigns and the degrading solver driver
   stay cheap enough for interactive use. Run with

     FIG=stress dune exec bench/main.exe *)

module D = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module SF = Wfc_simulator.Sim_faults
module MC = Wfc_simulator.Monte_carlo
module Stress = Wfc_resilience.Stress
module Driver = Wfc_resilience.Solver_driver
module Heuristics = Wfc_core.Heuristics
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model

let prepared n =
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Montage ~n ~seed:7) in
  let nominal = FM.make ~lambda:2e-3 ~downtime:1. () in
  let outcome =
    Heuristics.run nominal g ~lin:Wfc_dag.Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  (g, nominal, outcome.Heuristics.schedule)

let run () =
  print_endline "== stress micro-campaign ==";
  let table =
    Wfc_reporting.Table.create
      ~columns:[ "component"; "n"; "work"; "wall (s)"; "per unit (us)" ]
  in
  let row component n work wall =
    Wfc_reporting.Table.add_row table
      [
        component;
        string_of_int n;
        work;
        Printf.sprintf "%.3f" wall;
        Printf.sprintf "%.1f" (wall /. float_of_int n *. 1e6);
      ]
  in
  List.iter
    (fun n ->
      let g, nominal, sched = prepared n in
      (* fault-injection engine vs. the trusted one *)
      let runs = 2000 in
      let _, clean =
        Timing.once (fun () -> MC.estimate ~runs ~seed:3 nominal g sched)
      in
      row "sim (clean)" runs "runs" clean;
      let faulty_params =
        {
          (SF.nominal nominal) with
          SF.p_ckpt_fail = 0.05;
          p_rec_fail = 0.05;
          downtime = D.exponential ~rate:1.;
          max_failures = 10_000;
        }
      in
      let _, faulty =
        Timing.once (fun () ->
            MC.estimate_faults ~runs ~seed:3 faulty_params g sched)
      in
      row "sim (faults)" runs "runs" faulty;
      (* one full default-grid campaign for the schedule *)
      let scenarios = Stress.default_grid nominal in
      let campaign_runs = 500 in
      let report, wall =
        Timing.once (fun () ->
            Stress.evaluate ~runs:campaign_runs ~seed:3 ~nominal ~scenarios g
              sched)
      in
      row "stress campaign"
        (campaign_runs * List.length scenarios)
        "runs" wall;
      Printf.printf "  n=%d robustness (worst p99 x): %.2f\n" n
        report.Stress.robustness)
    [ 30; 100 ];
  (* the degrading driver on a budget too small for the exact tier *)
  let g, nominal, _ = prepared 60 in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let config = { Driver.default_config with Driver.max_nodes = 50_000 } in
  let result, wall =
    Timing.once (fun () -> Driver.solve ~config nominal g ~order)
  in
  row
    (Printf.sprintf "driver[%s]" (Driver.tier_name result.Driver.tier))
    result.Driver.nodes "nodes" wall;
  Wfc_reporting.Table.print table
