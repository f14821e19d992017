(* End-to-end scenarios across libraries: generate -> serialize -> reload ->
   transform -> schedule -> evaluate -> simulate, exactly as a downstream
   user would compose the APIs. *)

open Wfc_core
module Dag = Wfc_dag.Dag
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model
module Linearize = Wfc_dag.Linearize

let test_full_pipeline_via_json () =
  (* generate, persist, reload, schedule, persist the schedule, reload it,
     and check every representation agrees on the expected makespan *)
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Cybershake ~n:50 ~seed:21) in
  let model = FM.of_mtbf ~mtbf:1500. ~downtime:3. () in
  let o = Heuristics.run ~search:(Heuristics.Grid 16) model g
      ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight in
  let dag_path = Filename.temp_file "wfc_int" ".json" in
  let sched_path = Filename.temp_file "wfc_int_s" ".json" in
  Wfc_io.Workflow_format.save_dag dag_path g;
  Wfc_io.Workflow_format.save_schedule sched_path o.Heuristics.schedule;
  (match Wfc_io.Workflow_format.load_dag dag_path with
  | Error e -> Alcotest.failf "dag reload: %s" e
  | Ok g' -> (
      match Wfc_io.Workflow_format.load_schedule g' sched_path with
      | Error e -> Alcotest.failf "schedule reload: %s" e
      | Ok s' ->
          Wfc_test_util.check_close ~eps:1e-12 "same expected makespan"
            o.Heuristics.makespan
            (Evaluator.expected_makespan model g' s')));
  Sys.remove dag_path;
  Sys.remove sched_path

let test_full_pipeline_via_dax () =
  (* DAX loses costs by design; reapplying the cost model must restore the
     exact same scheduling problem *)
  let g0 = P.generate P.Genome ~n:40 ~seed:22 in
  let path = Filename.temp_file "wfc_int" ".dax" in
  Wfc_io.Dax.save path g0;
  (match Wfc_io.Dax.load path with
  | Error e -> Alcotest.failf "dax reload: %s" e
  | Ok g1 ->
      let cost = CM.Proportional 0.1 in
      let a = CM.apply cost g0 and b = CM.apply cost g1 in
      let model = FM.of_mtbf ~mtbf:20_000. () in
      let run g =
        (Heuristics.run ~search:(Heuristics.Grid 12) model g
           ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight)
          .Heuristics.makespan
      in
      Wfc_test_util.check_close ~eps:1e-9 "identical problem" (run a) (run b));
  Sys.remove path

let test_fusion_then_schedule () =
  (* fusing unrecoverable tasks must not break scheduling, and the fused
     instance should not schedule worse than T_inf scaling suggests *)
  let g =
    Wfc_dag.Builders.chain
      ~weights:[| 10.; 1.; 12.; 2.; 8. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun i w -> if i mod 2 = 1 then 3. *. w else 0.2 *. w)
      ()
  in
  let f = Wfc_dag.Transform.fuse_unrecoverable g in
  let fused = f.Wfc_dag.Transform.dag in
  Alcotest.(check bool) "something fused" true (Dag.n_tasks fused < 5);
  Wfc_test_util.check_close "work conserved" (Dag.total_weight g)
    (Dag.total_weight fused);
  let model = FM.make ~lambda:0.02 () in
  let m g = (Chain_solver.solve model g).Chain_solver.makespan in
  (* fusing only removes checkpoint locations, so the fused optimum cannot
     beat the original chain optimum *)
  Alcotest.(check bool) "fusion cannot improve the optimum" true
    (m fused >= m g -. 1e-9)

let test_analytic_vs_all_simulation_engines () =
  (* one schedule, four engines, one truth *)
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Montage ~n:40 ~seed:23) in
  let model = FM.make ~lambda:2e-3 ~downtime:1. () in
  let order = Linearize.run Linearize.Depth_first g in
  let flags = Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order ~n_ckpt:15 in
  let sched = Schedule.make g ~order ~checkpointed:flags in
  let expected = Evaluator.expected_makespan model g sched in
  let runs = 25_000 in
  let check name mean se =
    if Float.abs (mean -. expected) > 5.5 *. Float.max se (1e-12 *. mean) then
      Alcotest.failf "%s: %.2f vs analytic %.2f (se %.3f)" name mean expected se
  in
  let module MC = Wfc_simulator.Monte_carlo in
  let module Stats = Wfc_platform.Stats in
  let e1 = MC.estimate ~runs ~seed:31 model g sched in
  check "memoryless" (Stats.mean e1.MC.makespan) (Stats.std_error e1.MC.makespan);
  let e2 =
    MC.estimate_renewal ~runs ~seed:32
      ~failures:(Wfc_platform.Distribution.exponential ~rate:2e-3) ~downtime:1.
      g sched
  in
  check "renewal" (Stats.mean e2.MC.makespan) (Stats.std_error e2.MC.makespan);
  let e3 = MC.estimate_parallel ~runs ~domains:4 ~seed:33 model g sched in
  check "parallel" (Stats.mean e3.MC.makespan) (Stats.std_error e3.MC.makespan);
  (* trace engine, via its summaries *)
  let rng = Wfc_platform.Rng.create 34 in
  let s = Stats.create () in
  for _ = 1 to runs / 5 do
    let summary, _ = Wfc_simulator.Sim_trace.run ~rng model g sched in
    Stats.add s summary.Wfc_simulator.Sim.makespan
  done;
  check "traced" (Stats.mean s) (Stats.std_error s)

let test_solver_stack_consistency () =
  (* the same join instance through every applicable solver *)
  let g =
    Wfc_dag.Builders.join
      ~source_weights:[| 8.; 3.; 6.; 4. |] ~sink_weight:2.
      ~checkpoint_cost:(fun _ _ -> 1.)
      ~recovery_cost:(fun _ _ -> 1.)
      ()
  in
  let model = FM.make ~lambda:0.07 () in
  let uniform = Join_solver.solve_uniform_costs model g in
  let exact = Join_solver.solve_exact model g in
  let sched = Join_solver.schedule_of ~model g ~ckpt:exact.Join_solver.ckpt in
  let order = Array.init (Dag.n_tasks g) (Schedule.task_at sched) in
  let bnb =
    Exact_solver.optimal_checkpoints (Flat_engine.create model g ~order)
  in
  let _, brute = Brute_force.optimal model g in
  Wfc_test_util.check_close ~eps:1e-9 "uniform = exact"
    uniform.Join_solver.makespan exact.Join_solver.makespan;
  Wfc_test_util.check_close ~eps:1e-9 "exact = global brute force"
    exact.Join_solver.makespan brute;
  Alcotest.(check bool) "B&B on the optimal order matches" true
    (Wfc_test_util.close ~eps:1e-9 bnb.Exact_solver.makespan brute)

let test_bounds_hold_on_real_workflows () =
  List.iter
    (fun fam ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate fam ~n:60 ~seed:24) in
      let model = FM.make ~lambda:(0.1 /. P.mean_task_weight fam) () in
      let lb = Bounds.lower_bound model g in
      let ub = Bounds.upper_bound model g in
      let o =
        Heuristics.run ~search:(Heuristics.Grid 16) model g
          ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight
      in
      if not (lb <= ub +. 1e-9) then
        Alcotest.failf "%s: lb %.1f above ub %.1f" (P.family_name fam) lb ub;
      if not (lb <= o.Heuristics.makespan +. 1e-9) then
        Alcotest.failf "%s: lb %.1f above heuristic %.1f" (P.family_name fam)
          lb o.Heuristics.makespan;
      (* the searched N never reaches n, so CkptW can land a hair above the
         checkpoint-everything upper bound; allow that sliver *)
      if not (o.Heuristics.makespan <= ub *. 1.01) then
        Alcotest.failf "%s: heuristic %.1f far above the upper bound %.1f"
          (P.family_name fam) o.Heuristics.makespan ub)
    P.extended

let () =
  Alcotest.run "integration"
    [
      ( "integration",
        [
          Alcotest.test_case "json pipeline" `Quick test_full_pipeline_via_json;
          Alcotest.test_case "dax pipeline" `Quick test_full_pipeline_via_dax;
          Alcotest.test_case "fusion then schedule" `Quick
            test_fusion_then_schedule;
          Alcotest.test_case "all simulation engines" `Slow
            test_analytic_vs_all_simulation_engines;
          Alcotest.test_case "solver stack" `Quick test_solver_stack_consistency;
          Alcotest.test_case "bounds on real workflows" `Quick
            test_bounds_hold_on_real_workflows;
        ] );
    ]
