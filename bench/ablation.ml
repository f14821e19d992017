(* Ablation and extension studies, beyond the paper's figures:

   A1  local-search refinement: how much the paper's one-parameter
       checkpoint families (top-N) leave on the table;
   A2  robustness to the exponential assumption: schedules tuned under
       exponential failures, executed under Weibull renewal processes of
       equal MTBF;
   A3  non-blocking checkpointing (the paper's future-work section):
       simulated gain of overlapping checkpoint I/O with computation;
   A4  the divisible-load periodic theory (Young / Daly) next to the
       DAG-aware CkptPer heuristic. *)

open Wfc_core
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model
module D = Wfc_platform.Distribution
module Stats = Wfc_platform.Stats
module MC = Wfc_simulator.Monte_carlo
module Linearize = Wfc_dag.Linearize

let lambda_for = function
  | P.Montage | P.Ligo | P.Cybershake -> 1e-3
  (* heavy tasks (Genome's map, SIPHT's Blast) call for a longer MTBF *)
  | P.Genome | P.Sipht -> 1e-4

let tuned_schedule cfg family ~n ~cost =
  let g = CM.apply cost (P.generate family ~n ~seed:cfg.Figures.seed) in
  let model = FM.make ~lambda:(lambda_for family) () in
  let o =
    Heuristics.run ~search:cfg.Figures.search model g ~lin:Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  (g, model, o)

(* A1: hill climbing on top of each searched heuristic *)
let local_search_study cfg =
  Printf.printf "\n== ablation A1: local-search refinement (n=100, c=0.1w) ==\n";
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "workflow"; "seed heuristic"; "seed ratio"; "refined ratio";
          "gain %"; "flips" ]
  in
  List.iter
    (fun family ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n:100 ~seed:cfg.Figures.seed) in
      let model = FM.make ~lambda:(lambda_for family) () in
      let tinf = Evaluator.fail_free_time g in
      List.iter
        (fun ckpt ->
          let o =
            Heuristics.run ~search:cfg.Figures.search model g
              ~lin:Linearize.Depth_first ~ckpt
          in
          let r = Local_search.improve ~max_evaluations:800 model g o.Heuristics.schedule in
          Wfc_reporting.Table.add_row table
            [
              P.family_name family;
              Heuristics.ckpt_strategy_name ckpt;
              Printf.sprintf "%.4f" (o.Heuristics.makespan /. tinf);
              Printf.sprintf "%.4f" (r.Local_search.makespan /. tinf);
              Printf.sprintf "%.2f"
                (100. *. (1. -. (r.Local_search.makespan /. o.Heuristics.makespan)));
              string_of_int r.Local_search.flips;
            ])
        [ Heuristics.Ckpt_weight; Heuristics.Ckpt_periodic ])
    P.all;
  Wfc_reporting.Table.print table

(* A2: exponential-tuned schedules under Weibull failures of equal MTBF *)
let weibull_study cfg =
  Printf.printf
    "\n== ablation A2: Weibull robustness (n=60, c=0.1w, 10k runs each) ==\n";
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "workflow"; "analytic exp"; "sim exp"; "sim weibull k=0.7";
          "sim weibull k=1.5" ]
  in
  List.iter
    (fun family ->
      let g, model, o = tuned_schedule cfg family ~n:60 ~cost:(CM.Proportional 0.1) in
      let sched = o.Heuristics.schedule in
      let mtbf = FM.mtbf model in
      let sim dist =
        let est =
          MC.estimate_renewal ~runs:10_000 ~seed:cfg.Figures.seed ~failures:dist
            ~downtime:0. g sched
        in
        Stats.mean est.MC.makespan
      in
      let tinf = Evaluator.fail_free_time g in
      let cell v = Printf.sprintf "%.4f" (v /. tinf) in
      Wfc_reporting.Table.add_row table
        [
          P.family_name family;
          cell o.Heuristics.makespan;
          cell (sim (D.exponential ~rate:(1. /. mtbf)));
          cell (sim (D.weibull_of_mean ~shape:0.7 ~mean:mtbf));
          cell (sim (D.weibull_of_mean ~shape:1.5 ~mean:mtbf));
        ])
    P.all;
  Wfc_reporting.Table.print table;
  Printf.printf
    "(ratios T/T_inf at equal MTBF; the Weibull shape shifts the expected\n\
     \ makespan by only a few percent in either direction, so schedules\n\
     \ tuned under the exponential analysis remain serviceable)\n"

(* A3: non-blocking checkpointing *)
let overlap_study cfg =
  Printf.printf
    "\n== ablation A3: non-blocking checkpointing (n=100, c=0.1w, 10k runs) ==\n";
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "workflow"; "blocking"; "overlap s=0"; "overlap s=0.2";
          "overlap s=0.5"; "overlap s=1" ]
  in
  List.iter
    (fun family ->
      let g, model, o = tuned_schedule cfg family ~n:100 ~cost:(CM.Proportional 0.1) in
      let sched = o.Heuristics.schedule in
      let tinf = Evaluator.fail_free_time g in
      let lambda = model.FM.lambda in
      let overlap interference =
        let est =
          MC.estimate_overlap ~runs:10_000 ~seed:cfg.Figures.seed
            {
              Wfc_simulator.Sim_overlap.interference;
              failures = D.exponential ~rate:lambda;
              downtime = 0.;
            }
            g sched
        in
        Printf.sprintf "%.4f" (Stats.mean est.MC.makespan /. tinf)
      in
      Wfc_reporting.Table.add_row table
        [
          P.family_name family;
          Printf.sprintf "%.4f" (o.Heuristics.makespan /. tinf);
          overlap 0.; overlap 0.2; overlap 0.5; overlap 1.;
        ])
    P.all;
  Wfc_reporting.Table.print table;
  Printf.printf
    "(same DF-CkptW schedules; overlap hides checkpoint cost until\n\
     \ interference makes writes stall computation)\n"

(* A4: divisible-load periodic theory vs the DAG-aware CkptPer *)
let periodic_study cfg =
  Printf.printf "\n== ablation A4: Young/Daly vs CkptPer (c = average w/10) ==\n";
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "workflow"; "W total"; "CkptPer period"; "Young"; "Daly";
          "divisible optimum" ]
  in
  List.iter
    (fun family ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n:100 ~seed:cfg.Figures.seed) in
      let model = FM.make ~lambda:(lambda_for family) () in
      let o =
        Heuristics.run ~search:Heuristics.Exhaustive model g
          ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_periodic
      in
      let w = Evaluator.fail_free_time g in
      let c = 0.1 *. (w /. 100.) in
      let n_ckpt = Int.max 1 o.Heuristics.n_ckpt in
      Wfc_reporting.Table.add_row table
        [
          P.family_name family;
          Printf.sprintf "%.0f" w;
          Printf.sprintf "%.0f" (w /. float_of_int n_ckpt);
          Printf.sprintf "%.0f" (Periodic.young_period model ~checkpoint:c);
          Printf.sprintf "%.0f" (Periodic.daly_period model ~checkpoint:c);
          Printf.sprintf "%.0f"
            (Periodic.optimal_period model ~work:w ~checkpoint:c ~recovery:c);
        ])
    P.all;
  Wfc_reporting.Table.print table;
  Printf.printf
    "(CkptPer's searched period vs the divisible-load first-order theory;\n\
     \ the DAG-aware search picks much shorter periods because a failure\n\
     \ can also destroy still-needed outputs of earlier tasks)\n"

(* A5: the extended strategies (DF-BL linearization, CkptE checkpointing,
   SIPHT workflow) against the paper's best combinations *)
let extended_strategy_study cfg =
  Printf.printf
    "\n== ablation A5: extended strategies (n=100; c=0.1w and c=5s) ==\n";
  List.iter
    (fun cost ->
      let table =
        Wfc_reporting.Table.create
          ~columns:
            [ "workflow"; "DF-CkptW"; "DF-CkptC"; "DF-CkptE"; "DF-BL-CkptW";
              "DF-BL-CkptE" ]
      in
      List.iter
        (fun family ->
          let g = CM.apply cost (P.generate family ~n:100 ~seed:cfg.Figures.seed) in
          let model = FM.make ~lambda:(lambda_for family) () in
          let tinf = Evaluator.fail_free_time g in
          let cell lin ckpt =
            let o = Heuristics.run ~search:cfg.Figures.search model g ~lin ~ckpt in
            Printf.sprintf "%.4f" (o.Heuristics.makespan /. tinf)
          in
          Wfc_reporting.Table.add_row table
            [
              P.family_name family;
              cell Linearize.Depth_first Heuristics.Ckpt_weight;
              cell Linearize.Depth_first Heuristics.Ckpt_cost;
              cell Linearize.Depth_first Heuristics.Ckpt_efficiency;
              cell Linearize.Depth_first_blevel Heuristics.Ckpt_weight;
              cell Linearize.Depth_first_blevel Heuristics.Ckpt_efficiency;
            ])
        P.extended;
      Printf.printf "-- %s --\n" (CM.name cost);
      Wfc_reporting.Table.print table)
    [ CM.Proportional 0.1; CM.Constant 5. ];
  Printf.printf
    "(CkptE ranks by protected work per checkpoint second; DF-BL uses the\n\
     \ classical bottom-level priority instead of the paper's outweight)\n"

(* A6: tail behaviour — checkpointing buys predictability, not only a lower
   mean. Quantiles of the simulated makespan distribution. *)
let tail_study cfg =
  Printf.printf
    "\n== ablation A6: makespan tail (CyberShake n=100, c=0.1w, 20k runs) ==\n";
  let family = P.Cybershake in
  let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n:100 ~seed:cfg.Figures.seed) in
  let model = FM.make ~lambda:(lambda_for family) () in
  let order = Linearize.run Linearize.Depth_first g in
  let tinf = Evaluator.fail_free_time g in
  let table =
    Wfc_reporting.Table.create
      ~columns:[ "schedule"; "mean"; "median"; "p90"; "p99"; "p99/median" ]
  in
  let row name sched =
    let samples =
      MC.makespan_samples ~runs:20_000 ~seed:cfg.Figures.seed model g sched
    in
    let q p = Wfc_platform.Sample_set.quantile samples p /. tinf in
    Wfc_reporting.Table.add_row table
      [
        name;
        Printf.sprintf "%.3f" (Wfc_platform.Sample_set.mean samples /. tinf);
        Printf.sprintf "%.3f" (q 0.5);
        Printf.sprintf "%.3f" (q 0.9);
        Printf.sprintf "%.3f" (q 0.99);
        Printf.sprintf "%.2f" (q 0.99 /. q 0.5);
      ]
  in
  row "CkptNvr" (Schedule.no_checkpoints g ~order);
  let w =
    Heuristics.run ~search:cfg.Figures.search model g ~lin:Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  row "DF-CkptW" w.Heuristics.schedule;
  row "CkptAlws" (Schedule.all_checkpoints g ~order);
  Wfc_reporting.Table.print table;
  Printf.printf
    "(ratios to T_inf; without checkpoints the p99 runs away from the\n\
     \ median — checkpointing compresses the whole distribution)\n"

(* A7: heuristics against the exact branch-and-bound optimum (same DF
   linearization) on instances beyond brute-force reach *)
let exactness_study cfg =
  Printf.printf
    "\n== ablation A7: heuristic gap to the exact optimum (n=20, c=0.1w) ==\n";
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "workflow"; "exact"; "CkptW gap %"; "CkptC gap %"; "CkptPer gap %";
          "B&B nodes" ]
  in
  List.iter
    (fun family ->
      let g =
        CM.apply (CM.Proportional 0.1)
          (P.generate family ~n:20 ~seed:cfg.Figures.seed)
      in
      (* a harsher rate than the figures so decisions actually matter at
         this small scale *)
      let model = FM.make ~lambda:(5. *. lambda_for family) () in
      let order = Linearize.run Linearize.Depth_first g in
      let sol =
        Exact_solver.optimal_checkpoints (Flat_engine.create model g ~order)
      in
      let gap ckpt =
        let o = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt in
        Printf.sprintf "%.2f"
          (100.
          *. ((o.Heuristics.makespan /. sol.Exact_solver.makespan) -. 1.))
      in
      Wfc_reporting.Table.add_row table
        [
          P.family_name family;
          Printf.sprintf "%.4f"
            (sol.Exact_solver.makespan /. Evaluator.fail_free_time g);
          gap Heuristics.Ckpt_weight;
          gap Heuristics.Ckpt_cost;
          gap Heuristics.Ckpt_periodic;
          string_of_int sol.Exact_solver.nodes;
        ])
    P.all;
  Wfc_reporting.Table.print table;
  Printf.printf
    "(exact = branch-and-bound optimum over all 2^20 checkpoint subsets of\n\
     \ the DF order, under a 5x harsher failure rate; CkptW stays within\n\
     \ ~1%% of optimal while CkptC and CkptPer can be tens of percent off\n\
     \ when failures are frequent — the ranking criterion matters)\n"

(* A8: energy vs checkpoint count — time-optimal is not energy-optimal *)
let energy_study cfg =
  Printf.printf
    "\n== ablation A8: energy vs checkpoint count (Montage n=100, 5k runs) ==\n";
  let family = P.Montage in
  let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n:100 ~seed:cfg.Figures.seed) in
  let model = FM.make ~lambda:(lambda_for family) () in
  let order = Linearize.run Linearize.Depth_first g in
  let tinf = Evaluator.fail_free_time g in
  let e0 =
    Wfc_simulator.Energy.fail_free_energy Wfc_simulator.Energy.default_power g
      (Schedule.no_checkpoints g ~order)
  in
  let table =
    Wfc_reporting.Table.create
      ~columns:[ "checkpoints"; "E[T]/T_inf"; "E[energy]/E_0"; "io share %" ]
  in
  List.iter
    (fun n_ckpt ->
      let flags =
        Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order ~n_ckpt
      in
      let sched = Schedule.make g ~order ~checkpointed:flags in
      let est =
        Wfc_simulator.Energy.estimate ~runs:5000 ~seed:cfg.Figures.seed model g
          sched
      in
      let rng = Wfc_platform.Rng.create cfg.Figures.seed in
      let io = Stats.create () in
      for _ = 1 to 2000 do
        let b = Wfc_simulator.Sim_breakdown.run ~rng model g sched in
        Stats.add io
          ((b.Wfc_simulator.Sim_breakdown.checkpoint
           +. b.Wfc_simulator.Sim_breakdown.recovery)
          /. b.Wfc_simulator.Sim_breakdown.makespan)
      done;
      Wfc_reporting.Table.add_row table
        [
          string_of_int n_ckpt;
          Printf.sprintf "%.4f"
            (Stats.mean est.Wfc_simulator.Energy.makespan /. tinf);
          Printf.sprintf "%.4f"
            (Stats.mean est.Wfc_simulator.Energy.energy /. e0);
          Printf.sprintf "%.1f" (100. *. Stats.mean io);
        ])
    [ 0; 10; 25; 50; 75; 100 ];
  Wfc_reporting.Table.print table;
  Printf.printf
    "(E_0 = fail-free, checkpoint-free energy; checkpoints trade cheap I/O\n\
     \ watts against expensive recomputation watts, so the energy-optimal\n\
     \ checkpoint count is at least the time-optimal one)\n"

let run cfg =
  local_search_study cfg;
  weibull_study cfg;
  overlap_study cfg;
  periodic_study cfg;
  extended_strategy_study cfg;
  tail_study cfg;
  exactness_study cfg;
  energy_study cfg
