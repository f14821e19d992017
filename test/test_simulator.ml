open Wfc_core
open Wfc_simulator
module Dag = Wfc_dag.Dag
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model
module Stats = Wfc_platform.Stats

let test_fail_free_deterministic () =
  let g =
    Builders.chain ~weights:[| 1.; 2.; 3. |] ~checkpoint_cost:(fun _ _ -> 0.5) ()
  in
  let s =
    Schedule.make g ~order:[| 0; 1; 2 |] ~checkpointed:[| true; false; true |]
  in
  let rng = Wfc_platform.Rng.create 1 in
  let r = Sim.run ~rng FM.fail_free g s in
  Wfc_test_util.check_close "W + checkpoints" 7. r.Sim.makespan;
  Alcotest.(check int) "no failures" 0 r.Sim.failures;
  Alcotest.(check (float 0.)) "no waste" 0. r.Sim.wasted

let test_run_reproducible () =
  let g = Builders.chain ~weights:[| 4.; 5. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  let model = FM.make ~lambda:0.2 ~downtime:1. () in
  let run seed =
    (Sim.run ~rng:(Wfc_platform.Rng.create seed) model g s).Sim.makespan
  in
  Wfc_test_util.check_close "same seed, same run" (run 5) (run 5)

let test_makespan_bounds () =
  let g = Builders.chain ~weights:[| 4.; 5. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  let model = FM.make ~lambda:0.1 ~downtime:0.5 () in
  let rng = Wfc_platform.Rng.create 6 in
  for _ = 1 to 200 do
    let r = Sim.run ~rng model g s in
    if r.Sim.makespan < 9. then Alcotest.fail "below fail-free time";
    if r.Sim.wasted < 0. then Alcotest.fail "negative waste";
    Wfc_test_util.check_close "makespan = useful + wasted"
      (9. +. r.Sim.wasted) r.Sim.makespan
  done

let test_downtime_counted () =
  (* harsh rate: failures certain to occur; downtime inflates makespan *)
  let g = Builders.chain ~weights:[| 10. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  let sample downtime =
    let model = FM.make ~lambda:0.3 ~downtime () in
    let e = Monte_carlo.estimate ~runs:2000 ~seed:3 model g s in
    Stats.mean e.Monte_carlo.makespan
  in
  Alcotest.(check bool) "downtime increases makespan" true
    (sample 5. > sample 0. +. 1.)

let agreement_case name model g s =
  ( name,
    fun () ->
      let expected = Evaluator.expected_makespan model g s in
      let est = Monte_carlo.estimate ~runs:40_000 ~seed:17 model g s in
      if not (Monte_carlo.agrees_with est ~expected ~sigmas:5.) then
        Alcotest.failf "%s: analytic %.6g vs simulated %.6g (se %.3g)" name
          expected
          (Stats.mean est.Monte_carlo.makespan)
          (Stats.std_error est.Monte_carlo.makespan) )

let agreement_cases () =
  let figure1 =
    Dag.of_weights
      ~checkpoint_cost:(fun _ w -> 0.1 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ~weights:[| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |]
      ~edges:[ (0, 3); (3, 4); (3, 5); (4, 6); (5, 6); (1, 2); (2, 7); (6, 7) ]
      ()
  in
  let fig1_sched =
    Schedule.make figure1 ~order:[| 0; 3; 1; 2; 4; 5; 6; 7 |]
      ~checkpointed:[| false; false; false; true; true; false; false; false |]
  in
  let chain =
    Builders.chain ~weights:[| 3.; 5.; 2.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let chain_sched =
    Schedule.make chain ~order:[| 0; 1; 2; 3 |]
      ~checkpointed:[| false; true; false; false |]
  in
  let join =
    Builders.join ~source_weights:[| 3.; 6.; 2. |] ~sink_weight:1.
      ~checkpoint_cost:(fun _ w -> 0.15 *. w)
      ~recovery_cost:(fun _ w -> 0.15 *. w)
      ()
  in
  let join_sched =
    Join_solver.schedule_of join ~ckpt:[| true; false; true; false |]
  in
  [
    agreement_case "figure 1 dag" (FM.make ~lambda:0.04 ~downtime:0.5 ()) figure1
      fig1_sched;
    agreement_case "figure 1 harsh" (FM.make ~lambda:0.15 ()) figure1 fig1_sched;
    agreement_case "chain" (FM.make ~lambda:0.08 ~downtime:1. ()) chain
      chain_sched;
    agreement_case "join" (FM.make ~lambda:0.1 ()) join join_sched;
  ]

let prop_simulator_matches_evaluator =
  (* statistical cross-validation on random DAGs: 5-sigma acceptance with
     fixed seeds keeps the flake probability negligible *)
  Wfc_test_util.qtest ~count:25 "simulated mean matches analytic expectation"
    (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ())
    Wfc_test_util.print_dag_schedule
    (fun (g, s) ->
      let model = FM.make ~lambda:0.05 ~downtime:0.5 () in
      let expected = Evaluator.expected_makespan model g s in
      let est = Monte_carlo.estimate ~runs:20_000 ~seed:23 model g s in
      Monte_carlo.agrees_with est ~expected ~sigmas:5.5)

let test_failure_count_identity () =
  (* with zero downtime, failures strike at rate lambda throughout the whole
     execution, so E[#failures] = lambda * E[makespan] — an identity tying
     the analytic evaluator to the simulator's failure counter *)
  let g =
    Builders.chain ~weights:[| 3.; 5.; 2.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let s =
    Schedule.make g ~order:[| 0; 1; 2; 3 |]
      ~checkpointed:[| true; false; true; false |]
  in
  let lambda = 0.09 in
  let model = FM.make ~lambda () in
  let expected_failures =
    lambda *. Evaluator.expected_makespan model g s
  in
  let est = Monte_carlo.estimate ~runs:40_000 ~seed:15 model g s in
  let mean = Stats.mean est.Monte_carlo.failures in
  let se = Stats.std_error est.Monte_carlo.failures in
  if Float.abs (mean -. expected_failures) > 5. *. se then
    Alcotest.failf "failures %.4f vs lambda * E[T] = %.4f (se %.4f)" mean
      expected_failures se

let test_quantiles_of_makespan () =
  let g = Builders.chain ~weights:[| 5.; 5. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  let model = FM.make ~lambda:0.05 () in
  let samples = Monte_carlo.makespan_samples ~runs:20_000 ~seed:19 model g s in
  let q50 = Wfc_platform.Sample_set.quantile samples 0.5 in
  let q99 = Wfc_platform.Sample_set.quantile samples 0.99 in
  Alcotest.(check bool) "median >= fail-free" true (q50 >= 10.);
  Alcotest.(check bool) "tail above median" true (q99 > q50);
  (* the mean of the samples agrees with the analytic expectation *)
  let expected = Evaluator.expected_makespan model g s in
  let stats = Wfc_platform.Sample_set.to_stats samples in
  if
    Float.abs (Stats.mean stats -. expected)
    > 5. *. Stats.std_error stats
  then Alcotest.fail "sample mean disagrees with evaluator"

let test_estimate_validation () =
  let g = Builders.chain ~weights:[| 1. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  match Monte_carlo.estimate ~runs:0 ~seed:1 (FM.make ~lambda:0.1 ()) g s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "runs = 0 accepted"

let test_failures_counted () =
  let g = Builders.chain ~weights:[| 10. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  let model = FM.make ~lambda:0.2 () in
  let est = Monte_carlo.estimate ~runs:5000 ~seed:9 model g s in
  (* geometric retries: expected failures = e^{lambda w} - 1 = e^2 - 1 *)
  let expected = Float.exp 2. -. 1. in
  let mean = Stats.mean est.Monte_carlo.failures in
  let se = Stats.std_error est.Monte_carlo.failures in
  if Float.abs (mean -. expected) > 5. *. se then
    Alcotest.failf "failure count %.3f vs expected %.3f (se %.3f)" mean expected se

(* ---- the executor against the pre-executor engine ---- *)

(* One lane on an unreplicated schedule is the old single-source engine,
   kept verbatim in the test utilities: same draws, same float operations,
   so makespan, failures and waste agree bit for bit — for memoryless and
   renewal sources alike. *)
let prop_executor_matches_reference =
  Wfc_test_util.qtest ~count:200 "executor = reference engine, bit for bit"
    QCheck2.Gen.(pair (Wfc_test_util.gen_dag_and_schedule ~max_n:10 ()) nat)
    (fun ((g, s), seed) ->
      Printf.sprintf "%s seed=%d" (Wfc_test_util.print_dag_schedule (g, s)) seed)
    (fun ((g, s), seed) ->
      let same (a : Sim.run) (b : Sim.run) =
        Int64.equal
          (Int64.bits_of_float a.Sim.makespan)
          (Int64.bits_of_float b.Sim.makespan)
        && a.Sim.failures = b.Sim.failures
        && Int64.equal
             (Int64.bits_of_float a.Sim.wasted)
             (Int64.bits_of_float b.Sim.wasted)
      in
      let rng () = Wfc_platform.Rng.create seed in
      let renewal () =
        Sim.renewal_source ~rng:(rng ())
          ~failures:(Wfc_platform.Distribution.weibull ~shape:0.8 ~scale:15.)
          ~downtime:(Wfc_platform.Distribution.exponential ~rate:2.)
      in
      List.for_all
        (fun model ->
          same
            (Sim.run ~rng:(rng ()) model g s)
            (Wfc_test_util.Sim_reference.run_with_source
               (Sim.source_of_model ~rng:(rng ()) model)
               g s))
        Wfc_test_util.models
      && same
           (Sim.run_with_source (renewal ()) g s)
           (Wfc_test_util.Sim_reference.run_with_source (renewal ()) g s))

(* The executor's state is allocated once per estimate: a run allocates
   only its failure draws and its summary, not O(n) arrays or per-attempt
   lists. Measured as the difference of two estimates, so the one-off setup
   cancels out. *)
let test_estimate_allocation () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let module H = Heuristics in
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Ligo ~n:400 ~seed:1) in
  let model = FM.of_mtbf ~mtbf:2000. () in
  let sched =
    (H.run ~search:(H.Grid 4) model g ~lin:Wfc_dag.Linearize.Depth_first
       ~ckpt:H.Ckpt_weight)
      .H.schedule
  in
  let words runs =
    let before = Gc.minor_words () in
    ignore (Monte_carlo.estimate ~runs ~seed:1 model g sched);
    Gc.minor_words () -. before
  in
  ignore (words 10);
  let per_run = (words 200 -. words 100) /. 100. in
  if per_run > 3000. then
    Alcotest.failf "%.0f minor words per run (budget 3000)" per_run

let () =
  Alcotest.run "simulator"
    [
      ( "simulator",
        [
          Alcotest.test_case "fail-free deterministic" `Quick
            test_fail_free_deterministic;
          Alcotest.test_case "reproducible" `Quick test_run_reproducible;
          Alcotest.test_case "makespan bounds" `Quick test_makespan_bounds;
          Alcotest.test_case "downtime counted" `Slow test_downtime_counted;
          Alcotest.test_case "failures counted" `Slow test_failures_counted;
          Alcotest.test_case "failure-count identity" `Slow
            test_failure_count_identity;
          Alcotest.test_case "makespan quantiles" `Slow
            test_quantiles_of_makespan;
          Alcotest.test_case "estimate validation" `Quick test_estimate_validation;
          prop_executor_matches_reference;
          Alcotest.test_case "estimate allocation per run" `Quick
            test_estimate_allocation;
        ] );
      ( "agreement",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Slow f)
          (agreement_cases ())
        @ [ prop_simulator_matches_evaluator ] );
    ]
