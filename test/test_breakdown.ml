(* Parallel Monte Carlo, activity breakdown and the energy model. *)

open Wfc_core
open Wfc_simulator
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model
module Stats = Wfc_platform.Stats

let chain () =
  Builders.chain
    ~weights:[| 4.; 6.; 2.; 5. |]
    ~checkpoint_cost:(fun _ _ -> 1.5)
    ~recovery_cost:(fun _ _ -> 1.)
    ()

let sched g =
  Schedule.make g ~order:[| 0; 1; 2; 3 |]
    ~checkpointed:[| true; false; true; false |]

(* ---- parallel Monte Carlo ---- *)

let test_parallel_matches_analytic () =
  let g = chain () in
  let s = sched g in
  let model = FM.make ~lambda:0.06 ~downtime:0.4 () in
  let expected = Evaluator.expected_makespan model g s in
  let est =
    Monte_carlo.estimate_parallel ~runs:40_000 ~domains:4 ~seed:5 model g s
  in
  Alcotest.(check int) "all runs counted" 40_000 (Stats.count est.Monte_carlo.makespan);
  if not (Monte_carlo.agrees_with est ~expected ~sigmas:5.) then
    Alcotest.failf "parallel estimate %.4f vs analytic %.4f"
      (Stats.mean est.Monte_carlo.makespan)
      expected

let test_parallel_deterministic () =
  let g = chain () in
  let s = sched g in
  let model = FM.make ~lambda:0.1 () in
  let run () =
    Stats.mean
      (Monte_carlo.estimate_parallel ~runs:2000 ~domains:3 ~seed:9 model g s)
        .Monte_carlo.makespan
  in
  Wfc_test_util.check_close "deterministic in (seed, domains)" (run ()) (run ())

let test_parallel_validation () =
  let g = chain () in
  let s = sched g in
  let model = FM.make ~lambda:0.1 () in
  (match Monte_carlo.estimate_parallel ~runs:0 ~seed:1 model g s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "runs = 0 accepted");
  match Monte_carlo.estimate_parallel ~runs:10 ~domains:0 ~seed:1 model g s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains = 0 accepted"

let test_parallel_more_domains_than_runs () =
  let g = chain () in
  let s = sched g in
  let model = FM.make ~lambda:0.1 () in
  let est = Monte_carlo.estimate_parallel ~runs:3 ~domains:16 ~seed:2 model g s in
  Alcotest.(check int) "3 runs" 3 (Stats.count est.Monte_carlo.makespan)

(* ---- breakdown ---- *)

let test_breakdown_fail_free () =
  let g = chain () in
  let s = sched g in
  let b = Sim_breakdown.run ~rng:(Wfc_platform.Rng.create 1) FM.fail_free g s in
  Wfc_test_util.check_close "compute = W" 17. b.Sim_breakdown.useful_compute;
  Wfc_test_util.check_close "checkpoint = 2 writes" 3. b.Sim_breakdown.checkpoint;
  Wfc_test_util.check_close "no recompute" 0. b.Sim_breakdown.recompute;
  Wfc_test_util.check_close "no recovery" 0. b.Sim_breakdown.recovery;
  Wfc_test_util.check_close "no loss" 0. b.Sim_breakdown.lost;
  Wfc_test_util.check_close "makespan = W + C" 20. b.Sim_breakdown.makespan

let test_breakdown_identity () =
  let g = chain () in
  let s = sched g in
  let model = FM.make ~lambda:0.08 ~downtime:0.7 () in
  let rng = Wfc_platform.Rng.create 7 in
  for _ = 1 to 300 do
    let b = Sim_breakdown.run ~rng model g s in
    Wfc_test_util.check_close "sum of activities = makespan"
      (b.Sim_breakdown.useful_compute +. b.Sim_breakdown.recompute
      +. b.Sim_breakdown.checkpoint +. b.Sim_breakdown.recovery
      +. b.Sim_breakdown.lost +. b.Sim_breakdown.downtime)
      b.Sim_breakdown.makespan;
    Wfc_test_util.check_close "useful compute is exactly W" 17.
      b.Sim_breakdown.useful_compute;
    Wfc_test_util.check_close "downtime = failures * D"
      (0.7 *. float_of_int b.Sim_breakdown.failures)
      b.Sim_breakdown.downtime
  done

let test_breakdown_same_draws_as_sim () =
  let g = chain () in
  let s = sched g in
  let model = FM.make ~lambda:0.1 ~downtime:1. () in
  let b = Sim_breakdown.run ~rng:(Wfc_platform.Rng.create 11) model g s in
  let r = Sim.run ~rng:(Wfc_platform.Rng.create 11) model g s in
  Alcotest.(check int64) "same makespan, bit for bit"
    (Int64.bits_of_float r.Sim.makespan)
    (Int64.bits_of_float b.Sim_breakdown.makespan);
  Alcotest.(check int) "same failures" r.Sim.failures b.Sim_breakdown.failures

let test_breakdown_mean_matches_analytic () =
  let g = chain () in
  let s = sched g in
  let model = FM.make ~lambda:0.05 () in
  let rng = Wfc_platform.Rng.create 13 in
  let stats = Stats.create () in
  for _ = 1 to 30_000 do
    Stats.add stats (Sim_breakdown.run ~rng model g s).Sim_breakdown.makespan
  done;
  let expected = Evaluator.expected_makespan model g s in
  if Float.abs (Stats.mean stats -. expected) > 5. *. Stats.std_error stats then
    Alcotest.fail "breakdown engine drifts from the evaluator"

(* ---- energy ---- *)

let test_energy_fail_free () =
  let g = chain () in
  let s = sched g in
  let e =
    Energy.estimate ~runs:10 ~seed:1 FM.fail_free g s
  in
  Wfc_test_util.check_close "deterministic closed form"
    (Energy.fail_free_energy Energy.default_power g s)
    (Stats.mean e.Energy.energy);
  (* 100 W * 17 s + 30 W * 3 s *)
  Wfc_test_util.check_close "value" 1790.
    (Energy.fail_free_energy Energy.default_power g s)

let test_energy_increases_with_failures () =
  let g = chain () in
  let s = sched g in
  let mean lambda =
    Stats.mean
      (Energy.estimate ~runs:5000 ~seed:3 (FM.make ~lambda ()) g s).Energy.energy
  in
  Alcotest.(check bool) "failures cost energy" true (mean 0.1 > mean 0.001)

let test_energy_custom_power () =
  let g = chain () in
  let s = sched g in
  let zero_io = { Energy.default_power with Energy.p_io = 0. } in
  Wfc_test_util.check_close "io excluded" 1700.
    (Energy.fail_free_energy zero_io g s)

let () =
  Alcotest.run "breakdown"
    [
      ( "parallel",
        [
          Alcotest.test_case "matches analytic" `Slow
            test_parallel_matches_analytic;
          Alcotest.test_case "deterministic" `Quick test_parallel_deterministic;
          Alcotest.test_case "validation" `Quick test_parallel_validation;
          Alcotest.test_case "domains > runs" `Quick
            test_parallel_more_domains_than_runs;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "fail-free" `Quick test_breakdown_fail_free;
          Alcotest.test_case "activity identity" `Quick test_breakdown_identity;
          Alcotest.test_case "same draws as Sim" `Quick
            test_breakdown_same_draws_as_sim;
          Alcotest.test_case "mean matches evaluator" `Slow
            test_breakdown_mean_matches_analytic;
        ] );
      ( "energy",
        [
          Alcotest.test_case "fail-free closed form" `Quick test_energy_fail_free;
          Alcotest.test_case "failures cost energy" `Slow
            test_energy_increases_with_failures;
          Alcotest.test_case "custom power" `Quick test_energy_custom_power;
        ] );
    ]
