module D = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module Rng = Wfc_platform.Rng
module Stats = Wfc_platform.Stats
module SF = Wfc_simulator.Sim_faults
module Faults = Wfc_test_util.Sim_faults_run
module MC = Wfc_simulator.Monte_carlo

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---- bit-identical equivalence with the trusted engine ---- *)

(* With all fault probabilities zero, constant downtime and exponential
   failures, a fault-engine run must make exactly the same draws as Sim.run and
   return bit-identical results — the acceptance property of the issue. *)
let prop_zero_faults_bit_identical =
  Wfc_test_util.qtest ~count:150 "zero faults = Sim.run, bit for bit"
    QCheck2.Gen.(pair (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ()) nat)
    (fun ((g, s), seed) ->
      Printf.sprintf "%s seed=%d" (Wfc_test_util.print_dag_schedule (g, s)) seed)
    (fun ((g, s), seed) ->
      List.for_all
        (fun model ->
          model.FM.lambda = 0.
          ||
          let reference =
            Wfc_simulator.Sim.run ~rng:(Rng.create seed) model g s
          in
          let faulty =
            Faults.run ~rng:(Rng.create seed) (SF.nominal model) g s
          in
          (* exact float equality: same stream, same arithmetic *)
          reference.Wfc_simulator.Sim.makespan = faulty.Faults.makespan
          && reference.Wfc_simulator.Sim.failures = faulty.Faults.failures
          && reference.Wfc_simulator.Sim.wasted = faulty.Faults.wasted
          && faulty.Faults.corrupt_reads = 0
          && faulty.Faults.failed_recoveries = 0
          && not faulty.Faults.truncated)
        Wfc_test_util.models)

(* ---- corruption makes things strictly worse ---- *)

let chain_schedule () =
  (* every task checkpointed: corrupt checkpoints are the only fallback
     path, so p_ckpt_fail dominates the makespan *)
  let g =
    Wfc_dag.Builders.chain
      ~weights:[| 5.; 5.; 5.; 5.; 5.; 5. |]
      ~checkpoint_cost:(fun _ _ -> 0.5)
      ~recovery_cost:(fun _ _ -> 0.5)
      ()
  in
  let s =
    Wfc_core.Schedule.make g ~order:[| 0; 1; 2; 3; 4; 5 |]
      ~checkpointed:(Array.make 6 true)
  in
  (g, s)

let test_corruption_monotone () =
  let g, s = chain_schedule () in
  let nominal = SF.nominal (FM.make ~lambda:0.05 ~downtime:1. ()) in
  let mean p =
    let est =
      MC.estimate_faults ~runs:4000 ~seed:11
        { nominal with SF.p_ckpt_fail = p }
        g s
    in
    ( Stats.mean est.MC.summary.MC.makespan,
      Stats.mean est.MC.corrupt_reads )
  in
  let m0, c0 = mean 0. in
  let m04, c04 = mean 0.4 in
  let m08, c08 = mean 0.8 in
  Alcotest.(check (float 0.)) "no corruption at p=0" 0. c0;
  Alcotest.(check bool) "corrupt reads observed" true (c04 > 0.1 && c08 > c04);
  Alcotest.(check bool)
    (Printf.sprintf "means increase: %.1f < %.1f < %.1f" m0 m04 m08)
    true
    (m0 < m04 && m04 < m08)

let test_flaky_recovery_monotone () =
  let g, s = chain_schedule () in
  let nominal = SF.nominal (FM.make ~lambda:0.05 ~downtime:1. ()) in
  let mean p =
    let est =
      MC.estimate_faults ~runs:4000 ~seed:13
        { nominal with SF.p_rec_fail = p }
        g s
    in
    ( Stats.mean est.MC.summary.MC.makespan,
      Stats.mean est.MC.failed_recoveries )
  in
  let m0, f0 = mean 0. in
  let m05, f05 = mean 0.5 in
  Alcotest.(check (float 0.)) "no failed recoveries at p=0" 0. f0;
  Alcotest.(check bool) "failed recoveries observed" true (f05 > 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "flaky recovery costs: %.1f < %.1f" m0 m05)
    true (m0 < m05)

(* ---- downtime distributions ---- *)

let test_random_downtime_mean () =
  (* exponential downtime with the same mean as the constant leaves the
     expected makespan unchanged (downtime enters linearly) *)
  let g, s = chain_schedule () in
  let model = FM.make ~lambda:0.05 ~downtime:2. () in
  let nominal = SF.nominal model in
  let const_est = MC.estimate_faults ~runs:20_000 ~seed:17 nominal g s in
  let random_est =
    MC.estimate_faults ~runs:20_000 ~seed:19
      { nominal with SF.downtime = D.exponential ~rate:0.5 }
      g s
  in
  let mc = Stats.mean const_est.MC.summary.MC.makespan in
  let mr = Stats.mean random_est.MC.summary.MC.makespan in
  let se =
    Float.max
      (Stats.std_error const_est.MC.summary.MC.makespan)
      (Stats.std_error random_est.MC.summary.MC.makespan)
  in
  Alcotest.(check bool)
    (Printf.sprintf "same mean: %.2f vs %.2f" mc mr)
    true
    (Float.abs (mc -. mr) <= 6. *. se)

(* ---- the max_failures valve ---- *)

let test_truncation_valve () =
  (* a restart-only schedule under a harsh platform: without the valve this
     run would take e^{lambda W} attempts *)
  let g =
    Wfc_dag.Builders.chain ~weights:(Array.make 10 100.) ()
  in
  let s =
    Wfc_core.Schedule.make g
      ~order:(Array.init 10 Fun.id)
      ~checkpointed:(Array.make 10 false)
  in
  let params =
    {
      (SF.nominal (FM.make ~lambda:0.1 ~downtime:0. ())) with
      SF.max_failures = 50;
    }
  in
  let out = Faults.run ~rng:(Rng.create 3) params g s in
  Alcotest.(check bool) "truncated" true out.Faults.truncated;
  Alcotest.(check int) "stopped at the cap" 50 out.Faults.failures;
  let est = MC.estimate_faults ~runs:20 ~seed:3 params g s in
  Alcotest.(check int) "all runs truncated" 20 est.MC.truncated_runs

(* ---- determinism and validation ---- *)

let test_estimate_deterministic () =
  let g, s = chain_schedule () in
  let params =
    {
      (SF.nominal (FM.make ~lambda:0.05 ~downtime:1. ())) with
      SF.p_ckpt_fail = 0.2;
      p_rec_fail = 0.1;
    }
  in
  let a = MC.estimate_faults ~runs:500 ~seed:42 params g s in
  let b = MC.estimate_faults ~runs:500 ~seed:42 params g s in
  Alcotest.(check (float 0.))
    "same mean"
    (Stats.mean a.MC.summary.MC.makespan)
    (Stats.mean b.MC.summary.MC.makespan);
  Alcotest.(check (float 0.))
    "same corrupt reads"
    (Stats.mean a.MC.corrupt_reads)
    (Stats.mean b.MC.corrupt_reads)

let test_validation () =
  let g, s = chain_schedule () in
  let nominal = SF.nominal (FM.make ~lambda:0.05 ()) in
  let run params = ignore (Faults.run ~rng:(Rng.create 1) params g s) in
  expect_invalid (fun () -> run { nominal with SF.p_ckpt_fail = -0.1 });
  expect_invalid (fun () -> run { nominal with SF.p_ckpt_fail = 1.5 });
  expect_invalid (fun () -> run { nominal with SF.p_rec_fail = 1. });
  expect_invalid (fun () -> run { nominal with SF.max_failures = -1 });
  expect_invalid (fun () -> ignore (SF.nominal FM.fail_free));
  expect_invalid (fun () -> ignore (MC.estimate_faults ~runs:0 ~seed:1 nominal g s))

let () =
  Alcotest.run "sim_faults"
    [
      ( "equivalence",
        [ prop_zero_faults_bit_identical ] );
      ( "faults",
        [
          Alcotest.test_case "corruption monotone" `Slow
            test_corruption_monotone;
          Alcotest.test_case "flaky recovery monotone" `Slow
            test_flaky_recovery_monotone;
          Alcotest.test_case "random downtime mean" `Slow
            test_random_downtime_mean;
          Alcotest.test_case "truncation valve" `Quick test_truncation_valve;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "estimate deterministic" `Quick
            test_estimate_deterministic;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
