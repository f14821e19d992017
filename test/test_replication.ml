(* Differential pins for the replication axis.

   The load-bearing invariant: an all-ones replica vector is the paper's
   unreplicated model, and must be indistinguishable from it — analytically
   (Replication.evaluate vs Evaluator, bit for bit) and in simulation (one
   failure lane vs run_with_source, the fault engine at zero fault
   probability vs the plain lane engine). On top of that, the generalized
   per-attempt math must agree with the paper's Eq. (1) at r = 1 and with
   Monte Carlo at r > 1. *)

module FM = Wfc_platform.Failure_model
module D = Wfc_platform.Distribution
module Rng = Wfc_platform.Rng
module Sim = Wfc_simulator.Sim
module SF = Wfc_simulator.Sim_faults
module Faults = Wfc_test_util.Sim_faults_run
module T = Wfc_simulator.Trace_io
open Wfc_core

let gen_case = QCheck2.Gen.(pair (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ()) nat)

let print_case ((g, s), seed) =
  Printf.sprintf "%s seed=%d" (Wfc_test_util.print_dag_schedule (g, s)) seed

(* random replica counts in 1..3 on top of a random schedule *)
let gen_replicated =
  QCheck2.Gen.(
    let* (g, s), seed = gen_case in
    let n = Wfc_dag.Dag.n_tasks g in
    let* reps = array_repeat n (int_range 1 3) in
    (* at least one task genuinely replicated: the laned engines reject
       ?lanes on unreplicated schedules by design *)
    if Array.for_all (( = ) 1) reps then reps.(n - 1) <- 2;
    return ((g, Schedule.with_replicas s reps), seed))

let same_run (a : Sim.run) (b : Sim.run) =
  a.Sim.makespan = b.Sim.makespan
  && a.Sim.failures = b.Sim.failures
  && a.Sim.wasted = b.Sim.wasted

(* ---- all-ones is the unreplicated model ---- *)

let prop_all_ones_evaluator =
  Wfc_test_util.qtest ~count:200
    "Replication.evaluate at all-ones = Evaluator within 1e-9"
    gen_case print_case
    (fun ((g, s), _) ->
      List.for_all
        (fun model ->
          let r = Replication.evaluate model g s in
          let e = Evaluator.evaluate model g s in
          Wfc_test_util.close r.Replication.makespan e.Evaluator.makespan
          && Array.for_all2 Wfc_test_util.close r.Replication.per_position
               e.Evaluator.per_position
          && Array.for_all2 Wfc_test_util.close
               r.Replication.fault_probability e.Evaluator.fault_probability)
        Wfc_test_util.models)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : Evaluator.result) (b : Evaluator.result) =
  same_bits a.Evaluator.makespan b.Evaluator.makespan
  && Array.for_all2 same_bits a.Evaluator.per_position b.Evaluator.per_position
  && Array.for_all2 same_bits a.Evaluator.fault_probability
       b.Evaluator.fault_probability

(* one recurrence serves both: at one replica per task the replicated
   oracle takes the plain oracle's operations, whatever the surcharge *)
let prop_all_ones_bitwise =
  Wfc_test_util.qtest ~count:200
    "all-ones replicated oracle = plain oracle, bitwise" gen_case print_case
    (fun ((g, s), _) ->
      let ones = Schedule.with_replicas s (Array.make (Schedule.n_tasks s) 1) in
      List.for_all
        (fun model ->
          same_result
            (Replication.evaluate ~cost:0.7 model g ones)
            (Evaluator.evaluate model g s))
        Wfc_test_util.models)

let prop_all_ones_engine =
  Wfc_test_util.qtest ~count:150
    "handle ~replicas:all-ones is bit-identical to handle without"
    gen_case print_case
    (fun ((g, s), _) ->
      let ones = Schedule.with_replicas s (Array.make (Schedule.n_tasks s) 1) in
      List.for_all
        (fun model ->
          same_result
            (Evaluator.evaluate model g ones)
            (Evaluator.evaluate model g s))
        Wfc_test_util.models)

let prop_one_lane_is_run_with_source =
  Wfc_test_util.qtest ~count:150
    "run_with_lanes with one lane = run_with_source, bit for bit"
    gen_case print_case
    (fun ((g, s), seed) ->
      let trace =
        T.draw_renewal
          ~rng:(Rng.create seed)
          ~failures:(D.exponential ~rate:0.05)
          ~downtime:(D.constant 0.4) ~min_uptime:5_000.
      in
      let reference =
        Sim.run_with_source (T.replay_source trace).T.source g s
      in
      let laned =
        Sim.run_with_lanes [| (T.replay_source trace).T.source |] g s
      in
      same_run reference laned)

let prop_run_dispatch_unchanged =
  Wfc_test_util.qtest ~count:150
    "Sim.run on an unreplicated schedule ignores the replication plumbing"
    gen_case print_case
    (fun ((g, s), seed) ->
      List.for_all
        (fun model ->
          same_run
            (Sim.run ~rng:(Rng.create seed) model g s)
            (Sim.run ~replica_cost:0.25 ~rng:(Rng.create seed) model g s))
        Wfc_test_util.models)

(* ---- replicated fault engine at zero fault probability ---- *)

let prop_sim_faults_zero_faults =
  Wfc_test_util.qtest ~count:100
    "replicated Sim_faults at p=0 = Sim.run_with_lanes, bit for bit"
    gen_replicated print_case
    (fun ((g, s), seed) ->
      let max_r = Schedule.max_replica_count s in
      let draw lane =
        T.draw_renewal
          ~rng:(Rng.create (seed + (lane * 7919)))
          ~failures:(D.weibull ~shape:1.3 ~scale:40.)
          ~downtime:(D.exponential ~rate:1.5) ~min_uptime:20_000.
      in
      let traces = Array.init max_r draw in
      let lanes () =
        Array.map (fun t -> (T.replay_source t).T.source) traces
      in
      let params =
        {
          SF.failures = D.exponential ~rate:0.02;
          downtime = D.constant 0.1;
          p_ckpt_fail = 0.;
          p_rec_fail = 0.;
          max_failures = 0;
        }
      in
      let faulty =
        Faults.run ~lanes:(lanes ()) ~rng:(Rng.create seed) params g s
      in
      let plain = Sim.run_with_lanes (lanes ()) g s in
      faulty.Faults.makespan = plain.Sim.makespan
      && faulty.Faults.failures = plain.Sim.failures
      && faulty.Faults.wasted = plain.Sim.wasted
      && faulty.Faults.corrupt_reads = 0
      && faulty.Faults.failed_recoveries = 0)

(* ---- the per-attempt math ---- *)

let prop_attempt_time_r1 =
  Wfc_test_util.qtest ~count:300 "expected_attempt_time at r=1 = Eq. (1)"
    QCheck2.Gen.(
      tup5 (float_range 1e-4 0.3) (float_range 0. 3.) (float_range 0.5 50.)
        (float_range 0. 5.) (float_range 0. 5.))
    (fun (lambda, downtime, work, checkpoint, recovery) ->
      Printf.sprintf "l=%g d=%g w=%g c=%g r=%g" lambda downtime work checkpoint
        recovery)
    (fun (lambda, downtime, work, checkpoint, recovery) ->
      let model = FM.make ~lambda ~downtime () in
      Wfc_test_util.close
        (Replication.expected_attempt_time ~lambda ~downtime ~r:1 ~work
           ~checkpoint ~recovery)
        (FM.expected_exec_time model ~work ~checkpoint ~recovery))

(* lambda (w + c + R) = 18: the retry survival 1 - q1 is ~1.5e-8, where
   computing it as a subtraction kept only seven digits *)
let test_attempt_time_r1_harsh () =
  let lambda = 0.3 and downtime = 0. in
  let work = 50. and checkpoint = 5. and recovery = 5. in
  let model = FM.make ~lambda ~downtime () in
  Wfc_test_util.check_close ~eps:1e-12 "Eq. (1)"
    (FM.expected_exec_time model ~work ~checkpoint ~recovery)
    (Replication.expected_attempt_time ~lambda ~downtime ~r:1 ~work
       ~checkpoint ~recovery)

let prop_replication_never_hurts_reliability =
  Wfc_test_util.qtest ~count:300
    "attempt failure probability decreases in r"
    QCheck2.Gen.(pair (float_range 1e-4 0.5) (float_range 0.1 100.))
    (fun (lambda, t) -> Printf.sprintf "l=%g t=%g" lambda t)
    (fun (lambda, t) ->
      let q r = Replication.attempt_failure_probability ~lambda ~r t in
      q 2 <= q 1 && q 3 <= q 2 && q 4 <= q 3 && q 1 <= 1. && q 4 >= 0.)

let test_free_replicas_at_zero_cost () =
  (* with cost 0 an extra replica never increases the effective weight *)
  Wfc_test_util.check_close "cost 0" 5.
    (Replication.effective_weight ~cost:0. ~weight:5. ~r:3);
  Wfc_test_util.check_close "cost 1 r 3" 15.
    (Replication.effective_weight ~cost:1. ~weight:5. ~r:3);
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Replication: negative replica cost") (fun () ->
      ignore (Replication.effective_weight ~cost:(-0.1) ~weight:1. ~r:2))

(* a two-task chain where replication must help: harsh failures, cheap
   copies — the replicated makespan is strictly below the unreplicated *)
let test_replication_helps_when_cheap () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 30.; 30. |]
      ~checkpoint_cost:(fun _ w -> 0.5 *. w)
      ~recovery_cost:(fun _ w -> 0.5 *. w)
      ()
  in
  let model = FM.make ~lambda:0.05 ~downtime:1. () in
  let s = Schedule.make g ~order:[| 0; 1 |] ~checkpointed:[| true; false |] in
  let plain = Evaluator.expected_makespan model g s in
  let replicated =
    Evaluator.expected_makespan ~replica_cost:0.1 model g
      (Schedule.with_replicas s [| 3; 3 |])
  in
  if not (replicated < plain) then
    Alcotest.failf "replication did not help: %.4f >= %.4f" replicated plain

(* ---- Monte Carlo cross-validation of the replicated evaluator ---- *)

let test_mc_cross_validation () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 12.; 20.; 8. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let model = FM.make ~lambda:0.03 ~downtime:0.5 () in
  let s =
    Schedule.make ~replicas:[| 2; 3; 1 |] g ~order:[| 0; 1; 2 |]
      ~checkpointed:[| true; false; true |]
  in
  let cost = 0.3 in
  let analytic = Evaluator.expected_makespan ~replica_cost:cost model g s in
  let est =
    Wfc_simulator.Monte_carlo.estimate ~replica_cost:cost ~runs:60_000 ~seed:5
      model g s
  in
  let mean = Wfc_platform.Stats.mean est.Wfc_simulator.Monte_carlo.makespan in
  let lo, hi = Wfc_platform.Stats.confidence95 est.Wfc_simulator.Monte_carlo.makespan in
  (* 3x the CI half-width, plus a small absolute floor *)
  let slack = (3. *. ((hi -. lo) /. 2.)) +. 0.05 in
  if Float.abs (analytic -. mean) > slack then
    Alcotest.failf "analytic %.4f vs simulated %.4f (CI [%.4f, %.4f])" analytic
      mean lo hi

(* ---- policy machinery ---- *)

let test_spec_parsing () =
  let check s expected =
    Alcotest.(check bool)
      (Printf.sprintf "parse %S" s) true
      (Replication.spec_of_string s = expected)
  in
  check "auto" (Some Replication.Auto);
  check "NONE" (Some Replication.No_replication);
  check "k:3" (Some (Replication.Heavy 3));
  check "budget:0.25" (Some (Replication.Budget 0.25));
  check "k:0" None;
  check "budget:-1" None;
  check "budget:nan" None;
  check "zebra" None;
  check "k:two" None

let test_replication_counts () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 5.; 40.; 10.; 25. |]
      ~checkpoint_cost:(fun _ w -> 0.3 *. w)
      ~recovery_cost:(fun _ w -> 0.3 *. w)
      ()
  in
  let model = FM.make ~lambda:0.04 ~downtime:1. () in
  let sched = Schedule.no_checkpoints g ~order:[| 0; 1; 2; 3 |] in
  let none =
    fst (Heuristics.replication_counts Replication.No_replication model g ~sched)
  in
  Alcotest.(check bool) "none = all ones" true (Array.for_all (( = ) 1) none);
  let heavy =
    fst (Heuristics.replication_counts (Replication.Heavy 2) model g ~sched)
  in
  Alcotest.(check int) "heavy picks T1" 2 heavy.(1);
  Alcotest.(check int) "heavy picks T3" 2 heavy.(3);
  Alcotest.(check int) "heavy skips T0" 1 heavy.(0);
  let budget =
    fst
      (Heuristics.replication_counts ~cost:0.1 (Replication.Budget 0.5) model
         g ~sched)
  in
  (* the greedy spend never exceeds the budget: sum of extra work <= f * W *)
  let spent = ref 0. in
  Array.iteri
    (fun v r ->
      spent :=
        !spent
        +. (0.1 *. (Wfc_dag.Dag.task g v).Wfc_dag.Task.weight
            *. float_of_int (r - 1)))
    budget;
  Alcotest.(check bool) "budget respected" true
    (!spent <= (0.5 *. Wfc_dag.Dag.total_weight g) +. 1e-9)

(* the kernel greedy buys what the recurrence-scored greedy bought, on
   every instance whose decisions are wider apart than the two scorers'
   last-ulp disagreement *)
let prop_kernel_greedy =
  Wfc_test_util.qtest ~count:150 "kernel greedy = recurrence greedy"
    QCheck2.Gen.(
      quad
        (Wfc_test_util.gen_dag_and_schedule ~max_n:12 ())
        (float_range 0.005 0.3) (float_range 0.05 1.) (float_range 0.1 1.))
    (fun (gs, lambda, cost, fraction) ->
      Printf.sprintf "%s lambda=%g cost=%g budget=%g"
        (Wfc_test_util.print_dag_schedule gs) lambda cost fraction)
    (fun ((g, sched), lambda, cost, fraction) ->
      let model = FM.make ~lambda ~downtime:0.5 () in
      let want, margin =
        Wfc_test_util.Replication_reference.budget_counts ~cost ~fraction
          model g ~sched
      in
      QCheck2.assume (margin > 1e-9);
      fst
        (Heuristics.replication_counts ~cost (Replication.Budget fraction)
           model g ~sched)
      = want)

let test_local_search_replicated () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 15.; 25.; 10. |]
      ~checkpoint_cost:(fun _ w -> 0.4 *. w)
      ~recovery_cost:(fun _ w -> 0.4 *. w)
      ()
  in
  let model = FM.make ~lambda:0.05 ~downtime:1. () in
  let seed =
    Schedule.make ~replicas:[| 2; 1; 1 |] g ~order:[| 0; 1; 2 |]
      ~checkpointed:[| false; false; false |]
  in
  let r = Local_search.improve ~replica_cost:0.15 model g seed in
  Alcotest.(check bool) "never degrades" true
    (r.Local_search.makespan <= r.Local_search.initial_makespan);
  (* the reported makespan is the kernel's, within 1e-9 of the
     replication-aware oracle *)
  Wfc_test_util.check_close "oracle value" r.Local_search.makespan
    (Evaluator.expected_makespan ~replica_cost:0.15 model g
       r.Local_search.schedule)

let () =
  Alcotest.run "replication"
    [
      ( "all-ones parity",
        [
          prop_all_ones_evaluator;
          prop_all_ones_engine;
          prop_all_ones_bitwise;
          prop_one_lane_is_run_with_source;
          prop_run_dispatch_unchanged;
        ] );
      ( "fault engine",
        [ prop_sim_faults_zero_faults ] );
      ( "attempt math",
        [
          prop_attempt_time_r1;
          Alcotest.test_case "Eq. (1) where retries almost surely fail" `Quick
            test_attempt_time_r1_harsh;
          prop_replication_never_hurts_reliability;
          Alcotest.test_case "effective weight" `Quick
            test_free_replicas_at_zero_cost;
          Alcotest.test_case "replication helps when cheap" `Quick
            test_replication_helps_when_cheap;
          Alcotest.test_case "Monte Carlo cross-validation" `Slow
            test_mc_cross_validation;
        ] );
      ( "policies",
        [
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "replication_counts" `Quick
            test_replication_counts;
          Alcotest.test_case "local search" `Quick
            test_local_search_replicated;
          prop_kernel_greedy;
        ] );
    ]
