(* The adaptive executor: determinism when replanning is off, suffix
   replans on a reused engine against a fresh one and the oracle,
   trigger/estimation semantics, plan validation, and the headline
   property — adaptivity beats a misspecified static plan. *)

module D = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module Rng = Wfc_platform.Rng
module Sim = Wfc_simulator.Sim
module SA = Wfc_simulator.Sim_adaptive
module T = Wfc_simulator.Trace_io
module SD = Wfc_resilience.Solver_driver

let same_run (a : Sim.run) (b : Sim.run) =
  a.Sim.makespan = b.Sim.makespan
  && a.Sim.failures = b.Sim.failures
  && a.Sim.wasted = b.Sim.wasted

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let no_replan planning = { (SA.default_config planning) with SA.replan = None }

(* ---- determinism: replanning disabled = the static engine -------------- *)

let prop_disabled_is_static =
  Wfc_test_util.qtest ~count:120 "replay with replanning off = static run"
    QCheck2.Gen.(pair (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ()) nat)
    (fun ((g, s), seed) ->
      Printf.sprintf "%s seed=%d" (Wfc_test_util.print_dag_schedule (g, s)) seed)
    (fun ((g, s), seed) ->
      let attempts_ok =
        List.for_all
          (fun model ->
            let reference, trace =
              T.record_run ~rng:(Rng.create seed) model g s
            in
            let state = T.replay_source trace in
            let r = SA.run (no_replan model) ~source:state.T.source g s in
            same_run reference r.SA.run && r.SA.replans = 0)
          Wfc_test_util.models
      in
      (* the renewal replay of a countdown execution also matches *)
      let reference, renewal =
        T.record_renewal ~rng:(Rng.create seed)
          ~failures:(D.weibull ~shape:1.4 ~scale:40.)
          ~downtime:(D.constant 0.5) g s
      in
      let state = T.replay_source renewal in
      let planning = List.hd Wfc_test_util.models in
      let r = SA.run (no_replan planning) ~source:state.T.source g s in
      attempts_ok && same_run reference r.SA.run)

(* ---- suffix replans: reused engine vs from-scratch, at 1e-9 ------------ *)

let prop_suffix_engine_reuse =
  Wfc_test_util.qtest ~count:100 "solve_suffix: engine reuse = from-scratch"
    QCheck2.Gen.(pair (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ()) nat)
    (fun ((g, s), from) ->
      Printf.sprintf "%s from=%d" (Wfc_test_util.print_dag_schedule (g, s)) from)
    (fun ((g, s), from) ->
      let n = Wfc_core.Schedule.n_tasks s in
      let order = Array.init n (Wfc_core.Schedule.task_at s) in
      let flags = Array.init n (Wfc_core.Schedule.is_checkpointed s) in
      let from = from mod (n + 1) in
      let planning = FM.make ~lambda:1e-3 ~downtime:1. () in
      let model = FM.make ~lambda:0.08 ~downtime:0.5 () in
      (* the reused engine starts bound to another model and warm rows:
         set_model must rebind it without corrupting the cache *)
      let engine = Wfc_core.Flat_engine.create ~flags planning g ~order in
      ignore (Wfc_core.Flat_engine.makespan engine);
      let reused =
        SD.solve_suffix ~budget:64 ~engine model g ~order ~flags ~from
      in
      let fresh = SD.solve_suffix ~budget:64 model g ~order ~flags ~from in
      (* the oracle's suffix sum for the chosen flags *)
      let oracle =
        let r =
          Wfc_core.Evaluator.evaluate model g
            (Wfc_core.Schedule.make g ~order ~checkpointed:reused.SD.flags)
        in
        let sum = ref 0. in
        for i = from to n - 1 do
          sum := !sum +. r.Wfc_core.Evaluator.per_position.(i)
        done;
        !sum
      in
      (* engines take bit-identical search paths; the oracle agrees at 1e-9 *)
      reused.SD.flags = fresh.SD.flags
      && reused.SD.expected_remaining = fresh.SD.expected_remaining
      && reused.SD.evaluations = fresh.SD.evaluations
      && Wfc_test_util.close reused.SD.expected_remaining oracle
      && reused.SD.evaluations <= 64
      && (* prefix flags pinned *)
      Array.for_all
        (fun p -> reused.SD.flags.(order.(p)) = flags.(order.(p)))
        (Array.init from (fun p -> p))
      && (* the engine is left holding the chosen flags *)
      Wfc_core.Flat_engine.flags engine = reused.SD.flags)

let prop_suffix_never_worse =
  Wfc_test_util.qtest ~count:100 "solve_suffix never worsens the incumbent"
    (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ())
    Wfc_test_util.print_dag_schedule
    (fun (g, s) ->
      let n = Wfc_core.Schedule.n_tasks s in
      let order = Array.init n (Wfc_core.Schedule.task_at s) in
      let flags = Array.init n (Wfc_core.Schedule.is_checkpointed s) in
      let model = FM.make ~lambda:0.05 ~downtime:1. () in
      let e = Wfc_core.Flat_engine.create ~flags model g ~order in
      let incumbent = Wfc_core.Flat_engine.suffix_makespan e ~from:0 in
      let r = SD.solve_suffix ~budget:32 model g ~order ~flags ~from:0 in
      r.SD.expected_remaining <= incumbent)

(* ---- crafted renewal traces make the trigger semantics exact ----------- *)

let one_task ~weight =
  let g =
    Wfc_dag.Builders.chain ~weights:[| weight |]
      ~checkpoint_cost:(fun _ _ -> 0.5)
      ~recovery_cost:(fun _ _ -> 0.5)
      ()
  in
  (g, Wfc_core.Schedule.no_checkpoints g ~order:[| 0 |])

(* six failures 2s in, then a window wide enough to finish a 10s task *)
let six_failures_trace () =
  T.Renewal
    {
      uptimes = [| 2.; 2.; 2.; 2.; 2.; 2.; 20. |];
      downtimes = [| 1.; 1.; 1.; 1.; 1.; 1. |];
    }

let counting_replanner calls result =
 fun ~model:_ ~order ~flags ~from:_ ->
  incr calls;
  match result with
  | `Keep -> None
  | `Identity -> Some { SA.order; flags }

let run_counting ~trigger ~min_observations ~planning result =
  let g, s = one_task ~weight:10. in
  let calls = ref 0 in
  let config =
    {
      SA.planning;
      trigger;
      min_observations;
      replan = Some (counting_replanner calls result);
    }
  in
  let state = T.replay_source (six_failures_trace ()) in
  let r = SA.run config ~source:state.T.source g s in
  (r, !calls)

let test_triggers () =
  (* the trace's MLE is exactly 0.5: f failures over 2f uptime seconds *)
  let planning = FM.make ~lambda:0.5 ~downtime:1. () in
  let r, calls =
    run_counting ~trigger:SA.Every_failure ~min_observations:1 ~planning `Keep
  in
  Alcotest.(check int) "six failures" 6 r.SA.run.Sim.failures;
  Alcotest.(check int) "every failure" 6 calls;
  Alcotest.(check int) "kept plans are not replans" 0 r.SA.replans;
  let _, calls =
    run_counting ~trigger:SA.Every_failure ~min_observations:4 ~planning `Keep
  in
  Alcotest.(check int) "min_observations delays the first call" 3 calls;
  let r, calls =
    run_counting ~trigger:(SA.Every_k 2) ~min_observations:1 ~planning
      `Identity
  in
  Alcotest.(check int) "every 2nd failure" 3 calls;
  Alcotest.(check int) "identity plans count as replans" 3 r.SA.replans;
  (* planning 5x off the estimate: drift fires once, the replan rebases the
     comparison at lambda_hat and no further call fires *)
  let mis = FM.make ~lambda:0.1 ~downtime:1. () in
  let r, calls =
    run_counting ~trigger:(SA.On_drift 2.) ~min_observations:1 ~planning:mis
      `Identity
  in
  Alcotest.(check int) "drift fires once, then rebased" 1 calls;
  Alcotest.(check int) "one replan" 1 r.SA.replans;
  (* exactly-specified planning never drifts *)
  let _, calls =
    run_counting ~trigger:(SA.On_drift 2.) ~min_observations:1 ~planning `Keep
  in
  Alcotest.(check int) "no drift when exact" 0 calls

let test_estimation () =
  let g, s = one_task ~weight:10. in
  let planning = FM.make ~lambda:0.25 ~downtime:9. () in
  let config = { (no_replan planning) with SA.min_observations = 1 } in
  let state = T.replay_source (six_failures_trace ()) in
  let r = SA.run config ~source:state.T.source g s in
  (* last estimate is at the 6th failure: 6 failures over 12 observed
     uptime seconds *)
  Wfc_test_util.check_close "lambda MLE" 0.5 r.SA.estimated.FM.lambda;
  Wfc_test_util.check_close "downtime mean" 1. r.SA.estimated.FM.downtime;
  Alcotest.(check int) "reestimates" 6 r.SA.reestimates;
  (* nothing observed: the planning belief survives *)
  let quiet = T.Renewal { uptimes = [| 50. |]; downtimes = [||] } in
  let state = T.replay_source quiet in
  let r = SA.run config ~source:state.T.source g s in
  Alcotest.(check bool) "belief kept" true (r.SA.estimated = planning);
  Alcotest.(check int) "no reestimates" 0 r.SA.reestimates

let test_validation () =
  let g, s = one_task ~weight:10. in
  let planning = FM.make ~lambda:0.5 ~downtime:1. () in
  let source () = (T.replay_source (six_failures_trace ())).T.source in
  let run config = ignore (SA.run config ~source:(source ()) g s) in
  expect_invalid (fun () ->
      run { (no_replan planning) with SA.trigger = SA.Every_k 0 });
  expect_invalid (fun () ->
      run { (no_replan planning) with SA.trigger = SA.On_drift 1. });
  expect_invalid (fun () ->
      run { (no_replan planning) with SA.min_observations = 0 });
  (* a plan that tampers with the completed prefix is rejected *)
  let g2 =
    Wfc_dag.Builders.chain ~weights:[| 10.; 10. |]
      ~checkpoint_cost:(fun _ _ -> 0.5)
      ~recovery_cost:(fun _ _ -> 0.5)
      ()
  in
  let s2 =
    Wfc_core.Schedule.make g2 ~order:[| 0; 1 |] ~checkpointed:[| true; false |]
  in
  (* task 0 (10.5s with its checkpoint) survives the 12s window; task 1
     fails 1.5s in, so the replan sees from = 1 *)
  let trace =
    T.Renewal { uptimes = [| 12.; 2.; 2.; 30. |]; downtimes = [| 1.; 1.; 1. |] }
  in
  let bad_plan mutate ~model:_ ~order ~flags ~from:_ =
    let order = Array.copy order and flags = Array.copy flags in
    mutate order flags;
    Some { SA.order; flags }
  in
  let run_with replan =
    let config =
      {
        SA.planning;
        trigger = SA.Every_failure;
        min_observations = 1;
        replan = Some replan;
      }
    in
    ignore (SA.run config ~source:(T.replay_source trace).T.source g2 s2)
  in
  expect_invalid (fun () ->
      run_with
        (bad_plan (fun order _ ->
             let t = order.(0) in
             order.(0) <- order.(1);
             order.(1) <- t)));
  expect_invalid (fun () ->
      run_with (bad_plan (fun order flags -> flags.(order.(0)) <- false)))

(* ---- the point of all this: adaptivity beats a misspecified plan ------- *)

let test_adaptive_beats_misspecified_static () =
  let n = 12 in
  let g =
    Wfc_dag.Builders.chain
      ~weights:(Array.make n 5.)
      ~checkpoint_cost:(fun _ _ -> 0.3)
      ~recovery_cost:(fun _ _ -> 0.3)
      ()
  in
  let order = Array.init n (fun i -> i) in
  (* planned for an almost fail-free platform: no checkpoints *)
  let static = Wfc_core.Schedule.no_checkpoints g ~order in
  let planning = FM.make ~lambda:1e-4 ~downtime:1. () in
  let truth = D.exponential ~rate:0.08 in
  let replanner = SD.replanner ~budget:64 g in
  let traces =
    List.init 25 (fun i ->
        T.draw_renewal
          ~rng:(Rng.create (1000 + i))
          ~failures:truth ~downtime:(D.constant 1.) ~min_uptime:20_000.)
  in
  let static_sum, adaptive_sum, replans =
    List.fold_left
      (fun (sm, am, rp) trace ->
        let s_state = T.replay_source trace in
        let s_run = Sim.run_with_source s_state.T.source g static in
        let a_state = T.replay_source trace in
        let config =
          {
            SA.planning;
            trigger = SA.Every_failure;
            min_observations = 3;
            replan = Some replanner;
          }
        in
        let a = SA.run config ~source:a_state.T.source g static in
        Alcotest.(check bool) "static within horizon" false
          (s_state.T.exhausted ());
        Alcotest.(check bool) "adaptive within horizon" false
          (a_state.T.exhausted ());
        ( sm +. s_run.Sim.makespan,
          am +. a.SA.run.Sim.makespan,
          rp + a.SA.replans ))
      (0., 0., 0) traces
  in
  let k = float_of_int (List.length traces) in
  let static_mean = static_sum /. k and adaptive_mean = adaptive_sum /. k in
  Alcotest.(check bool) "adaptive actually replanned" true (replans > 0);
  if not (adaptive_mean < static_mean) then
    Alcotest.failf "adaptive %.1f not better than static %.1f" adaptive_mean
      static_mean

let test_relinearize_runs () =
  (* fork-join with slack: relinearization may propose a different suffix
     order, and the executed plan must stay a valid linearization *)
  let g =
    Wfc_dag.Builders.fork_join ~source_weight:2.
      ~middle_weights:[| 3.; 4.; 5.; 6. |] ~sink_weight:2.
      ~checkpoint_cost:(fun _ _ -> 0.2)
      ~recovery_cost:(fun _ _ -> 0.2)
      ()
  in
  let n = Wfc_dag.Dag.n_tasks g in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Breadth_first g in
  let s = Wfc_core.Schedule.no_checkpoints g ~order in
  let planning = FM.make ~lambda:1e-4 ~downtime:1. () in
  let replanner =
    SD.replanner ~budget:32 ~relinearize:Wfc_dag.Linearize.Depth_first g
  in
  let config =
    {
      SA.planning;
      trigger = SA.Every_failure;
      min_observations = 1;
      replan = Some replanner;
    }
  in
  let trace =
    T.draw_renewal ~rng:(Rng.create 7)
      ~failures:(D.exponential ~rate:0.2)
      ~downtime:(D.constant 0.5) ~min_uptime:5_000.
  in
  let state = T.replay_source trace in
  let r = SA.run config ~source:state.T.source g s in
  Alcotest.(check int) "all tasks kept" n (Array.length r.SA.final_order);
  Alcotest.(check bool) "valid final order" true
    (Wfc_dag.Dag.is_linearization g r.SA.final_order);
  Alcotest.(check bool) "within horizon" false (state.T.exhausted ());
  Alcotest.(check bool) "finite makespan" true
    (Float.is_finite r.SA.run.Sim.makespan)

let () =
  Alcotest.run "adaptive"
    [
      ( "determinism",
        [
          prop_disabled_is_static;
          prop_suffix_engine_reuse;
          prop_suffix_never_worse;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "triggers" `Quick test_triggers;
          Alcotest.test_case "estimation" `Quick test_estimation;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "relinearize" `Quick test_relinearize_runs;
        ] );
      ( "adaptivity",
        [
          Alcotest.test_case "beats misspecified static" `Quick
            test_adaptive_beats_misspecified_static;
        ] );
    ]
