(* Edge-case battery across modules: degenerate sizes, extreme failure
   rates, zero weights, disconnected graphs, saturation regimes. *)

open Wfc_core
module Dag = Wfc_dag.Dag
module Builders = Wfc_dag.Builders
module Linearize = Wfc_dag.Linearize
module FM = Wfc_platform.Failure_model

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---- extreme failure rates ---- *)

let test_infinite_expectation_is_usable () =
  (* enormous lambda, long unchecked chain: the expectation overflows *)
  let g = Builders.chain ~weights:(Array.make 50 100.) () in
  let model = FM.make ~lambda:1. () in
  let s = Schedule.no_checkpoints g ~order:(Array.init 50 Fun.id) in
  let m = Evaluator.expected_makespan model g s in
  Alcotest.(check bool) "infinite" true (m = infinity);
  (* heuristics still return something finite by checkpointing *)
  let g' =
    Builders.chain
      ~weights:(Array.make 50 1.)
      ~checkpoint_cost:(fun _ _ -> 0.1)
      ~recovery_cost:(fun _ _ -> 0.1)
      ()
  in
  let o =
    Heuristics.run (FM.make ~lambda:1. ()) g' ~lin:Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  Alcotest.(check bool) "heuristic stays finite" true
    (Float.is_finite o.Heuristics.makespan)

let test_infinity_comparisons_in_search () =
  (* the N search must prefer any finite value over infinity *)
  let g =
    Builders.chain ~weights:(Array.make 30 50.)
      ~checkpoint_cost:(fun _ _ -> 1.)
      ~recovery_cost:(fun _ _ -> 1.)
      ()
  in
  let model = FM.make ~lambda:0.5 () in
  let o = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight in
  Alcotest.(check bool) "finite outcome" true (Float.is_finite o.Heuristics.makespan)

(* ---- zero-weight tasks ---- *)

let test_zero_weight_task () =
  let g =
    Dag.of_weights ~weights:[| 0.; 5.; 0. |] ~edges:[ (0, 1); (1, 2) ] ()
  in
  let model = FM.make ~lambda:0.1 ~downtime:0.5 () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1; 2 |] in
  (* only the 5-second task contributes *)
  Wfc_test_util.check_close "only real work counts"
    (FM.expected_exec_time model ~work:5. ~checkpoint:0. ~recovery:0.)
    (Evaluator.expected_makespan model g s);
  (* simulator agrees *)
  let est = Wfc_simulator.Monte_carlo.estimate ~runs:20_000 ~seed:3 model g s in
  Alcotest.(check bool) "simulator agrees" true
    (Wfc_simulator.Monte_carlo.agrees_with est
       ~expected:(Evaluator.expected_makespan model g s)
       ~sigmas:5.)

(* ---- single-task workflows ---- *)

let test_single_task_everything () =
  let g = Dag.of_weights ~checkpoint_cost:(fun _ _ -> 1.) ~weights:[| 7. |] ~edges:[] () in
  let model = FM.make ~lambda:0.05 () in
  List.iter
    (fun ckpt ->
      let o = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt in
      Alcotest.(check bool)
        (Heuristics.ckpt_strategy_name ckpt ^ " finite")
        true
        (Float.is_finite o.Heuristics.makespan))
    Heuristics.extended_ckpt_strategies;
  let sol =
    Exact_solver.optimal_checkpoints (Flat_engine.create model g ~order:[| 0 |])
  in
  Wfc_test_util.check_close "exact = E[t(w;0;0)] (no point checkpointing)"
    (FM.expected_exec_time model ~work:7. ~checkpoint:0. ~recovery:0.)
    sol.Exact_solver.makespan

(* ---- disconnected graphs ---- *)

let test_forest () =
  (* two disconnected chains *)
  let g =
    Dag.of_weights ~weights:[| 1.; 2.; 3.; 4. |] ~edges:[ (0, 1); (2, 3) ] ()
  in
  Alcotest.(check (list int)) "two sources" [ 0; 2 ] (Dag.sources g);
  List.iter
    (fun lin ->
      Alcotest.(check bool)
        (Linearize.strategy_name lin)
        true
        (Dag.is_linearization g (Linearize.run lin g)))
    Linearize.extended;
  (* interleaving the components is strictly worse: an output produced early
     and consumed late sits exposed in memory, so a failure in between forces
     its re-execution — the very reason the paper advocates depth-first
     linearizations *)
  let model = FM.make ~lambda:0.08 () in
  let m order =
    Evaluator.expected_makespan model g (Schedule.no_checkpoints g ~order)
  in
  Alcotest.(check bool) "depth-first beats interleaving" true
    (m [| 0; 1; 2; 3 |] < m [| 0; 2; 1; 3 |] -. 1e-9);
  (* component order, however, is irrelevant *)
  Wfc_test_util.check_close "component order irrelevant"
    (m [| 0; 1; 2; 3 |])
    (m [| 2; 3; 0; 1 |])

(* ---- structure recognition corner cases ---- *)

let test_two_task_chain_is_fork_and_join () =
  let g = Builders.chain ~weights:[| 3.; 4. |] () in
  Alcotest.(check bool) "fork" true (Fork_solver.is_fork g = Some 0);
  Alcotest.(check bool) "join" true (Join_solver.is_join g = Some 1);
  Alcotest.(check bool) "chain" true (Chain_solver.is_chain g);
  (* and all three solvers agree on the optimum *)
  let model = FM.make ~lambda:0.1 () in
  let fork = (Fork_solver.solve model g).Fork_solver.makespan in
  let join = (Join_solver.solve_exact model g).Join_solver.makespan in
  let chain = (Chain_solver.solve model g).Chain_solver.makespan in
  Wfc_test_util.check_close "fork = join" fork join;
  Wfc_test_util.check_close "fork = chain" fork chain

(* ---- heuristic plumbing ---- *)

let test_grid_budget_validation () =
  expect_invalid (fun () ->
      ignore (Heuristics.candidate_counts (Heuristics.Grid 1) ~n:100));
  Alcotest.(check (list int)) "n=2" [ 1 ]
    (Heuristics.candidate_counts Heuristics.Exhaustive ~n:2)

let test_join_sigma_validation () =
  let g = Builders.join ~source_weights:[| 1.; 2. |] ~sink_weight:1. () in
  let model = FM.make ~lambda:0.1 () in
  let ckpt = [| true; true; false |] in
  expect_invalid (fun () ->
      ignore (Join_solver.expected_makespan_order model g ~ckpt ~sigma:[ 0 ]));
  expect_invalid (fun () ->
      ignore (Join_solver.expected_makespan_order model g ~ckpt ~sigma:[ 0; 0 ]));
  (* explicit model in schedule_of changes tie-breaking but stays valid *)
  let s = Join_solver.schedule_of ~model g ~ckpt in
  Alcotest.(check bool) "sink last" true (Schedule.task_at s 2 = 2)

let test_cost_model_zero_recovery_factor () =
  let g = Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Montage ~n:20 ~seed:1 in
  let g' =
    Wfc_workflows.Cost_model.apply ~recovery_factor:0.
      (Wfc_workflows.Cost_model.Proportional 0.1) g
  in
  Array.iter
    (fun t -> Alcotest.(check (float 0.)) "r = 0" 0. t.Wfc_dag.Task.recovery_cost)
    (Dag.tasks g')

(* ---- generators at their minimum sizes ---- *)

let test_all_families_at_min_size () =
  List.iter
    (fun fam ->
      let n = Wfc_workflows.Pegasus.min_size fam in
      let g = Wfc_workflows.Pegasus.generate fam ~n ~seed:0 in
      Alcotest.(check int) (Wfc_workflows.Pegasus.family_name fam) n (Dag.n_tasks g);
      (* and they can be scheduled end to end *)
      let model = FM.make ~lambda:1e-3 () in
      let o = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight in
      Alcotest.(check bool) "finite" true (Float.is_finite o.Heuristics.makespan))
    Wfc_workflows.Pegasus.extended

(* ---- misc plumbing ---- *)

let test_stats_single_sample_ci () =
  let s = Wfc_platform.Stats.create () in
  Wfc_platform.Stats.add s 5.;
  let lo, hi = Wfc_platform.Stats.confidence95 s in
  Wfc_test_util.check_close "degenerate CI lo" 5. lo;
  Wfc_test_util.check_close "degenerate CI hi" 5. hi

let test_rng_bound_one () =
  let rng = Wfc_platform.Rng.create 4 in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 0" 0 (Wfc_platform.Rng.int rng 1)
  done

let test_pp_stats_mentions_counts () =
  let g = Builders.diamond ~width:3 () in
  let s = Format.asprintf "%a" Dag.pp_stats g in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "task count" true (contains "5 tasks");
  Alcotest.(check bool) "edge count" true (contains "6 edges")

let test_local_search_drops_useless_checkpoints_fail_free () =
  let g =
    Builders.chain ~weights:[| 1.; 2.; 3. |] ~checkpoint_cost:(fun _ _ -> 0.5) ()
  in
  let seed = Schedule.all_checkpoints g ~order:[| 0; 1; 2 |] in
  let r = Local_search.improve FM.fail_free g seed in
  Alcotest.(check int) "all checkpoints dropped" 0
    (Schedule.checkpoint_count r.Local_search.schedule);
  Wfc_test_util.check_close "T_inf reached" 6. r.Local_search.makespan

let test_evaluator_ratio () =
  let g =
    Builders.chain ~weights:[| 4.; 6. |] ~checkpoint_cost:(fun _ _ -> 1.) ()
  in
  let s = Schedule.all_checkpoints g ~order:[| 0; 1 |] in
  Wfc_test_util.check_close "ratio at lambda 0" 1.2
    (Evaluator.ratio FM.fail_free g s);
  let model = FM.make ~lambda:0.05 () in
  Wfc_test_util.check_close "ratio definition"
    (Evaluator.expected_makespan model g s /. 10.)
    (Evaluator.ratio model g s)

let test_agrees_with_semantics () =
  let g = Builders.chain ~weights:[| 5. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  let est =
    Wfc_simulator.Monte_carlo.estimate ~runs:100 ~seed:2 FM.fail_free g s
  in
  (* zero-variance samples: exact match accepted, anything else rejected *)
  Alcotest.(check bool) "exact accepted" true
    (Wfc_simulator.Monte_carlo.agrees_with est ~expected:5. ~sigmas:3.);
  Alcotest.(check bool) "off rejected" false
    (Wfc_simulator.Monte_carlo.agrees_with est ~expected:5.1 ~sigmas:3.)

let test_table_float_row_widths () =
  let t = Wfc_reporting.Table.create ~columns:[ "k"; "a"; "b" ] in
  Wfc_reporting.Table.add_float_row t "r" [ 3.; 0.123456789 ];
  let rendered = Wfc_reporting.Table.render t in
  let lines = String.split_on_char '\n' rendered in
  (* header, separator, one row, trailing blank *)
  Alcotest.(check int) "line count" 4 (List.length lines);
  (* the last column is not padded, so lines never end in whitespace; the
     separator and the widest row still agree on every column width *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "no trailing whitespace" false
        (String.length l > 0 && l.[String.length l - 1] = ' '))
    lines;
  match List.filteri (fun i _ -> i < 3) lines with
  | [ _; sep; row ] ->
      Alcotest.(check int) "separator spans the widest row" (String.length row)
        (String.length sep)
  | _ -> Alcotest.fail "unexpected shape"

let test_periodic_period_equal_to_work () =
  let model = FM.make ~lambda:0.01 () in
  (* exactly one segment, unchecked *)
  Wfc_test_util.check_close "single full segment"
    (FM.expected_exec_time model ~work:40. ~checkpoint:0. ~recovery:0.)
    (Periodic.expected_time_divisible model ~work:40. ~checkpoint:2. ~recovery:2.
       ~period:40.)

let () =
  Alcotest.run "edge_cases"
    [
      ( "extremes",
        [
          Alcotest.test_case "infinite expectation" `Quick
            test_infinite_expectation_is_usable;
          Alcotest.test_case "infinity in search" `Quick
            test_infinity_comparisons_in_search;
          Alcotest.test_case "zero-weight tasks" `Slow test_zero_weight_task;
          Alcotest.test_case "single task" `Quick test_single_task_everything;
        ] );
      ( "structure",
        [
          Alcotest.test_case "forest" `Quick test_forest;
          Alcotest.test_case "2-chain is fork and join" `Quick
            test_two_task_chain_is_fork_and_join;
          Alcotest.test_case "families at min size" `Quick
            test_all_families_at_min_size;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "grid budget" `Quick test_grid_budget_validation;
          Alcotest.test_case "join sigma validation" `Quick
            test_join_sigma_validation;
          Alcotest.test_case "zero recovery factor" `Quick
            test_cost_model_zero_recovery_factor;
          Alcotest.test_case "single-sample CI" `Quick test_stats_single_sample_ci;
          Alcotest.test_case "rng bound 1" `Quick test_rng_bound_one;
          Alcotest.test_case "pp_stats" `Quick test_pp_stats_mentions_counts;
          Alcotest.test_case "local search, fail-free" `Quick
            test_local_search_drops_useless_checkpoints_fail_free;
          Alcotest.test_case "period = work" `Quick
            test_periodic_period_equal_to_work;
          Alcotest.test_case "evaluator ratio" `Quick test_evaluator_ratio;
          Alcotest.test_case "agrees_with" `Quick test_agrees_with_semantics;
          Alcotest.test_case "table float row" `Quick test_table_float_row_widths;
        ] );
    ]
