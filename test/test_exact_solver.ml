open Wfc_core
module Dag = Wfc_dag.Dag
module FM = Wfc_platform.Failure_model

(* ---- reference evaluator (executable specification) ---- *)

let prop_reference_evaluator_agrees =
  Wfc_test_util.qtest ~count:120 "optimized evaluator = literal Theorem 3"
    (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ())
    Wfc_test_util.print_dag_schedule
    (fun (g, s) ->
      List.for_all
        (fun model ->
          Wfc_test_util.close ~eps:1e-9
            (Evaluator.expected_makespan model g s)
            (Evaluator_reference.expected_makespan model g s))
        Wfc_test_util.models)

let test_reference_on_figure1 () =
  let g =
    Dag.of_weights
      ~checkpoint_cost:(fun _ w -> 0.1 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ~weights:[| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |]
      ~edges:[ (0, 3); (3, 4); (3, 5); (4, 6); (5, 6); (1, 2); (2, 7); (6, 7) ]
      ()
  in
  let s =
    Schedule.make g ~order:[| 0; 3; 1; 2; 4; 5; 6; 7 |]
      ~checkpointed:[| false; false; false; true; true; false; false; false |]
  in
  let model = FM.make ~lambda:0.05 ~downtime:0.3 () in
  Wfc_test_util.check_close ~eps:1e-9 "figure 1"
    (Evaluator.expected_makespan model g s)
    (Evaluator_reference.expected_makespan model g s)

(* ---- branch and bound ---- *)

let model = FM.make ~lambda:0.06 ~downtime:0.2 ()

let prop_bnb_equals_brute_force =
  Wfc_test_util.qtest ~count:40 "B&B = exhaustive subset search"
    (Wfc_test_util.gen_dag ~max_n:9 ())
    (Format.asprintf "%a" Dag.pp_stats)
    (fun g ->
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let sol = Exact_solver.optimal_checkpoints model g ~order in
      let _, brute = Brute_force.optimal_checkpoints_for_order model g ~order in
      Wfc_test_util.close ~eps:1e-9 sol.Exact_solver.makespan brute)

let test_bnb_beyond_brute_force () =
  (* 20-task workflow: impractical for the 2^20-subset enumerator (each
     subset costs a full evaluation), routine for B&B *)
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Montage ~n:20 ~seed:5)
  in
  let model = FM.make ~lambda:5e-3 () in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let sol = Exact_solver.optimal_checkpoints model g ~order in
  (* optimal must not exceed the best heuristic with the same order *)
  let heur =
    Heuristics.run model g ~lin:Wfc_dag.Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  Alcotest.(check bool) "<= DF-CkptW" true
    (sol.Exact_solver.makespan <= heur.Heuristics.makespan +. 1e-9);
  (* and local search started from the exact solution cannot improve it *)
  let ls = Local_search.improve model g sol.Exact_solver.schedule in
  Wfc_test_util.check_close ~eps:1e-9 "flip-optimal"
    sol.Exact_solver.makespan ls.Local_search.makespan;
  (* the bound must prune a substantial part of the 2 * 2^20 node tree *)
  Alcotest.(check bool)
    (Printf.sprintf "pruning worked (%d nodes)" sol.Exact_solver.nodes)
    true
    (sol.Exact_solver.nodes < (1 lsl 20) / 2)

let test_bnb_budget () =
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Ligo ~n:30 ~seed:5)
  in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  match Exact_solver.optimal_checkpoints ~max_nodes:5 model g ~order with
  | exception Exact_solver.Node_budget_exceeded -> ()
  | _ -> Alcotest.fail "budget of 5 nodes cannot suffice"

let test_bnb_within_budget () =
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Ligo ~n:30 ~seed:5)
  in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  (* a 5-node budget is exhausted immediately, yet the incumbent must be a
     finite, valid schedule no worse than the warm-start heuristic *)
  let sol, status =
    Exact_solver.optimal_checkpoints_within ~max_nodes:5 model g ~order
  in
  (match status with
  | `Budget_exhausted -> ()
  | `Optimal -> Alcotest.fail "budget of 5 nodes cannot suffice");
  Alcotest.(check bool) "finite incumbent" true
    (Float.is_finite sol.Exact_solver.makespan);
  let heur =
    List.fold_left
      (fun acc ckpt ->
        Float.min acc
          (Heuristics.run model g ~lin:Wfc_dag.Linearize.Depth_first ~ckpt)
            .Heuristics.makespan)
      infinity
      [ Heuristics.Ckpt_weight; Heuristics.Ckpt_periodic ]
  in
  Alcotest.(check bool) "no worse than warm start" true
    (sol.Exact_solver.makespan <= heur +. 1e-9);
  (* the caller-supplied stop predicate also exhausts the budget *)
  let _, status =
    Exact_solver.optimal_checkpoints_within
      ~should_stop:(fun () -> true)
      model g ~order
  in
  (match status with
  | `Budget_exhausted -> ()
  | `Optimal -> Alcotest.fail "should_stop ignored");
  (* and with room to breathe the status certifies optimality *)
  let g = Wfc_dag.Builders.chain ~weights:[| 1.; 2.; 3.; 4. |] () in
  let order = [| 0; 1; 2; 3 |] in
  let sol, status = Exact_solver.optimal_checkpoints_within model g ~order in
  (match status with
  | `Optimal -> ()
  | `Budget_exhausted -> Alcotest.fail "tiny instance must complete");
  Wfc_test_util.check_close "same optimum as the raising API"
    (Exact_solver.optimal_checkpoints model g ~order).Exact_solver.makespan
    sol.Exact_solver.makespan

let test_bnb_validates_order () =
  let g = Wfc_dag.Builders.chain ~weights:[| 1.; 2. |] () in
  match Exact_solver.optimal_checkpoints model g ~order:[| 1; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid order accepted"

let test_bnb_fail_free () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 1.; 2.; 3. |]
      ~checkpoint_cost:(fun _ _ -> 0.5) ()
  in
  let sol =
    Exact_solver.optimal_checkpoints FM.fail_free g ~order:[| 0; 1; 2 |]
  in
  Alcotest.(check int) "no checkpoints when no failures" 0
    (Schedule.checkpoint_count sol.Exact_solver.schedule);
  Wfc_test_util.check_close "T_inf" 6. sol.Exact_solver.makespan

(* the flat search, with its pruning features on, must land on the same
   optimum as the naive prefix evaluation (to 1e-9: each reports its own
   backend's value) *)
let test_backend_invariance () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let model = FM.make ~lambda:5e-3 ~downtime:0.5 () in
  List.iter
    (fun (family, n, seed) ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n ~seed) in
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let naive, st_n =
        Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Naive
          model g ~order
      in
      let flat, st_f =
        Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Flat
          model g ~order
      in
      Alcotest.(check bool) "both optimal" true
        (st_n = `Optimal && st_f = `Optimal);
      Wfc_test_util.check_close "same makespan" naive.Exact_solver.makespan
        flat.Exact_solver.makespan;
      Alcotest.(check bool) "pruning only saves nodes" true
        (flat.Exact_solver.nodes <= naive.Exact_solver.nodes))
    [ (P.Montage, 14, 5); (P.Ligo, 12, 9); (P.Genome, 16, 3) ]

(* ---- flat branch and bound --------------------------------------------- *)

(* with pruning features off and one domain, the flat search must expand the
   same tree node for node as the sequential naive search, and land on the
   same flags; the two optima agree to 1e-9 *)
let test_flat_node_parity () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let model = FM.make ~lambda:5e-3 ~downtime:0.5 () in
  List.iter
    (fun (family, n, seed) ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n ~seed) in
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let naive, st_n =
        Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Naive
          model g ~order
      in
      let flat, st_f =
        Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Flat
          ~domains:1 ~dominance:false ~memo:false model g ~order
      in
      Alcotest.(check bool) "both optimal" true
        (st_n = `Optimal && st_f = `Optimal);
      Alcotest.(check bool) "same flags" true
        (naive.Exact_solver.schedule.Schedule.checkpointed
        = flat.Exact_solver.schedule.Schedule.checkpointed);
      Wfc_test_util.check_close "same makespan" naive.Exact_solver.makespan
        flat.Exact_solver.makespan;
      Alcotest.(check int) "same nodes" naive.Exact_solver.nodes
        flat.Exact_solver.nodes)
    [ (P.Montage, 14, 5); (P.Ligo, 12, 9); (P.Genome, 16, 3) ]

(* dominance and memo must never change the optimum, only the node count *)
let prop_flat_bnb_equals_brute_force =
  Wfc_test_util.qtest ~count:40
    "flat B&B (dominance + memo) = exhaustive subset search"
    (Wfc_test_util.gen_dag ~max_n:9 ())
    (Format.asprintf "%a" Dag.pp_stats)
    (fun g ->
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let sol =
        Exact_solver.optimal_checkpoints ~backend:Eval_engine.Flat model g
          ~order
      in
      let _, brute = Brute_force.optimal_checkpoints_for_order model g ~order in
      Wfc_test_util.close ~eps:1e-9 sol.Exact_solver.makespan brute)

(* the always-checkpoint dominance rule only fires on free checkpoints with
   cheap recovery; force that regime on half the tasks and pin the result
   against the exhaustive enumerator *)
let prop_flat_dominance_zero_cost_exact =
  Wfc_test_util.qtest ~count:40
    "dominance stays exact under zero-cost checkpoints"
    (Wfc_test_util.gen_dag ~max_n:8 ())
    (Format.asprintf "%a" Dag.pp_stats)
    (fun g ->
      let n = Dag.n_tasks g in
      let weights = Array.init n (fun v -> (Dag.task g v).Wfc_dag.Task.weight) in
      let edges =
        List.concat
          (List.init n (fun v ->
               List.map (fun y -> (v, y)) (Dag.succs g v)))
      in
      let g =
        Dag.of_weights ~weights ~edges
          ~checkpoint_cost:(fun v w -> if v mod 2 = 0 then 0. else 0.15 *. w)
          ~recovery_cost:(fun v w -> if v mod 2 = 0 then 0.4 *. w else 0.2 *. w)
          ()
      in
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let sol =
        Exact_solver.optimal_checkpoints ~backend:Eval_engine.Flat
          ~dominance:true ~memo:false model g ~order
      in
      let _, brute = Brute_force.optimal_checkpoints_for_order model g ~order in
      Wfc_test_util.close ~eps:1e-9 sol.Exact_solver.makespan brute)

(* parallel subtree exploration must land on the single-domain optimum,
   bit for bit: both report the engine's value of their flags *)
let test_flat_parallel_agreement () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let model = FM.make ~lambda:5e-3 ~downtime:0.5 () in
  List.iter
    (fun (family, n, seed) ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n ~seed) in
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let one, st_1 =
        Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Flat
          ~domains:1 model g ~order
      in
      let four, st_4 =
        Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Flat
          ~domains:4 model g ~order
      in
      Alcotest.(check bool) "both optimal" true
        (st_1 = `Optimal && st_4 = `Optimal);
      Alcotest.(check (float 0.)) "same optimum, bitwise"
        one.Exact_solver.makespan four.Exact_solver.makespan)
    [ (P.Montage, 14, 5); (P.Ligo, 12, 9); (P.Genome, 16, 3) ]

let () =
  Alcotest.run "exact_solver"
    [
      ( "reference evaluator",
        [
          prop_reference_evaluator_agrees;
          Alcotest.test_case "figure 1" `Quick test_reference_on_figure1;
        ] );
      ( "branch and bound",
        [
          prop_bnb_equals_brute_force;
          Alcotest.test_case "beyond brute force" `Slow
            test_bnb_beyond_brute_force;
          Alcotest.test_case "node budget" `Quick test_bnb_budget;
          Alcotest.test_case "within budget" `Slow test_bnb_within_budget;
          Alcotest.test_case "order validation" `Quick test_bnb_validates_order;
          Alcotest.test_case "fail-free" `Quick test_bnb_fail_free;
          Alcotest.test_case "backend invariance" `Quick
            test_backend_invariance;
        ] );
      ( "flat branch and bound",
        [
          Alcotest.test_case "node parity with sequential" `Quick
            test_flat_node_parity;
          prop_flat_bnb_equals_brute_force;
          prop_flat_dominance_zero_cost_exact;
          Alcotest.test_case "parallel = single domain" `Quick
            test_flat_parallel_agreement;
        ] );
    ]
