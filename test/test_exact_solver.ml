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
      let sol =
        Exact_solver.optimal_checkpoints (Flat_engine.create model g ~order)
      in
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
  let sol =
    Exact_solver.optimal_checkpoints (Flat_engine.create model g ~order)
  in
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
  match
    Exact_solver.optimal_checkpoints ~max_nodes:5
      (Flat_engine.create model g ~order)
  with
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
    Exact_solver.optimal_checkpoints_within ~max_nodes:5
      (Flat_engine.create model g ~order)
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
      (Flat_engine.create model g ~order)
  in
  (match status with
  | `Budget_exhausted -> ()
  | `Optimal -> Alcotest.fail "should_stop ignored");
  (* and with room to breathe the status certifies optimality *)
  let g = Wfc_dag.Builders.chain ~weights:[| 1.; 2.; 3.; 4. |] () in
  let order = [| 0; 1; 2; 3 |] in
  let sol, status =
    Exact_solver.optimal_checkpoints_within (Flat_engine.create model g ~order)
  in
  (match status with
  | `Optimal -> ()
  | `Budget_exhausted -> Alcotest.fail "tiny instance must complete");
  Wfc_test_util.check_close "same optimum as the raising API"
    (Exact_solver.optimal_checkpoints
      (Flat_engine.create model g ~order)).Exact_solver.makespan
    sol.Exact_solver.makespan

(* The solver takes an engine, so an order is validated where the engine
   is built, and checked where a caller's engine is rebound. *)
let test_bnb_validates_order () =
  let g = Wfc_dag.Builders.chain ~weights:[| 1.; 2. |] () in
  Alcotest.check_raises "an invalid order builds no engine"
    (Invalid_argument "Flat_engine.create: order is not a linearization")
    (fun () ->
      ignore
        (Exact_solver.optimal_checkpoints
           (Flat_engine.create model g ~order:[| 1; 0 |])));
  let engine = Flat_engine.create model g ~order:[| 0; 1 |] in
  Alcotest.check_raises "a caller's engine on another order"
    (Invalid_argument "Flat_engine.bind: engine bound to another order")
    (fun () ->
      ignore
        (Wfc_resilience.Solver_driver.solve ~engine model g ~order:[| 1; 0 |]))

let test_bnb_fail_free () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 1.; 2.; 3. |]
      ~checkpoint_cost:(fun _ _ -> 0.5) ()
  in
  let sol =
    Exact_solver.optimal_checkpoints
      (Flat_engine.create FM.fail_free g ~order:[| 0; 1; 2 |])
  in
  Alcotest.(check int) "no checkpoints when no failures" 0
    (Schedule.checkpoint_count sol.Exact_solver.schedule);
  Wfc_test_util.check_close "T_inf" 6. sol.Exact_solver.makespan

(* Known answers of the sequential search that scored every child with one
   Evaluator call, measured before it was retired: its node count, its
   optimal flags and the oracle's makespan of them, bit for bit. *)
let sequential_optima =
  let module P = Wfc_workflows.Pegasus in
  [
    (P.Montage, 14, 5, 1176, [ 1; 0; 2; 3; 4; 6; 7; 8; 10 ],
     0x1.652f579640be4p+7);
    (P.Ligo, 12, 9, 525, [ 1; 3; 0; 2; 4; 7; 10; 5; 8; 6; 9 ],
     0x1.980c98f535e3fp+13);
    (P.Genome, 16, 3, 10524, List.init 15 Fun.id, 0x1.0b48f0a6eccabp+51);
  ]

let optimum_instance family n seed =
  let module CM = Wfc_workflows.Cost_model in
  let g =
    CM.apply (CM.Proportional 0.1)
      (Wfc_workflows.Pegasus.generate family ~n ~seed)
  in
  (g, Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g)

(* the search, with its pruning features on, must land on the sequential
   optimum (to 1e-9: it reports the kernel's value, the pin is the
   oracle's) and pruning may only save nodes *)
let test_backend_invariance () =
  let model = FM.make ~lambda:5e-3 ~downtime:0.5 () in
  List.iter
    (fun (family, n, seed, nodes, _, oracle) ->
      let g, order = optimum_instance family n seed in
      let flat, st_f =
        Exact_solver.optimal_checkpoints_within
          (Flat_engine.create model g ~order)
      in
      Alcotest.(check bool) "optimal" true (st_f = `Optimal);
      Wfc_test_util.check_close "same makespan" oracle
        flat.Exact_solver.makespan;
      Wfc_test_util.check_close "oracle agrees" oracle
        (Evaluator.expected_makespan model g flat.Exact_solver.schedule);
      Alcotest.(check bool) "pruning only saves nodes" true
        (flat.Exact_solver.nodes <= nodes))
    sequential_optima

(* ---- flat branch and bound --------------------------------------------- *)

(* with pruning features off and one domain, the search must expand the
   same tree node for node as the sequential search did, and land on the
   same flags, whose oracle makespan is the pinned one bit for bit *)
let test_flat_node_parity () =
  let model = FM.make ~lambda:5e-3 ~downtime:0.5 () in
  List.iter
    (fun (family, n, seed, nodes, flags, oracle) ->
      let g, order = optimum_instance family n seed in
      let flat, st_f =
        Exact_solver.optimal_checkpoints_within ~domains:1 ~dominance:false
          ~memo:false (Flat_engine.create model g ~order)
      in
      Alcotest.(check bool) "optimal" true (st_f = `Optimal);
      Alcotest.(check (list int)) "same flags" flags
        (Schedule.checkpointed_tasks flat.Exact_solver.schedule);
      Alcotest.(check (float 0.)) "oracle value of the flags" oracle
        (Evaluator.expected_makespan model g flat.Exact_solver.schedule);
      Wfc_test_util.check_close "same makespan" oracle
        flat.Exact_solver.makespan;
      Alcotest.(check int) "same nodes" nodes flat.Exact_solver.nodes)
    sequential_optima

(* dominance and memo must never change the optimum, only the node count *)
let prop_flat_bnb_equals_brute_force =
  Wfc_test_util.qtest ~count:40
    "flat B&B (dominance + memo) = exhaustive subset search"
    (Wfc_test_util.gen_dag ~max_n:9 ())
    (Format.asprintf "%a" Dag.pp_stats)
    (fun g ->
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let sol =
        Exact_solver.optimal_checkpoints (Flat_engine.create model g ~order)
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
        Exact_solver.optimal_checkpoints ~dominance:true ~memo:false
          (Flat_engine.create model g ~order)
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
        Exact_solver.optimal_checkpoints_within ~domains:1
          (Flat_engine.create model g ~order)
      in
      let four, st_4 =
        Exact_solver.optimal_checkpoints_within ~domains:4
          (Flat_engine.create model g ~order)
      in
      Alcotest.(check bool) "both optimal" true
        (st_1 = `Optimal && st_4 = `Optimal);
      Alcotest.(check (float 0.)) "same optimum, bitwise"
        one.Exact_solver.makespan four.Exact_solver.makespan)
    [ (P.Montage, 14, 5); (P.Ligo, 12, 9); (P.Genome, 16, 3) ]

(* ---- the caller's engine ------------------------------------------------ *)

module Driver = Wfc_resilience.Solver_driver
module P = Wfc_workflows.Pegasus

(* FIG=engine's instances: DF order, lambda = 1e-3. *)
let engine_model = FM.make ~lambda:1e-3 ()

let engine_instance family n =
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (P.generate family ~n ~seed:7)
  in
  (g, Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g)

(* an engine another request left behind: another model, other flags, its
   caches filled under them *)
let stale_engine g ~order =
  let e =
    Flat_engine.create
      ~flags:(Array.init (Array.length order) (fun v -> v mod 3 = 1))
      (FM.of_mtbf ~mtbf:77. ~downtime:3. ())
      g ~order
  in
  ignore (Flat_engine.makespan e);
  e

let bits x = Int64.bits_of_float x

let check_same what ~nodes ~flags ~makespan sched makespan' nodes' =
  Alcotest.(check int) (what ^ ": nodes") nodes nodes';
  Alcotest.(check (list int)) (what ^ ": flags") flags
    (Schedule.checkpointed_tasks sched);
  Alcotest.(check int64) (what ^ ": makespan bits") (bits makespan)
    (bits makespan')

(* The search trusts the engine it is given. Rebound to the request's
   model, a stale engine walks FIG=engine's pinned Genome n=20 parity tree
   to its pinned flags and bits, and is left holding them. Ligo n=30's
   pinned optimum takes 20M nodes, so here its budget-exhausted incumbent
   is held to a fresh engine's, node for node. *)
let test_stale_engine_exact () =
  let g, order = engine_instance P.Genome 20 in
  let engine =
    Flat_engine.bind ~engine:(stale_engine g ~order) engine_model g ~order
  in
  let sol, status =
    Exact_solver.optimal_checkpoints_within ~domains:1 ~dominance:false
      ~memo:false ~max_nodes:200_000 engine
  in
  Alcotest.(check bool) "Genome n=20 optimal" true (status = `Optimal);
  check_same "Genome n=20" ~nodes:162766
    ~flags:[ 0; 2; 3; 4; 6; 7; 8; 10; 11; 12; 14; 15; 16; 17; 18 ]
    ~makespan:0x1.44d1586468e01p+19 sol.Exact_solver.schedule
    sol.Exact_solver.makespan sol.Exact_solver.nodes;
  Alcotest.(check bool) "engine left at the reported flags" true
    (Flat_engine.flags engine
    = sol.Exact_solver.schedule.Schedule.checkpointed);
  let g, order = engine_instance P.Ligo 30 in
  let run engine =
    Exact_solver.optimal_checkpoints_within ~max_nodes:20_000 engine
  in
  let fresh, st_fresh = run (Flat_engine.create engine_model g ~order) in
  let warm, st_warm =
    run (Flat_engine.bind ~engine:(stale_engine g ~order) engine_model g ~order)
  in
  Alcotest.(check bool) "Ligo n=30 budget exhausted" true
    (st_fresh = `Budget_exhausted && st_warm = `Budget_exhausted);
  check_same "Ligo n=30" ~nodes:fresh.Exact_solver.nodes
    ~flags:(Schedule.checkpointed_tasks fresh.Exact_solver.schedule)
    ~makespan:fresh.Exact_solver.makespan warm.Exact_solver.schedule
    warm.Exact_solver.makespan warm.Exact_solver.nodes

(* The driver binds the engine it is handed itself, for the exact tier and
   for the hill climb of a budget-exhausted incumbent: the answer is the
   one without it, node for node, whatever model and flags it held. *)
let test_stale_engine_driver () =
  List.iter
    (fun (family, n, max_nodes, tier) ->
      let what = Printf.sprintf "%s n=%d" (P.family_name family) n in
      let g, order = engine_instance family n in
      let config = { Driver.default_config with Driver.max_nodes } in
      let cold = Driver.solve ~config engine_model g ~order in
      let warm =
        Driver.solve ~config ~engine:(stale_engine g ~order) engine_model g
          ~order
      in
      Alcotest.(check string) (what ^ ": tier") tier
        (Driver.tier_name warm.Driver.tier);
      Alcotest.(check string) (what ^ ": cold tier") tier
        (Driver.tier_name cold.Driver.tier);
      check_same what ~nodes:cold.Driver.nodes
        ~flags:(Schedule.checkpointed_tasks cold.Driver.schedule)
        ~makespan:cold.Driver.makespan warm.Driver.schedule
        warm.Driver.makespan warm.Driver.nodes)
    [ (P.Genome, 20, 1_000_000, "exact"); (P.Ligo, 30, 20_000, "local-search") ]

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
      ( "caller's engine",
        [
          Alcotest.test_case "stale engine, pinned optima" `Quick
            test_stale_engine_exact;
          Alcotest.test_case "driver on a stale engine" `Quick
            test_stale_engine_driver;
        ] );
    ]
