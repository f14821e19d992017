open Wfc_core
module Dag = Wfc_dag.Dag
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model

let e model ~w ~c ~r = FM.expected_exec_time model ~work:w ~checkpoint:c ~recovery:r

let test_single_task () =
  let g = Dag.of_weights ~weights:[| 10. |] ~edges:[] () in
  let model = FM.make ~lambda:0.03 ~downtime:1. () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  Wfc_test_util.check_close "E[t(w;0;0)]"
    (e model ~w:10. ~c:0. ~r:0.)
    (Evaluator.expected_makespan model g s);
  let s' = Schedule.all_checkpoints g ~order:[| 0 |] in
  Wfc_test_util.check_close "E[t(w;c;0)] with checkpoint"
    (e model ~w:10. ~c:0. ~r:0.)
    (Evaluator.expected_makespan model g s');
  (* with a nonzero checkpoint cost the checkpointed version is slower *)
  let g2 =
    Dag.of_weights ~checkpoint_cost:(fun _ _ -> 2.) ~weights:[| 10. |] ~edges:[] ()
  in
  let s2 = Schedule.all_checkpoints g2 ~order:[| 0 |] in
  Wfc_test_util.check_close "checkpoint included"
    (e model ~w:10. ~c:2. ~r:0.)
    (Evaluator.expected_makespan model g2 s2)

let test_fail_free_no_checkpoint () =
  let g = Builders.chain ~weights:[| 1.; 2.; 3. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1; 2 |] in
  Wfc_test_util.check_close "lambda = 0 gives T_inf" 6.
    (Evaluator.expected_makespan FM.fail_free g s);
  Wfc_test_util.check_close "T_inf" 6. (Evaluator.fail_free_time g)

let test_fail_free_with_checkpoints () =
  let g =
    Builders.chain ~weights:[| 1.; 2.; 3. |] ~checkpoint_cost:(fun _ _ -> 0.5) ()
  in
  let s = Schedule.all_checkpoints g ~order:[| 0; 1; 2 |] in
  Wfc_test_util.check_close "W + all checkpoints" 7.5
    (Evaluator.expected_makespan FM.fail_free g s)

(* independent tasks with no checkpoints: X_i are independent segments whose
   retries restart only the task itself (nothing else is needed by anyone) *)
let test_independent_tasks () =
  let g = Dag.of_weights ~weights:[| 4.; 7.; 2. |] ~edges:[] () in
  let model = FM.make ~lambda:0.08 ~downtime:0.25 () in
  let s = Schedule.no_checkpoints g ~order:[| 2; 0; 1 |] in
  let expected =
    e model ~w:4. ~c:0. ~r:0. +. e model ~w:7. ~c:0. ~r:0.
    +. e model ~w:2. ~c:0. ~r:0.
  in
  Wfc_test_util.check_close "sum of independent segments" expected
    (Evaluator.expected_makespan model g s)

(* chain without checkpoints: a single all-or-nothing segment *)
let test_chain_no_checkpoint_is_one_segment () =
  let g = Builders.chain ~weights:[| 3.; 4.; 5. |] () in
  let model = FM.make ~lambda:0.06 ~downtime:0.5 () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1; 2 |] in
  Wfc_test_util.check_close "E[t(W;0;0)]"
    (e model ~w:12. ~c:0. ~r:0.)
    (Evaluator.expected_makespan model g s)

let test_chain_matches_segment_formula () =
  let g =
    Builders.chain ~weights:[| 3.; 5.; 2.; 4.; 6. |]
      ~checkpoint_cost:(fun _ w -> 0.1 *. w)
      ~recovery_cost:(fun _ w -> 0.15 *. w)
      ()
  in
  List.iter
    (fun model ->
      List.iter
        (fun flags ->
          let flags = Array.of_list flags in
          let s = Schedule.make g ~order:[| 0; 1; 2; 3; 4 |] ~checkpointed:flags in
          Wfc_test_util.check_close ~eps:1e-9 "evaluator = segment decomposition"
            (Chain_solver.segment_makespan model g ~checkpointed:flags)
            (Evaluator.expected_makespan model g s))
        [
          [ false; false; false; false; false ];
          [ true; true; true; true; true ];
          [ false; true; false; true; false ];
          [ true; false; false; false; true ];
        ])
    Wfc_test_util.models

let test_fork_matches_theorem1_forms () =
  let g =
    Builders.fork ~source_weight:6. ~sink_weights:[| 2.; 3.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ()
  in
  let model = FM.make ~lambda:0.07 ~downtime:0.3 () in
  (* checkpointing the source *)
  let s_ck =
    Schedule.make g ~order:[| 0; 1; 2; 3 |]
      ~checkpointed:[| true; false; false; false |]
  in
  let expected_ck =
    e model ~w:6. ~c:1.2 ~r:0.
    +. e model ~w:2. ~c:0. ~r:0.6
    +. e model ~w:3. ~c:0. ~r:0.6
    +. e model ~w:4. ~c:0. ~r:0.6
  in
  Wfc_test_util.check_close "fork with checkpointed source" expected_ck
    (Evaluator.expected_makespan model g s_ck);
  (* not checkpointing: recovery = re-executing the source *)
  let s_no = Schedule.no_checkpoints g ~order:[| 0; 1; 2; 3 |] in
  let expected_no =
    e model ~w:6. ~c:0. ~r:0.
    +. e model ~w:2. ~c:0. ~r:6.
    +. e model ~w:3. ~c:0. ~r:6.
    +. e model ~w:4. ~c:0. ~r:6.
  in
  Wfc_test_util.check_close "fork without checkpoint" expected_no
    (Evaluator.expected_makespan model g s_no)

let test_fork_order_irrelevant () =
  let g =
    Builders.fork ~source_weight:6. ~sink_weights:[| 2.; 3.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ()
  in
  let model = FM.make ~lambda:0.07 () in
  let m order =
    Evaluator.expected_makespan model g
      (Schedule.make g ~order
         ~checkpointed:[| true; false; false; false |])
  in
  Wfc_test_util.check_close "sink permutation invariant"
    (m [| 0; 1; 2; 3 |]) (m [| 0; 3; 1; 2 |])

let test_join_matches_lemma2_formula () =
  let g =
    Builders.join ~source_weights:[| 3.; 6.; 2.; 4. |] ~sink_weight:1.5
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ()
  in
  List.iter
    (fun model ->
      List.iter
        (fun flags ->
          let ckpt = Array.of_list flags in
          let s = Join_solver.schedule_of g ~ckpt in
          Wfc_test_util.check_close ~eps:1e-9 "evaluator = Eq. (2)"
            (Join_solver.expected_makespan model g ~ckpt)
            (Evaluator.expected_makespan model g s))
        [
          [ false; false; false; false; false ];
          [ true; true; true; true; false ];
          [ true; false; true; false; false ];
          [ false; true; false; false; false ];
        ])
    Wfc_test_util.models

let test_probabilities () =
  let g =
    Builders.chain ~weights:[| 3.; 5.; 2. |] ~checkpoint_cost:(fun _ _ -> 0.5) ()
  in
  let model = FM.make ~lambda:0.1 () in
  let s = Schedule.of_positions g ~order:[| 0; 1; 2 |] ~ckpt_positions:[ 1 ] in
  let r = Evaluator.evaluate model g s in
  (* fault probability of X_0: first attempt is w_0 = 3 *)
  Wfc_test_util.check_close "P(F(X_0))"
    (1. -. Float.exp (-0.1 *. 3.))
    r.Evaluator.fault_probability.(0);
  Array.iter
    (fun p ->
      if p < 0. || p > 1. then Alcotest.failf "probability out of range: %g" p)
    r.Evaluator.fault_probability;
  (* per-position expectations sum to the makespan *)
  Wfc_test_util.check_close "sum of E[X_i]"
    (Array.fold_left ( +. ) 0. r.Evaluator.per_position)
    r.Evaluator.makespan

let test_figure1_example_sanity () =
  (* the Section 3 example: sanity-check monotonicity in lambda *)
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
  let at lambda = Evaluator.expected_makespan (FM.make ~lambda ()) g s in
  let prev = ref (at 0.) in
  Wfc_test_util.check_close "lambda 0 = W + c3 + c4" (36. +. 0.4 +. 0.5) !prev;
  List.iter
    (fun lambda ->
      let m = at lambda in
      if m <= !prev then Alcotest.fail "makespan must increase with lambda";
      prev := m)
    [ 1e-4; 1e-3; 1e-2; 0.1; 0.3 ]

let test_reuses_precomputed_lost_work () =
  let g = Builders.chain ~weights:[| 2.; 3. |] () in
  let model = FM.make ~lambda:0.05 () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  let lost = Lost_work.compute g s in
  Wfc_test_util.check_close "same result with cached lost work"
    (Evaluator.expected_makespan model g s)
    (Evaluator.expected_makespan ~lost model g s)

let prop_at_least_fail_free =
  Wfc_test_util.qtest ~count:200 "makespan >= fail-free time"
    (Wfc_test_util.gen_dag_and_schedule ~max_n:10 ())
    Wfc_test_util.print_dag_schedule
    (fun (g, s) ->
      List.for_all
        (fun model ->
          Evaluator.expected_makespan model g s
          >= Evaluator.fail_free_time g -. 1e-9)
        Wfc_test_util.models)

let prop_fail_free_exact =
  Wfc_test_util.qtest ~count:200 "lambda = 0: makespan = W + checkpoints"
    (Wfc_test_util.gen_dag_and_schedule ~max_n:10 ())
    Wfc_test_util.print_dag_schedule
    (fun (g, s) ->
      let expected =
        Dag.total_weight g
        +. Array.fold_left
             (fun acc (t : Wfc_dag.Task.t) ->
               if Schedule.is_checkpointed s t.Wfc_dag.Task.id then
                 acc +. t.Wfc_dag.Task.checkpoint_cost
               else acc)
             0. (Dag.tasks g)
      in
      Wfc_test_util.close expected
        (Evaluator.expected_makespan FM.fail_free g s))

let prop_probabilities_valid =
  Wfc_test_util.qtest ~count:200 "fault probabilities lie in [0, 1]"
    (Wfc_test_util.gen_dag_and_schedule ~max_n:10 ())
    Wfc_test_util.print_dag_schedule
    (fun (g, s) ->
      List.for_all
        (fun model ->
          let r = Evaluator.evaluate model g s in
          Array.for_all
            (fun p -> p >= 0. && p <= 1. +. 1e-12)
            r.Evaluator.fault_probability)
        Wfc_test_util.models)

(* a zero-total-weight DAG used to make ratio return NaN (0/0); pin the
   repaired behavior instead *)
let test_ratio_zero_weight () =
  let g_free =
    Wfc_dag.Builders.chain ~weights:[| 0.; 0.; 0. |] ()
  in
  let order = [| 0; 1; 2 |] in
  let m = Wfc_platform.Failure_model.make ~lambda:0.1 ~downtime:1. () in
  Alcotest.(check (float 0.)) "no work, no overhead: ratio 1" 1.
    (Evaluator.ratio m g_free (Schedule.no_checkpoints g_free ~order));
  let g_ckpt =
    Wfc_dag.Builders.chain ~weights:[| 0.; 0.; 0. |]
      ~checkpoint_cost:(fun _ _ -> 2.)
      ~recovery_cost:(fun _ _ -> 1.)
      ()
  in
  let all = Schedule.make g_ckpt ~order ~checkpointed:[| true; true; true |] in
  Alcotest.(check bool) "overhead on zero work: infinite ratio" true
    (Evaluator.ratio m g_ckpt all = Float.infinity);
  (* and never NaN in either case *)
  Alcotest.(check bool) "never NaN" false
    (Float.is_nan (Evaluator.ratio m g_free (Schedule.no_checkpoints g_free ~order))
    || Float.is_nan (Evaluator.ratio m g_ckpt all));
  (* the ordinary positive-weight path is untouched *)
  let g = Wfc_dag.Builders.chain ~weights:[| 2.; 3. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  Wfc_test_util.check_close "positive weights unchanged"
    (Evaluator.expected_makespan m g s /. 5.)
    (Evaluator.ratio m g s)

(* ---- known answers ---- *)

(* Oracle values captured as hex floats: the Theorem 3 recurrence may be
   restructured, but these bits may not move (the branch and bound's known
   optimum below is pinned on them). *)
let pegasus family ~n ~seed =
  Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
    (Wfc_workflows.Pegasus.generate family ~n ~seed)

let test_known_makespans () =
  List.iter
    (fun (family, n, seed, mtbf, expected) ->
      let g = pegasus family ~n ~seed in
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let s =
        Schedule.make g ~order
          ~checkpointed:(Array.init (Dag.n_tasks g) (fun v -> v mod 3 = 0))
      in
      Alcotest.(check (float 0.))
        (Wfc_workflows.Pegasus.family_name family)
        expected
        (Evaluator.expected_makespan (FM.of_mtbf ~mtbf ()) g s))
    Wfc_workflows.Pegasus.
      [
        (Montage, 25, 1, 20., 0x1.6a04195a726b2p+14);
        (Ligo, 30, 2, 1e3, 0x1.29b67b963660ap+14);
        (Cybershake, 40, 3, 1e5, 0x1.02446e71e519cp+10);
      ]

(* The optimum the retired sequential search (one Evaluator call per
   child) found here: the branch and bound's parity configuration walks the
   same 931 nodes to the same flags, and the oracle's value of them may not
   move a bit. *)
let test_known_naive_optimum () =
  let g = pegasus Wfc_workflows.Pegasus.Genome ~n:12 ~seed:4 in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let model = FM.of_mtbf ~mtbf:2e4 () in
  let sol, status =
    Exact_solver.optimal_checkpoints_within ~domains:1 ~dominance:false
      ~memo:false model g ~order
  in
  Alcotest.(check bool) "optimal" true (status = `Optimal);
  Alcotest.(check (float 0.))
    "E" 0x1.89cf4596d6205p+13
    (Evaluator.expected_makespan model g sol.Exact_solver.schedule);
  Alcotest.(check (list int)) "flags" [ 0; 7; 8; 3; 9 ]
    (Schedule.checkpointed_tasks sol.Exact_solver.schedule);
  Alcotest.(check int) "nodes" 931 sol.Exact_solver.nodes

let () =
  Alcotest.run "evaluator"
    [
      ( "evaluator",
        [
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "fail-free, no ckpt" `Quick
            test_fail_free_no_checkpoint;
          Alcotest.test_case "fail-free, with ckpts" `Quick
            test_fail_free_with_checkpoints;
          Alcotest.test_case "independent tasks" `Quick test_independent_tasks;
          Alcotest.test_case "chain = one segment" `Quick
            test_chain_no_checkpoint_is_one_segment;
          Alcotest.test_case "chain = segment formula" `Quick
            test_chain_matches_segment_formula;
          Alcotest.test_case "fork = Theorem 1 forms" `Quick
            test_fork_matches_theorem1_forms;
          Alcotest.test_case "fork order irrelevant" `Quick
            test_fork_order_irrelevant;
          Alcotest.test_case "join = Lemma 2 formula" `Quick
            test_join_matches_lemma2_formula;
          Alcotest.test_case "probabilities" `Quick test_probabilities;
          Alcotest.test_case "Figure 1 sanity" `Quick test_figure1_example_sanity;
          Alcotest.test_case "cached lost work" `Quick
            test_reuses_precomputed_lost_work;
          Alcotest.test_case "ratio on zero weight" `Quick
            test_ratio_zero_weight;
          prop_at_least_fail_free;
          prop_fail_free_exact;
          prop_probabilities_valid;
        ] );
      ( "pins",
        [
          Alcotest.test_case "Pegasus oracle values" `Quick
            test_known_makespans;
          Alcotest.test_case "naive B&B optimum" `Quick
            test_known_naive_optimum;
        ] );
    ]
