open Wfc_core
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model

let model = FM.make ~lambda:0.05 ~downtime:0.2 ()

let chain () =
  Builders.chain
    ~weights:[| 6.; 2.; 8.; 4.; 5.; 3. |]
    ~checkpoint_cost:(fun _ w -> 0.2 *. w)
    ~recovery_cost:(fun _ w -> 0.2 *. w)
    ()

let test_never_degrades () =
  let g = chain () in
  let order = Array.init 6 Fun.id in
  List.iter
    (fun flags ->
      let seed = Schedule.make g ~order ~checkpointed:(Array.of_list flags) in
      let r = Local_search.improve model g seed in
      Alcotest.(check bool) "improved or equal" true
        (r.Local_search.makespan <= r.Local_search.initial_makespan +. 1e-12);
      Wfc_test_util.check_close "initial recorded"
        (Evaluator.expected_makespan model g seed)
        r.Local_search.initial_makespan)
    [
      [ false; false; false; false; false; false ];
      [ true; true; true; true; true; true ];
      [ true; false; true; false; true; false ];
    ]

let test_reaches_local_optimum () =
  (* after convergence, no single flip improves *)
  let g = chain () in
  let order = Array.init 6 Fun.id in
  let seed = Schedule.no_checkpoints g ~order in
  let r = Local_search.improve model g seed in
  let flags = Array.init 6 (Schedule.is_checkpointed r.Local_search.schedule) in
  for v = 0 to 5 do
    let flipped = Array.copy flags in
    flipped.(v) <- not flipped.(v);
    let m =
      Evaluator.expected_makespan model g
        (Schedule.make g ~order ~checkpointed:flipped)
    in
    if m < r.Local_search.makespan -. 1e-9 then
      Alcotest.failf "flip of %d still improves" v
  done

let test_finds_chain_optimum () =
  (* single flips reach the global optimum on this small chain (checked
     against the DP) *)
  let g = chain () in
  let order = Array.init 6 Fun.id in
  let seed = Schedule.no_checkpoints g ~order in
  let r = Local_search.improve model g seed in
  let dp = Chain_solver.solve model g in
  Wfc_test_util.check_close ~eps:1e-9 "matches chain DP"
    dp.Chain_solver.makespan r.Local_search.makespan

let test_budget_respected () =
  let g = chain () in
  let seed = Schedule.no_checkpoints g ~order:(Array.init 6 Fun.id) in
  let r = Local_search.improve ~max_evaluations:3 model g seed in
  Alcotest.(check bool) "stopped at budget" true (r.Local_search.evaluations <= 3)

let test_improves_bad_seed_on_workflow () =
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Constant 5.)
      (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Montage ~n:40 ~seed:2)
  in
  let model = FM.make ~lambda:1e-3 () in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let seed = Schedule.all_checkpoints g ~order in
  let r = Local_search.improve model g seed in
  Alcotest.(check bool) "strictly improves all-checkpoint seed" true
    (r.Local_search.makespan < r.Local_search.initial_makespan);
  Alcotest.(check bool) "some flips recorded" true (r.Local_search.flips > 0)

let test_keeps_linearization () =
  let g = chain () in
  let order = Array.init 6 Fun.id in
  let seed = Schedule.no_checkpoints g ~order in
  let r = Local_search.improve model g seed in
  for p = 0 to 5 do
    Alcotest.(check int) "order unchanged" (Schedule.task_at seed p)
      (Schedule.task_at r.Local_search.schedule p)
  done

(* the flat backend must retrace the oracle-scored hill-climb (one
   Evaluator call per flip) it replaced, on realistic 50-task instances:
   the flips and evaluations it spent, and the oracle's value of the seed
   and of the final flags, bit for bit, pinned from that search before it
   was retired. The reported makespans are the kernel's, within 1e-9. *)
let test_backend_invariance () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let model = FM.make ~lambda:1e-3 ~downtime:1. () in
  List.iter
    (fun (family, seed, ckpt, flips, evaluations, initial, final) ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n:50 ~seed) in
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let flags = Heuristics.checkpoint_flags ckpt g ~order ~n_ckpt:10 in
      let seed_sched = Schedule.make g ~order ~checkpointed:flags in
      let flat = Local_search.improve model g seed_sched in
      Alcotest.(check (float 0.)) "oracle value of the final flags" final
        (Evaluator.expected_makespan model g flat.Local_search.schedule);
      Wfc_test_util.check_close "same makespan" final
        flat.Local_search.makespan;
      Wfc_test_util.check_close "same initial" initial
        flat.Local_search.initial_makespan;
      Alcotest.(check int) "same flips" flips flat.Local_search.flips;
      Alcotest.(check int) "same evaluations" evaluations
        flat.Local_search.evaluations)
    [
      (P.Montage, 5, Heuristics.Ckpt_weight, 31, 151, 0x1.313e47e8ece2ep+9,
       0x1.1cc7f50387c74p+9);
      (P.Ligo, 9, Heuristics.Ckpt_never, 46, 101, 0x1.a9f515e366e0bp+21,
       0x1.f353723fa9de7p+13);
      (P.Cybershake, 3, Heuristics.Ckpt_always, 5, 101, 0x1.aa29f4a7eaa06p+10,
       0x1.a7f40a3bcc9fcp+10);
    ]

(* A supplied engine, left at foreign flags under another model, climbs
   bitwise as a fresh one: same flags, makespans, flips and evaluations. *)
let test_supplied_engine () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let model = FM.make ~lambda:1e-3 ~downtime:1. () in
  let other = FM.make ~lambda:5e-2 ~downtime:0. () in
  List.iter
    (fun (family, seed) ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n:50 ~seed) in
      let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
      let seed_sched =
        Schedule.make g ~order
          ~checkpointed:
            (Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order
               ~n_ckpt:10)
      in
      let fresh = Local_search.improve ~max_evaluations:300 model g seed_sched in
      let engine =
        Flat_engine.create
          ~flags:
            (Heuristics.checkpoint_flags Heuristics.Ckpt_cost g ~order
               ~n_ckpt:33)
          other g ~order
      in
      ignore (Flat_engine.makespan engine);
      let warm =
        Local_search.improve ~max_evaluations:300 ~engine model g seed_sched
      in
      let bits x = Int64.bits_of_float x in
      Alcotest.(check bool) "same schedule" true
        (warm.Local_search.schedule = fresh.Local_search.schedule);
      Alcotest.(check int64) "same makespan bits"
        (bits fresh.Local_search.makespan) (bits warm.Local_search.makespan);
      Alcotest.(check int64) "same initial bits"
        (bits fresh.Local_search.initial_makespan)
        (bits warm.Local_search.initial_makespan);
      Alcotest.(check int) "same flips" fresh.Local_search.flips
        warm.Local_search.flips;
      Alcotest.(check int) "same evaluations" fresh.Local_search.evaluations
        warm.Local_search.evaluations;
      Alcotest.(check bool) "engine left at the returned flags" true
        (Flat_engine.flags engine
        = Array.init 50 (Schedule.is_checkpointed warm.Local_search.schedule)))
    [ (P.Montage, 5); (P.Ligo, 9) ];
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Montage ~n:50 ~seed:5) in
  let df = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let bf = Wfc_dag.Linearize.run Wfc_dag.Linearize.Breadth_first g in
  Alcotest.(check bool) "two distinct orders" true (df <> bf);
  let engine = Flat_engine.create model g ~order:df in
  Alcotest.check_raises "engine on another order"
    (Invalid_argument "Flat_engine.bind: engine bound to another order")
    (fun () ->
      ignore
        (Local_search.improve ~engine model g
           (Schedule.no_checkpoints g ~order:bf)))

let () =
  Alcotest.run "local_search"
    [
      ( "local_search",
        [
          Alcotest.test_case "never degrades" `Quick test_never_degrades;
          Alcotest.test_case "local optimum" `Quick test_reaches_local_optimum;
          Alcotest.test_case "finds chain optimum" `Quick test_finds_chain_optimum;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "improves bad seed" `Quick
            test_improves_bad_seed_on_workflow;
          Alcotest.test_case "keeps linearization" `Quick test_keeps_linearization;
          Alcotest.test_case "backend invariance" `Quick
            test_backend_invariance;
          Alcotest.test_case "supplied engine" `Quick test_supplied_engine;
        ] );
    ]
