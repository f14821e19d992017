open Wfc_core
module Dag = Wfc_dag.Dag
module Builders = Wfc_dag.Builders
module Linearize = Wfc_dag.Linearize
module FM = Wfc_platform.Failure_model

let test_names () =
  let expected =
    [ "CkptNvr"; "CkptAlws"; "CkptW"; "CkptC"; "CkptD"; "CkptPer" ]
  in
  Alcotest.(check (list string)) "names" expected
    (List.map Heuristics.ckpt_strategy_name Heuristics.all_ckpt_strategies);
  List.iter
    (fun s ->
      match Heuristics.ckpt_strategy_of_string (Heuristics.ckpt_strategy_name s) with
      | Some s' when s' = s -> ()
      | _ -> Alcotest.fail "round trip")
    Heuristics.all_ckpt_strategies;
  Alcotest.(check string) "combined" "DF-CkptW"
    (Heuristics.name Linearize.Depth_first Heuristics.Ckpt_weight)

let test_candidate_counts_exhaustive () =
  Alcotest.(check (list int)) "n=5" [ 1; 2; 3; 4 ]
    (Heuristics.candidate_counts Heuristics.Exhaustive ~n:5);
  Alcotest.(check (list int)) "n=1" []
    (Heuristics.candidate_counts Heuristics.Exhaustive ~n:1)

let test_candidate_counts_grid () =
  let counts = Heuristics.candidate_counts (Heuristics.Grid 16) ~n:200 in
  Alcotest.(check bool) "within budget (geo+lin overlap allowed)" true
    (List.length counts <= 18);
  Alcotest.(check bool) "contains 1" true (List.mem 1 counts);
  Alcotest.(check bool) "contains n-1" true (List.mem 199 counts);
  Alcotest.(check bool) "sorted strictly" true
    (List.sort_uniq compare counts = counts);
  (* small n degenerates to exhaustive *)
  Alcotest.(check (list int)) "n=8 exhaustive" [ 1; 2; 3; 4; 5; 6; 7 ]
    (Heuristics.candidate_counts (Heuristics.Grid 16) ~n:8)

let weights = [| 10.; 40.; 20.; 30. |]

let ranked_dag () =
  (* independent tasks: ids 0..3, weights above; c_i = [4;1;3;2];
     outweight ranking needs edges, so add 0 -> 1 (d_0 = 40). *)
  Dag.of_weights
    ~checkpoint_cost:(fun i _ -> [| 4.; 1.; 3.; 2. |].(i))
    ~weights ~edges:[ (0, 1) ] ()

let flags_to_list f = Array.to_list f

let test_flags_by_weight () =
  let g = ranked_dag () in
  let order = [| 0; 1; 2; 3 |] in
  let f = Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order ~n_ckpt:2 in
  (* two heaviest: tasks 1 (40) and 3 (30) *)
  Alcotest.(check (list bool)) "top-2 by weight"
    [ false; true; false; true ] (flags_to_list f)

let test_flags_by_cost () =
  let g = ranked_dag () in
  let order = [| 0; 1; 2; 3 |] in
  let f = Heuristics.checkpoint_flags Heuristics.Ckpt_cost g ~order ~n_ckpt:2 in
  (* two cheapest checkpoints: tasks 1 (c=1) and 3 (c=2) *)
  Alcotest.(check (list bool)) "top-2 by cheap cost"
    [ false; true; false; true ] (flags_to_list f)

let test_flags_by_outweight () =
  let g = ranked_dag () in
  let order = [| 0; 1; 2; 3 |] in
  let f = Heuristics.checkpoint_flags Heuristics.Ckpt_outweight g ~order ~n_ckpt:1 in
  (* only task 0 has successors (d_0 = 40) *)
  Alcotest.(check (list bool)) "heaviest successors"
    [ true; false; false; false ] (flags_to_list f)

let test_flags_never_always () =
  let g = ranked_dag () in
  let order = [| 0; 1; 2; 3 |] in
  Alcotest.(check (list bool)) "never" [ false; false; false; false ]
    (flags_to_list (Heuristics.checkpoint_flags Heuristics.Ckpt_never g ~order ~n_ckpt:2));
  Alcotest.(check (list bool)) "always" [ true; true; true; true ]
    (flags_to_list (Heuristics.checkpoint_flags Heuristics.Ckpt_always g ~order ~n_ckpt:0))

let test_flags_periodic () =
  (* W = 100; N = 4: thresholds at 25, 50, 75 on the failure-free timeline
     10, 50, 70, 100 -> task 1 (first to finish past 25, also covering 50)
     and task 3 (first past 75). *)
  let g = ranked_dag () in
  let order = [| 0; 1; 2; 3 |] in
  let f = Heuristics.checkpoint_flags Heuristics.Ckpt_periodic g ~order ~n_ckpt:4 in
  Alcotest.(check (list bool)) "periodic placement"
    [ false; true; false; true ] (flags_to_list f);
  (* N = 1 means no checkpoint at all *)
  let f1 = Heuristics.checkpoint_flags Heuristics.Ckpt_periodic g ~order ~n_ckpt:1 in
  Alcotest.(check (list bool)) "N=1 no checkpoints"
    [ false; false; false; false ] (flags_to_list f1)

let test_flags_periodic_follows_order () =
  let g = ranked_dag () in
  (* different linearization shifts the timeline *)
  let order = [| 2; 3; 0; 1 |] in
  let f = Heuristics.checkpoint_flags Heuristics.Ckpt_periodic g ~order ~n_ckpt:2 in
  (* timeline 20, 50, 60, 100; single threshold at 50 -> task 3 *)
  Alcotest.(check (list bool)) "uses the given order"
    [ false; false; false; true ] (flags_to_list f)

let test_flags_validation () =
  let g = ranked_dag () in
  let order = [| 0; 1; 2; 3 |] in
  match Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order ~n_ckpt:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_ckpt > n accepted"

let model = FM.make ~lambda:0.02 ~downtime:0.1 ()

let chain_dag () =
  Builders.chain
    ~weights:[| 5.; 9.; 3.; 7.; 4.; 8. |]
    ~checkpoint_cost:(fun _ w -> 0.15 *. w)
    ~recovery_cost:(fun _ w -> 0.15 *. w)
    ()

let test_run_baselines () =
  let g = chain_dag () in
  let never = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_never in
  Alcotest.(check int) "never has 0 ckpt" 0
    (Schedule.checkpoint_count never.Heuristics.schedule);
  Alcotest.(check int) "never: single evaluation" 1 never.Heuristics.evaluations;
  let always = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_always in
  Alcotest.(check int) "always has n ckpt" 6
    (Schedule.checkpoint_count always.Heuristics.schedule)

let test_run_searches_n () =
  let g = chain_dag () in
  let o = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight in
  Alcotest.(check int) "tries all N in 1..n-1" 5 o.Heuristics.evaluations;
  Alcotest.(check int) "best N recorded" o.Heuristics.n_ckpt
    (Schedule.checkpoint_count o.Heuristics.schedule);
  (* result must be at least as good as both baselines *)
  let never = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_never in
  Alcotest.(check bool) "beats never" true
    (o.Heuristics.makespan <= never.Heuristics.makespan +. 1e-9)

let test_run_matches_brute_force_subset_family () =
  (* the heuristic's best-N schedule must match an explicit scan over N *)
  let g = chain_dag () in
  let order = Linearize.run Linearize.Depth_first g in
  let o = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_cost in
  let explicit =
    List.fold_left
      (fun acc n_ckpt ->
        let flags = Heuristics.checkpoint_flags Heuristics.Ckpt_cost g ~order ~n_ckpt in
        let s = Schedule.make g ~order ~checkpointed:flags in
        Float.min acc (Evaluator.expected_makespan model g s))
      infinity
      [ 1; 2; 3; 4; 5 ]
  in
  Wfc_test_util.check_close "same optimum" explicit o.Heuristics.makespan

let test_grid_close_to_exhaustive () =
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Montage ~n:80 ~seed:2)
  in
  let model = FM.make ~lambda:1e-3 () in
  let full = Heuristics.run model g ~lin:Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight in
  let grid =
    Heuristics.run ~search:(Heuristics.Grid 24) model g ~lin:Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  Alcotest.(check bool) "grid within 2% of exhaustive" true
    (grid.Heuristics.makespan <= full.Heuristics.makespan *. 1.02)

let test_best_over_linearizations () =
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Ligo ~n:60 ~seed:4)
  in
  let model = FM.make ~lambda:1e-3 () in
  let _, best =
    Heuristics.best_over_linearizations ~search:(Heuristics.Grid 16) model g
      ~ckpt:Heuristics.Ckpt_weight
  in
  List.iter
    (fun lin ->
      let o = Heuristics.run ~search:(Heuristics.Grid 16) model g ~lin ~ckpt:Heuristics.Ckpt_weight in
      Alcotest.(check bool)
        ("best <= " ^ Linearize.strategy_name lin)
        true
        (best.Heuristics.makespan <= o.Heuristics.makespan +. 1e-9))
    Linearize.all

let test_heuristics_near_brute_force () =
  (* on a tiny DAG the best heuristic should be close to the true optimum *)
  let g =
    Dag.of_weights
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.2 *. w)
      ~weights:[| 4.; 2.; 6.; 3.; 5. |]
      ~edges:[ (0, 2); (1, 2); (2, 3); (2, 4) ]
      ()
  in
  let model = FM.make ~lambda:0.05 () in
  let _, opt = Brute_force.optimal model g in
  let best =
    List.fold_left
      (fun acc ckpt ->
        let _, o = Heuristics.best_over_linearizations model g ~ckpt in
        Float.min acc o.Heuristics.makespan)
      infinity Heuristics.all_ckpt_strategies
  in
  Alcotest.(check bool) "heuristics within 5% of optimal" true
    (best <= opt *. 1.05);
  Alcotest.(check bool) "heuristics not better than optimal" true
    (best >= opt -. 1e-9)

(* ---- candidate_counts edge cases ---- *)

let test_candidate_counts_edges () =
  (* n = 1: no positive count below n exists *)
  List.iter
    (fun search ->
      Alcotest.(check (list int)) "n=1 empty" []
        (Heuristics.candidate_counts search ~n:1))
    [ Heuristics.Exhaustive; Heuristics.Grid 2; Heuristics.Grid 100 ];
  (* n = 2: the only candidate is N = 1, whatever the search *)
  List.iter
    (fun search ->
      Alcotest.(check (list int)) "n=2 singleton" [ 1 ]
        (Heuristics.candidate_counts search ~n:2))
    [ Heuristics.Exhaustive; Heuristics.Grid 2; Heuristics.Grid 100 ];
  (* Grid 2 is the smallest accepted budget: endpoints only *)
  Alcotest.(check (list int)) "Grid 2 endpoints" [ 1; 99 ]
    (Heuristics.candidate_counts (Heuristics.Grid 2) ~n:100);
  (match Heuristics.candidate_counts (Heuristics.Grid 1) ~n:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Grid 1 on large n must raise");
  (* budget >= n - 1 degenerates to the exhaustive scan *)
  List.iter
    (fun budget ->
      Alcotest.(check (list int)) "budget covers all"
        (Heuristics.candidate_counts Heuristics.Exhaustive ~n:12)
        (Heuristics.candidate_counts (Heuristics.Grid budget) ~n:12))
    [ 11; 12; 1000 ];
  (* emitted counts are unique, sorted, within [1, n-1] for many shapes *)
  List.iter
    (fun (budget, n) ->
      let counts = Heuristics.candidate_counts (Heuristics.Grid budget) ~n in
      Alcotest.(check bool) "sorted unique" true
        (List.sort_uniq compare counts = counts);
      Alcotest.(check bool) "in range" true
        (List.for_all (fun c -> 1 <= c && c <= n - 1) counts))
    [ (2, 3); (2, 1000); (3, 7); (5, 50); (16, 200); (16, 10000); (7, 9) ]

(* ---- backend invariance ---- *)

(* The flat engine must not change what the search finds: the checkpoint
   count the oracle-scored sweep (one Evaluator call per candidate) chose
   on these realistic 50-task instances before it was retired, for each
   strategy under exhaustive and Grid 8 search, and the same bookkeeping.
   The reported makespan is the kernel's, within 1e-9 relative of the
   oracle's value of the returned schedule. *)
let oracle_sweep_choices =
  let module P = Wfc_workflows.Pegasus in
  (* per strategy, in [all_ckpt_strategies] order: (exhaustive n_ckpt,
     Grid 8 n_ckpt) *)
  [
    (P.Montage, 5,
     [ (0, 0); (50, 50); (45, 49); (49, 49); (39, 33); (49, 49) ]);
    (P.Ligo, 9, [ (0, 0); (50, 50); (49, 49); (49, 49); (46, 49); (34, 33) ]);
  ]

let test_backend_invariance () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let model = FM.make ~lambda:1e-3 ~downtime:1. () in
  List.iter
    (fun (family, seed, choices) ->
      let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n:50 ~seed) in
      let order = Linearize.run Linearize.Depth_first g in
      List.iter2
        (fun ckpt (exhaustive, grid) ->
          List.iter
            (fun (search, n_ckpt) ->
              let flat =
                Heuristics.run ~search model g ~lin:Linearize.Depth_first ~ckpt
              in
              let name = Heuristics.ckpt_strategy_name ckpt ^ "/flat" in
              Alcotest.(check bool)
                (name ^ " same order") true
                (flat.Heuristics.schedule.Schedule.order = order);
              Alcotest.(check int) (name ^ " same n_ckpt") n_ckpt
                flat.Heuristics.n_ckpt;
              Alcotest.(check bool)
                (name ^ " same flags") true
                (flat.Heuristics.schedule.Schedule.checkpointed
                = Heuristics.checkpoint_flags ckpt g ~order ~n_ckpt);
              Wfc_test_util.check_close
                (name ^ " same makespan")
                (Evaluator.expected_makespan model g flat.Heuristics.schedule)
                flat.Heuristics.makespan;
              let candidates =
                match ckpt with
                | Heuristics.Ckpt_never | Heuristics.Ckpt_always -> 1
                | _ -> List.length (Heuristics.candidate_counts search ~n:50)
              in
              Alcotest.(check int)
                (name ^ " same evaluations") candidates
                flat.Heuristics.evaluations)
            [ (Heuristics.Exhaustive, exhaustive); (Heuristics.Grid 8, grid) ])
        Heuristics.all_ckpt_strategies choices)
    oracle_sweep_choices

(* A warm engine may be left at any flag vector: at one of the candidate
   counts (which the sweep then scores first), or at another strategy's
   choice. Scores are recorded by candidate and the winner is picked by the
   ascending scan, so the outcome is bitwise the cold one, ties and
   non-finite scores included: the lambda = 1 case overflows to nan, and
   with free checkpoints at lambda = 1e-30 every candidate ties exactly,
   so the smallest count must win from any start. *)
let test_warm_start_invariance () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let lin = Linearize.Depth_first in
  List.iter
    (fun (family, seed, factor, lambda) ->
      let model = FM.make ~lambda ~downtime:1. () in
      let g =
        CM.apply (CM.Proportional factor) (P.generate family ~n:50 ~seed)
      in
      let order = Linearize.run lin g in
      List.iter
        (fun ckpt ->
          List.iter
            (fun search ->
              let cold = Heuristics.run ~search model g ~lin ~ckpt in
              let starts =
                Heuristics.checkpoint_flags Heuristics.Ckpt_cost g ~order
                  ~n_ckpt:17
                :: List.map
                     (fun n_ckpt ->
                       Heuristics.checkpoint_flags ckpt g ~order ~n_ckpt)
                     (Heuristics.candidate_counts search ~n:50)
              in
              List.iter
                (fun flags ->
                  let engine = Flat_engine.create ~flags model g ~order in
                  let warm = Heuristics.run ~search ~engine model g ~lin ~ckpt in
                  let name =
                    Printf.sprintf "%s %s lambda=%g from %d flags"
                      (P.family_name family)
                      (Heuristics.ckpt_strategy_name ckpt) lambda
                      (Array.fold_left
                         (fun c b -> if b then c + 1 else c) 0 flags)
                  in
                  Alcotest.(check int) (name ^ " n_ckpt") cold.Heuristics.n_ckpt
                    warm.Heuristics.n_ckpt;
                  Alcotest.(check int64) (name ^ " makespan bits")
                    (Int64.bits_of_float cold.Heuristics.makespan)
                    (Int64.bits_of_float warm.Heuristics.makespan);
                  Alcotest.(check bool) (name ^ " schedule") true
                    (warm.Heuristics.schedule = cold.Heuristics.schedule);
                  Alcotest.(check int) (name ^ " evaluations")
                    cold.Heuristics.evaluations warm.Heuristics.evaluations)
                starts)
            [ Heuristics.Exhaustive; Heuristics.Grid 4; Heuristics.Grid 8 ])
        Heuristics.extended_ckpt_strategies)
    [ (P.Montage, 5, 0.1, 1e-3); (P.Ligo, 9, 0.1, 1e-3); (P.Ligo, 9, 0.1, 1.);
      (P.Montage, 5, 0., 1e-30) ]

(* The caller decides the engine: a supplied engine's order is trusted,
   not re-derived from [lin] (which then only names the heuristic), so an
   RF engine drawn once answers every later request as the draw did. A
   [rand] next to an engine could not reach that order, so it is
   rejected. *)
let test_engine_order_trusted () =
  let module P = Wfc_workflows.Pegasus in
  let module CM = Wfc_workflows.Cost_model in
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Montage ~n:50 ~seed:5) in
  let model = FM.of_mtbf ~mtbf:300. () in
  let ckpt = Heuristics.Ckpt_weight in
  let rand () =
    let rng = Wfc_platform.Rng.create 11 in
    fun b -> Wfc_platform.Rng.int rng b
  in
  let rf = Linearize.run ~rand:(rand ()) Linearize.Random_first g in
  let cold =
    Heuristics.run ~rand:(rand ()) model g ~lin:Linearize.Random_first ~ckpt
  in
  let engine = Flat_engine.create model g ~order:rf in
  let warm = Heuristics.run ~engine model g ~lin:Linearize.Random_first ~ckpt in
  Alcotest.(check bool) "RF drawn once: the cold schedule" true
    (warm.Heuristics.schedule = cold.Heuristics.schedule);
  Alcotest.(check int64) "same makespan bits"
    (Int64.bits_of_float cold.Heuristics.makespan)
    (Int64.bits_of_float warm.Heuristics.makespan);
  let bf = Linearize.run Linearize.Breadth_first g in
  let on_bf =
    Heuristics.run ~engine:(Flat_engine.create model g ~order:bf) model g
      ~lin:Linearize.Depth_first ~ckpt
  in
  Alcotest.(check bool) "the engine's order, not lin's" true
    (on_bf.Heuristics.schedule
    = (Heuristics.run model g ~lin:Linearize.Breadth_first ~ckpt)
        .Heuristics.schedule);
  Alcotest.check_raises "rand with an engine"
    (Invalid_argument "Heuristics.run: ?rand with an engine") (fun () ->
      ignore
        (Heuristics.run ~rand:(rand ()) ~engine model g
           ~lin:Linearize.Random_first ~ckpt))

let () =
  Alcotest.run "heuristics"
    [
      ( "heuristics",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "counts exhaustive" `Quick
            test_candidate_counts_exhaustive;
          Alcotest.test_case "counts grid" `Quick test_candidate_counts_grid;
          Alcotest.test_case "counts edges" `Quick test_candidate_counts_edges;
          Alcotest.test_case "backend invariance" `Quick
            test_backend_invariance;
          Alcotest.test_case "warm start invariance" `Quick
            test_warm_start_invariance;
          Alcotest.test_case "flags by weight" `Quick test_flags_by_weight;
          Alcotest.test_case "flags by cost" `Quick test_flags_by_cost;
          Alcotest.test_case "flags by outweight" `Quick test_flags_by_outweight;
          Alcotest.test_case "flags never/always" `Quick test_flags_never_always;
          Alcotest.test_case "flags periodic" `Quick test_flags_periodic;
          Alcotest.test_case "periodic follows order" `Quick
            test_flags_periodic_follows_order;
          Alcotest.test_case "flags validation" `Quick test_flags_validation;
          Alcotest.test_case "run baselines" `Quick test_run_baselines;
          Alcotest.test_case "run searches N" `Quick test_run_searches_n;
          Alcotest.test_case "run = explicit N scan" `Quick
            test_run_matches_brute_force_subset_family;
          Alcotest.test_case "grid close to exhaustive" `Slow
            test_grid_close_to_exhaustive;
          Alcotest.test_case "best over linearizations" `Quick
            test_best_over_linearizations;
          Alcotest.test_case "near brute force" `Slow
            test_heuristics_near_brute_force;
          Alcotest.test_case "engine order trusted" `Quick
            test_engine_order_trusted;
        ] );
    ]
