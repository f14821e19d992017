open Wfc_core
module Dag = Wfc_dag.Dag
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model

let test_linearizations_of_chain () =
  let g = Builders.chain ~weights:[| 1.; 1.; 1. |] () in
  Alcotest.(check int) "unique" 1 (List.length (Brute_force.linearizations g))

let test_linearizations_of_diamond () =
  (* source, 3 interchangeable middles, sink: 3! orders *)
  let g = Builders.diamond ~width:3 () in
  let ls = Brute_force.linearizations g in
  Alcotest.(check int) "3! orders" 6 (List.length ls);
  List.iter
    (fun order ->
      Alcotest.(check bool) "valid" true (Dag.is_linearization g order))
    ls;
  (* all distinct *)
  Alcotest.(check int) "distinct" 6
    (List.length (List.sort_uniq compare ls))

let test_linearizations_of_independent_tasks () =
  let g = Dag.of_weights ~weights:[| 1.; 1.; 1.; 1. |] ~edges:[] () in
  Alcotest.(check int) "4!" 24 (List.length (Brute_force.linearizations g))

let test_linearizations_limit () =
  let g = Dag.of_weights ~weights:(Array.make 8 1.) ~edges:[] () in
  match Brute_force.linearizations ~limit:100 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "8! > 100 should exceed the limit"

let test_optimal_guards () =
  let big = Dag.of_weights ~weights:(Array.make 10 1.) ~edges:[] () in
  (match Brute_force.optimal (FM.make ~lambda:0.1 ()) big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 10 should be refused");
  let wide = Dag.of_weights ~weights:(Array.make 17 1.) ~edges:[] () in
  match
    Brute_force.optimal_checkpoints_for_order (FM.make ~lambda:0.1 ()) wide
      ~order:(Array.init 17 Fun.id)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 17 should be refused"

let test_optimal_on_known_instance () =
  (* fail-free: the optimum is any order with zero checkpoints, T_inf *)
  let g = Builders.diamond ~width:2 () in
  let s, m = Brute_force.optimal FM.fail_free g in
  Wfc_test_util.check_close "T_inf" 4. m;
  Alcotest.(check int) "no checkpoints" 0 (Schedule.checkpoint_count s)

let test_optimal_beats_every_heuristic_even_linearization () =
  let g =
    Dag.of_weights
      ~checkpoint_cost:(fun _ w -> 0.3 *. w)
      ~recovery_cost:(fun _ w -> 0.3 *. w)
      ~weights:[| 3.; 1.; 4.; 1.; 5. |]
      ~edges:[ (0, 2); (1, 2); (2, 3); (2, 4) ]
      ()
  in
  let model = FM.make ~lambda:0.15 ~downtime:1. () in
  let _, opt = Brute_force.optimal model g in
  (* exhaustive over every linearization x exact checkpoint subsets via the
     B&B gives the same optimum *)
  let best_via_bnb =
    List.fold_left
      (fun acc order ->
        Float.min acc
          (Exact_solver.optimal_checkpoints
            (Flat_engine.create model g ~order)).Exact_solver.makespan)
      infinity
      (Brute_force.linearizations g)
  in
  Wfc_test_util.check_close ~eps:1e-9 "B&B sweep = brute force" best_via_bnb opt

let () =
  Alcotest.run "brute_force"
    [
      ( "brute_force",
        [
          Alcotest.test_case "chain" `Quick test_linearizations_of_chain;
          Alcotest.test_case "diamond" `Quick test_linearizations_of_diamond;
          Alcotest.test_case "independent" `Quick
            test_linearizations_of_independent_tasks;
          Alcotest.test_case "limit" `Quick test_linearizations_limit;
          Alcotest.test_case "size guards" `Quick test_optimal_guards;
          Alcotest.test_case "known instance" `Quick test_optimal_on_known_instance;
          Alcotest.test_case "B&B sweep agreement" `Slow
            test_optimal_beats_every_heuristic_even_linearization;
        ] );
    ]
