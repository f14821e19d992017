module D = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module Heuristics = Wfc_core.Heuristics
module Stress = Wfc_resilience.Stress
module Driver = Wfc_resilience.Solver_driver

let workflow n =
  Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
    (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Montage ~n ~seed:4)

let nominal = FM.make ~lambda:5e-3 ~downtime:1. ()

let df_order g = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g

(* ---- solver driver: graceful degradation ---- *)

let test_driver_exact_tier () =
  let g = workflow 12 in
  let order = df_order g in
  let r = Driver.solve nominal g ~order in
  Alcotest.(check string) "tier" "exact" (Driver.tier_name r.Driver.tier);
  let sol =
    Wfc_core.Exact_solver.optimal_checkpoints
      (Wfc_core.Flat_engine.create nominal g ~order)
  in
  Wfc_test_util.check_close "matches the raising solver"
    sol.Wfc_core.Exact_solver.makespan r.Driver.makespan;
  Alcotest.(check bool) "reason mentions completion" true
    (String.length r.Driver.reason > 0)

let test_driver_degrades () =
  (* 25 tasks under a 100-node budget: the exact tier cannot finish, but the
     driver must still return a schedule no worse than its best fallback *)
  let g = workflow 25 in
  let order = df_order g in
  let config = { Driver.default_config with Driver.max_nodes = 100 } in
  let r = Driver.solve ~config nominal g ~order in
  Alcotest.(check bool) "not the exact tier" true (r.Driver.tier <> Driver.Exact);
  Alcotest.(check bool) "non-empty reason" true (String.length r.Driver.reason > 0);
  let best_fallback =
    List.fold_left
      (fun acc (lin, ckpt) ->
        Float.min acc (Heuristics.run nominal g ~lin ~ckpt).Heuristics.makespan)
      infinity config.Driver.fallbacks
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f <= best fallback %.2f" r.Driver.makespan best_fallback)
    true
    (r.Driver.makespan <= best_fallback +. 1e-9);
  (* the returned expectation matches its own schedule *)
  Wfc_test_util.check_close "self-consistent"
    (Wfc_core.Evaluator.expected_makespan nominal g r.Driver.schedule)
    r.Driver.makespan

let test_driver_deadline () =
  (* an already-elapsed deadline forces immediate degradation *)
  let g = workflow 25 in
  let r =
    Driver.solve
      ~config:{ Driver.default_config with Driver.deadline = Some 0. }
      nominal g ~order:(df_order g)
  in
  Alcotest.(check bool) "degraded" true (r.Driver.tier <> Driver.Exact)

(* ---- stress campaigns ---- *)

let stress_fixture () =
  let g = workflow 12 in
  let outcome =
    Heuristics.run nominal g ~lin:Wfc_dag.Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  (g, outcome.Heuristics.schedule)

let test_evaluate_deterministic_and_domain_invariant () =
  let g, s = stress_fixture () in
  let scenarios = Stress.default_grid nominal in
  let eval domains =
    Stress.evaluate ~runs:200 ~domains ~seed:5 ~nominal ~scenarios g s
  in
  let a = eval 1 and b = eval 1 and c = eval 3 in
  List.iter2
    (fun (x : Stress.scenario_result) (y : Stress.scenario_result) ->
      Alcotest.(check (float 0.)) "mean" x.Stress.mean y.Stress.mean;
      Alcotest.(check (float 0.)) "p99" x.Stress.p99 y.Stress.p99;
      Alcotest.(check int) "divergent" x.Stress.divergent y.Stress.divergent)
    a.Stress.results b.Stress.results;
  (* bit-identical across domain counts, not merely statistically equal *)
  List.iter2
    (fun (x : Stress.scenario_result) (y : Stress.scenario_result) ->
      Alcotest.(check (float 0.)) "mean across domains" x.Stress.mean
        y.Stress.mean;
      Alcotest.(check (float 0.)) "p99 across domains" x.Stress.p99 y.Stress.p99)
    a.Stress.results c.Stress.results

let test_evaluate_degradations () =
  let g, s = stress_fixture () in
  let scenarios = Stress.default_grid nominal in
  let report = Stress.evaluate ~runs:2000 ~domains:2 ~seed:9 ~nominal ~scenarios g s in
  let find name =
    List.find
      (fun r -> r.Stress.scenario.Stress.name = name)
      report.Stress.results
  in
  let nom = find "nominal" in
  Alcotest.(check bool)
    (Printf.sprintf "nominal mean ratio %.3f close to 1" nom.Stress.mean_degradation)
    true
    (Float.abs (nom.Stress.mean_degradation -. 1.) < 0.05);
  let harsh = find "mtbf/10" in
  Alcotest.(check bool) "mtbf/10 is worse than nominal" true
    (harsh.Stress.mean > nom.Stress.mean);
  Alcotest.(check bool) "tail dominates mean" true
    (List.for_all
       (fun r -> r.Stress.tail_degradation >= r.Stress.mean_degradation)
       report.Stress.results);
  Alcotest.(check bool) "robustness is the worst tail" true
    (Float.equal report.Stress.robustness
       (List.fold_left
          (fun acc r -> Float.max acc r.Stress.tail_degradation)
          0. report.Stress.results))

let test_rank_sorted () =
  let g, _ = stress_fixture () in
  let scenarios = Stress.default_grid nominal in
  let ranked =
    Stress.rank ~runs:300 ~domains:2 ~seed:5 ~nominal ~scenarios g
      [
        (Wfc_dag.Linearize.Depth_first, Heuristics.Ckpt_never);
        (Wfc_dag.Linearize.Depth_first, Heuristics.Ckpt_weight);
        (Wfc_dag.Linearize.Depth_first, Heuristics.Ckpt_periodic);
      ]
  in
  Alcotest.(check int) "all ranked" 3 (List.length ranked);
  let scores = List.map (fun r -> r.Stress.report.Stress.robustness) ranked in
  Alcotest.(check bool) "ascending robustness" true
    (List.sort Float.compare scores = scores);
  (* a checkpointing heuristic must beat restart-only under the harsh grid *)
  let first = List.hd ranked in
  Alcotest.(check bool)
    (Printf.sprintf "%s is not CkptNvr" first.Stress.heuristic)
    true
    (first.Stress.heuristic <> "DF-CkptNvr")

let test_divergence_disqualifies () =
  (* a restart-only schedule that cannot finish under a harsh scenario gets
     truncated makespans — lower bounds that would otherwise look "robust".
     Divergence must force the score to infinity *)
  let g = Wfc_dag.Builders.chain ~weights:(Array.make 8 100.) () in
  let s =
    Wfc_core.Schedule.make g ~order:(Array.init 8 Fun.id)
      ~checkpointed:(Array.make 8 false)
  in
  let harsh =
    {
      Stress.name = "harsh";
      params =
        Wfc_simulator.Sim_faults.nominal (FM.make ~lambda:0.05 ~downtime:0. ());
    }
  in
  let report =
    Stress.evaluate ~runs:20 ~domains:1 ~max_failures:100 ~seed:3
      ~nominal:(FM.make ~lambda:1e-4 ())
      ~scenarios:[ harsh ] g s
  in
  let r = List.hd report.Stress.results in
  Alcotest.(check bool) "runs diverged" true (r.Stress.divergent > 0);
  Alcotest.(check bool) "score disqualified" true
    (report.Stress.robustness = Float.infinity)

let test_validation () =
  let g, s = stress_fixture () in
  let scenarios = Stress.default_grid nominal in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> ignore (Stress.default_grid FM.fail_free));
  expect_invalid (fun () ->
      ignore (Stress.evaluate ~runs:0 ~seed:1 ~nominal ~scenarios g s));
  expect_invalid (fun () ->
      ignore (Stress.evaluate ~domains:0 ~seed:1 ~nominal ~scenarios g s));
  expect_invalid (fun () ->
      ignore (Stress.evaluate ~max_failures:0 ~seed:1 ~nominal ~scenarios g s));
  expect_invalid (fun () ->
      ignore (Stress.evaluate ~seed:1 ~nominal ~scenarios:[] g s))

(* ---- robust: risk-aware selection on shared, seeded failure lanes ---- *)

module Robust = Wfc_resilience.Robust

let test_robust_scenarios () =
  let scs = Robust.default_scenarios nominal in
  Alcotest.(check int) "four laws" 4 (List.length scs);
  (* equal MTBF by construction: shape varies, scale does not *)
  List.iter
    (fun (sc : Robust.scenario) ->
      Wfc_test_util.check_close ~eps:1e-6
        (Printf.sprintf "MTBF of %s" sc.Robust.name)
        (1. /. nominal.FM.lambda)
        (D.mean sc.Robust.failures))
    scs;
  (match Robust.default_scenarios FM.fail_free with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fail-free nominal must be rejected")

let test_criterion_parsing () =
  let check s expect =
    match (Robust.criterion_of_string s, expect) with
    | None, None -> ()
    | Some c, Some c' when c = c' -> ()
    | got, _ ->
        Alcotest.failf "%s parsed as %s" s
          (match got with
          | None -> "None"
          | Some c -> Robust.criterion_name c)
  in
  check "mean" (Some Robust.Mean);
  check "worst" (Some Robust.Worst);
  check "cvar" (Some (Robust.CVaR 0.95));
  check "cvar:0.9" (Some (Robust.CVaR 0.9));
  check "CVAR:0.5" (Some (Robust.CVaR 0.5));
  check "cvar:1.5" None;
  check "p99" None

let robust_fixture () =
  let g = workflow 12 in
  let order = df_order g in
  (g, order)

let test_robust_evaluate () =
  let g, order = robust_fixture () in
  (* a harsh platform (MTBF = half the total work): checkpointing everything
     should beat checkpointing nothing under every scenario's law *)
  let harsh =
    FM.make ~lambda:(2. /. Wfc_dag.Dag.total_weight g) ~downtime:1. ()
  in
  let candidates =
    [
      Robust.static ~name:"none" g (Wfc_core.Schedule.no_checkpoints g ~order);
      Robust.static ~name:"all" g (Wfc_core.Schedule.all_checkpoints g ~order);
    ]
  in
  let eval () =
    Robust.evaluate ~traces_per_scenario:20 ~seed:11
      ~criterion:(Robust.CVaR 0.9)
      ~scenarios:(Robust.default_scenarios harsh)
      candidates
  in
  let r = eval () in
  Alcotest.(check string) "all checkpoints wins" "all"
    r.Robust.winner.Robust.candidate;
  (* the lanes are seeded: same seed, same report *)
  let r' = eval () in
  Alcotest.(check bool) "deterministic" true (r.Robust.scores = r'.Robust.scores);
  List.iter
    (fun (s : Robust.score) ->
      Alcotest.(check int) "one regret entry per scenario" 4
        (List.length s.Robust.regret);
      List.iter
        (fun (_, reg) ->
          Alcotest.(check bool) "regret non-negative" true (reg >= 0.))
        s.Robust.regret;
      Alcotest.(check bool) "cvar dominates mean" true
        (s.Robust.cvar >= s.Robust.mean);
      Alcotest.(check bool) "worst dominates cvar" true
        (s.Robust.worst >= s.Robust.cvar))
    r.Robust.scores;
  (* the per-scenario winner has zero regret somewhere *)
  let winner_regrets = List.map snd r.Robust.winner.Robust.regret in
  Alcotest.(check bool) "winner touches zero regret" true
    (List.exists (fun reg -> reg = 0.) winner_regrets)

let test_robust_adaptive_candidate () =
  (* the adaptive policy faces the same failures as the statics *)
  let g, order = robust_fixture () in
  let s = Wfc_core.Schedule.no_checkpoints g ~order in
  let planning = FM.make ~lambda:1e-4 ~downtime:1. () in
  let config =
    {
      (Wfc_simulator.Sim_adaptive.default_config planning) with
      Wfc_simulator.Sim_adaptive.replan = Some (Driver.replanner ~budget:64 g);
    }
  in
  let harsh =
    FM.make ~lambda:(2. /. Wfc_dag.Dag.total_weight g) ~downtime:1. ()
  in
  let r =
    Robust.evaluate ~traces_per_scenario:10 ~seed:3 ~criterion:Robust.Mean
      ~scenarios:(Robust.default_scenarios harsh)
      [
        Robust.static ~name:"static-misspecified" g s;
        Robust.adaptive ~name:"adaptive" config g s;
      ]
  in
  Alcotest.(check string) "adaptive wins under misspecification" "adaptive"
    r.Robust.winner.Robust.candidate

let test_robust_validation () =
  let g, order = robust_fixture () in
  let s = Wfc_core.Schedule.no_checkpoints g ~order in
  let cand = [ Robust.static ~name:"s" g s ] in
  let scenarios = Robust.default_scenarios nominal in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  let eval ?(candidates = cand) ?(scenarios = scenarios) ?traces ?alpha
      ?(criterion = Robust.Mean) () =
    ignore
      (Robust.evaluate ?traces_per_scenario:traces ?alpha ~seed:1 ~criterion
         ~scenarios candidates)
  in
  expect_invalid (fun () -> eval ~candidates:[] ());
  expect_invalid (fun () -> eval ~scenarios:[] ());
  expect_invalid (fun () -> eval ~traces:0 ());
  expect_invalid (fun () -> eval ~alpha:1.5 ());
  expect_invalid (fun () -> eval ~criterion:(Robust.CVaR 2.) ())

(* Nothing truncates a live run, so the token is what stops one that cannot
   finish: a cancelled token stops the evaluation before its first run, and
   an expiring one stops a run that would take e^50 attempts. *)
let test_robust_cancel () =
  let g, order = robust_fixture () in
  let s = Wfc_core.Schedule.no_checkpoints g ~order in
  let expect_cancelled cancel scenarios =
    match
      Robust.evaluate ~traces_per_scenario:2 ~cancel ~seed:1
        ~criterion:Robust.Mean ~scenarios
        [ Robust.static ~name:"s" g s ]
    with
    | exception Wfc_platform.Cancel.Cancelled -> ()
    | _ -> Alcotest.fail "expected Cancelled"
  in
  let cancelled = Wfc_platform.Cancel.create () in
  Wfc_platform.Cancel.cancel cancelled;
  expect_cancelled cancelled (Robust.default_scenarios nominal);
  let divergent =
    FM.make ~lambda:(50. /. Wfc_dag.Dag.total_weight g) ~downtime:1. ()
  in
  expect_cancelled
    (Wfc_platform.Cancel.create ~budget:0.05 ())
    (Robust.default_scenarios divergent)

(* Live lanes = the replayed ensemble: whenever no run of the reference
   outlives its recorded horizon, static, replicated and adaptive candidates
   score the same bits on live lanes as on the pre-drawn traces, under every
   default scenario. *)
let prop_live_is_replayed =
  let module Ref = Wfc_test_util.Robust_reference in
  Wfc_test_util.qtest ~count:25 "live lanes = replayed traces"
    QCheck2.Gen.(
      let* g, s = Wfc_test_util.gen_dag_and_schedule ~max_n:8 () in
      let n = Wfc_dag.Dag.n_tasks g in
      let* reps = array_repeat n (int_range 1 3) in
      if Array.for_all (( = ) 1) reps then reps.(n - 1) <- 2;
      let* seed = nat and* factor = float_range 0.5 4. in
      return ((g, s), reps, seed, factor))
    (fun ((g, s), reps, seed, factor) ->
      Printf.sprintf "%s reps=[%s] seed=%d mtbf=%gW"
        (Wfc_test_util.print_dag_schedule (g, s))
        (String.concat ";" (Array.to_list (Array.map string_of_int reps)))
        seed factor)
    (fun ((g, s), reps, seed, factor) ->
      let w = Wfc_dag.Dag.total_weight g in
      let truth = FM.make ~lambda:(1. /. (factor *. w)) ~downtime:0.5 () in
      let config =
        {
          (Wfc_simulator.Sim_adaptive.default_config nominal) with
          Wfc_simulator.Sim_adaptive.replan =
            Some (Driver.replanner ~budget:16 g);
        }
      in
      let r = Wfc_core.Schedule.with_replicas s reps in
      let policies =
        [
          ("static", Ref.Static s);
          ("replicated", Ref.Static r);
          ("adaptive", Ref.Adaptive (config, s));
          ("adaptive replicated", Ref.Adaptive (config, r));
        ]
      in
      let scenarios = Robust.default_scenarios truth in
      let expected, exhausted =
        Ref.evaluate ~traces_per_scenario:3 ~alpha:0.9 ~seed
          ~min_uptime:(500. *. w) ~scenarios g policies
      in
      QCheck2.assume (exhausted = 0);
      let live =
        Robust.evaluate ~traces_per_scenario:3 ~seed
          ~criterion:(Robust.CVaR 0.9) ~scenarios
          (List.map
             (fun (name, p) ->
               match p with
               | Ref.Static s -> Robust.static ~name g s
               | Ref.Adaptive (config, s) -> Robust.adaptive ~name config g s)
             policies)
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      List.for_all2
        (fun (e : Ref.score) (l : Robust.score) ->
          e.Ref.name = l.Robust.candidate
          && same e.Ref.mean l.Robust.mean
          && same e.Ref.cvar l.Robust.cvar
          && same e.Ref.worst l.Robust.worst
          && List.for_all2
               (fun (n, m) (n', m') -> n = n' && same m m')
               e.Ref.per_scenario l.Robust.per_scenario)
        expected live.Robust.scores)

let () =
  Alcotest.run "resilience"
    [
      ( "solver driver",
        [
          Alcotest.test_case "exact tier" `Quick test_driver_exact_tier;
          Alcotest.test_case "graceful degradation" `Slow test_driver_degrades;
          Alcotest.test_case "deadline" `Quick test_driver_deadline;
        ] );
      ( "stress",
        [
          Alcotest.test_case "deterministic, domain-invariant" `Quick
            test_evaluate_deterministic_and_domain_invariant;
          Alcotest.test_case "degradation ratios" `Slow
            test_evaluate_degradations;
          Alcotest.test_case "ranking sorted" `Slow test_rank_sorted;
          Alcotest.test_case "divergence disqualifies" `Quick
            test_divergence_disqualifies;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "robust",
        [
          Alcotest.test_case "equal-MTBF scenarios" `Quick test_robust_scenarios;
          Alcotest.test_case "criterion parsing" `Quick test_criterion_parsing;
          Alcotest.test_case "shared-ensemble selection" `Slow
            test_robust_evaluate;
          Alcotest.test_case "adaptive candidate" `Slow
            test_robust_adaptive_candidate;
          Alcotest.test_case "validation" `Quick test_robust_validation;
          Alcotest.test_case "cancellation" `Quick test_robust_cancel;
          prop_live_is_replayed;
        ] );
    ]
