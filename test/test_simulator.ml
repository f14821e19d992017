open Wfc_core
open Wfc_simulator
module Dag = Wfc_dag.Dag
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model
module Stats = Wfc_platform.Stats

let test_fail_free_deterministic () =
  let g =
    Builders.chain ~weights:[| 1.; 2.; 3. |] ~checkpoint_cost:(fun _ _ -> 0.5) ()
  in
  let s =
    Schedule.make g ~order:[| 0; 1; 2 |] ~checkpointed:[| true; false; true |]
  in
  let rng = Wfc_platform.Rng.create 1 in
  let r = Sim.run ~rng FM.fail_free g s in
  Wfc_test_util.check_close "W + checkpoints" 7. r.Sim.makespan;
  Alcotest.(check int) "no failures" 0 r.Sim.failures;
  Alcotest.(check (float 0.)) "no waste" 0. r.Sim.wasted

let test_run_reproducible () =
  let g = Builders.chain ~weights:[| 4.; 5. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  let model = FM.make ~lambda:0.2 ~downtime:1. () in
  let run seed =
    (Sim.run ~rng:(Wfc_platform.Rng.create seed) model g s).Sim.makespan
  in
  Wfc_test_util.check_close "same seed, same run" (run 5) (run 5)

let test_makespan_bounds () =
  let g = Builders.chain ~weights:[| 4.; 5. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  let model = FM.make ~lambda:0.1 ~downtime:0.5 () in
  let rng = Wfc_platform.Rng.create 6 in
  for _ = 1 to 200 do
    let r = Sim.run ~rng model g s in
    if r.Sim.makespan < 9. then Alcotest.fail "below fail-free time";
    if r.Sim.wasted < 0. then Alcotest.fail "negative waste";
    Wfc_test_util.check_close "makespan = useful + wasted"
      (9. +. r.Sim.wasted) r.Sim.makespan
  done

let test_downtime_counted () =
  (* harsh rate: failures certain to occur; downtime inflates makespan *)
  let g = Builders.chain ~weights:[| 10. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  let sample downtime =
    let model = FM.make ~lambda:0.3 ~downtime () in
    let e = Monte_carlo.estimate ~runs:2000 ~seed:3 model g s in
    Stats.mean e.Monte_carlo.makespan
  in
  Alcotest.(check bool) "downtime increases makespan" true
    (sample 5. > sample 0. +. 1.)

let agreement_case name model g s =
  ( name,
    fun () ->
      let expected = Evaluator.expected_makespan model g s in
      let est = Monte_carlo.estimate ~runs:40_000 ~seed:17 model g s in
      if not (Monte_carlo.agrees_with est ~expected ~sigmas:5.) then
        Alcotest.failf "%s: analytic %.6g vs simulated %.6g (se %.3g)" name
          expected
          (Stats.mean est.Monte_carlo.makespan)
          (Stats.std_error est.Monte_carlo.makespan) )

let agreement_cases () =
  let figure1 =
    Dag.of_weights
      ~checkpoint_cost:(fun _ w -> 0.1 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ~weights:[| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |]
      ~edges:[ (0, 3); (3, 4); (3, 5); (4, 6); (5, 6); (1, 2); (2, 7); (6, 7) ]
      ()
  in
  let fig1_sched =
    Schedule.make figure1 ~order:[| 0; 3; 1; 2; 4; 5; 6; 7 |]
      ~checkpointed:[| false; false; false; true; true; false; false; false |]
  in
  let chain =
    Builders.chain ~weights:[| 3.; 5.; 2.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let chain_sched =
    Schedule.make chain ~order:[| 0; 1; 2; 3 |]
      ~checkpointed:[| false; true; false; false |]
  in
  let join =
    Builders.join ~source_weights:[| 3.; 6.; 2. |] ~sink_weight:1.
      ~checkpoint_cost:(fun _ w -> 0.15 *. w)
      ~recovery_cost:(fun _ w -> 0.15 *. w)
      ()
  in
  let join_sched =
    Join_solver.schedule_of join ~ckpt:[| true; false; true; false |]
  in
  [
    agreement_case "figure 1 dag" (FM.make ~lambda:0.04 ~downtime:0.5 ()) figure1
      fig1_sched;
    agreement_case "figure 1 harsh" (FM.make ~lambda:0.15 ()) figure1 fig1_sched;
    agreement_case "chain" (FM.make ~lambda:0.08 ~downtime:1. ()) chain
      chain_sched;
    agreement_case "join" (FM.make ~lambda:0.1 ()) join join_sched;
  ]

let prop_simulator_matches_evaluator =
  (* statistical cross-validation on random DAGs: 5-sigma acceptance with
     fixed seeds keeps the flake probability negligible *)
  Wfc_test_util.qtest ~count:25 "simulated mean matches analytic expectation"
    (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ())
    Wfc_test_util.print_dag_schedule
    (fun (g, s) ->
      let model = FM.make ~lambda:0.05 ~downtime:0.5 () in
      let expected = Evaluator.expected_makespan model g s in
      let est = Monte_carlo.estimate ~runs:20_000 ~seed:23 model g s in
      Monte_carlo.agrees_with est ~expected ~sigmas:5.5)

let test_failure_count_identity () =
  (* with zero downtime, failures strike at rate lambda throughout the whole
     execution, so E[#failures] = lambda * E[makespan] — an identity tying
     the analytic evaluator to the simulator's failure counter *)
  let g =
    Builders.chain ~weights:[| 3.; 5.; 2.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let s =
    Schedule.make g ~order:[| 0; 1; 2; 3 |]
      ~checkpointed:[| true; false; true; false |]
  in
  let lambda = 0.09 in
  let model = FM.make ~lambda () in
  let expected_failures =
    lambda *. Evaluator.expected_makespan model g s
  in
  let est = Monte_carlo.estimate ~runs:40_000 ~seed:15 model g s in
  let mean = Stats.mean est.Monte_carlo.failures in
  let se = Stats.std_error est.Monte_carlo.failures in
  if Float.abs (mean -. expected_failures) > 5. *. se then
    Alcotest.failf "failures %.4f vs lambda * E[T] = %.4f (se %.4f)" mean
      expected_failures se

let test_quantiles_of_makespan () =
  let g = Builders.chain ~weights:[| 5.; 5. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1 |] in
  let model = FM.make ~lambda:0.05 () in
  let samples = Monte_carlo.makespan_samples ~runs:20_000 ~seed:19 model g s in
  let q50 = Wfc_platform.Sample_set.quantile samples 0.5 in
  let q99 = Wfc_platform.Sample_set.quantile samples 0.99 in
  Alcotest.(check bool) "median >= fail-free" true (q50 >= 10.);
  Alcotest.(check bool) "tail above median" true (q99 > q50);
  (* the mean of the samples agrees with the analytic expectation *)
  let expected = Evaluator.expected_makespan model g s in
  let stats = Wfc_platform.Sample_set.to_stats samples in
  if
    Float.abs (Stats.mean stats -. expected)
    > 5. *. Stats.std_error stats
  then Alcotest.fail "sample mean disagrees with evaluator"

let test_estimate_validation () =
  let g = Builders.chain ~weights:[| 1. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  match Monte_carlo.estimate ~runs:0 ~seed:1 (FM.make ~lambda:0.1 ()) g s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "runs = 0 accepted"

let test_failures_counted () =
  let g = Builders.chain ~weights:[| 10. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0 |] in
  let model = FM.make ~lambda:0.2 () in
  let est = Monte_carlo.estimate ~runs:5000 ~seed:9 model g s in
  (* geometric retries: expected failures = e^{lambda w} - 1 = e^2 - 1 *)
  let expected = Float.exp 2. -. 1. in
  let mean = Stats.mean est.Monte_carlo.failures in
  let se = Stats.std_error est.Monte_carlo.failures in
  if Float.abs (mean -. expected) > 5. *. se then
    Alcotest.failf "failure count %.3f vs expected %.3f (se %.3f)" mean expected se

(* The executor indexes its arrays unchecked, so everything that hands it a
   task from outside is checked. *)
let test_task_ids_checked () =
  let g = Builders.chain ~weights:[| 1.; 2.; 3. |] () in
  let s = Schedule.no_checkpoints g ~order:[| 0; 1; 2 |] in
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  raises "a schedule of another size" (fun () ->
      Sim.exec (Builders.chain ~weights:[| 1.; 2. |] ()) s);
  let ex = Sim.exec g s in
  Sim.reset ex;
  raises "replay of task 3" (fun () -> Sim.replay ex 3);
  raises "restore of task -1" (fun () -> Sim.restore ex (-1));
  raises "store of task 3" (fun () -> Sim.store ex 3);
  raises "a replan naming task 7" (fun () ->
      Sim.replan ex ~order:[| 0; 1; 7 |] ~flags:[| false; false; false |])

(* ---- the executor against the pre-executor engine ---- *)

(* One lane on an unreplicated schedule is the old single-source engine,
   kept verbatim in the test utilities: same draws, same float operations,
   so makespan, failures and waste agree bit for bit — for memoryless and
   renewal sources alike. *)
let prop_executor_matches_reference =
  Wfc_test_util.qtest ~count:200 "executor = reference engine, bit for bit"
    QCheck2.Gen.(pair (Wfc_test_util.gen_dag_and_schedule ~max_n:10 ()) nat)
    (fun ((g, s), seed) ->
      Printf.sprintf "%s seed=%d" (Wfc_test_util.print_dag_schedule (g, s)) seed)
    (fun ((g, s), seed) ->
      let same (a : Sim.run) (b : Sim.run) =
        Int64.equal
          (Int64.bits_of_float a.Sim.makespan)
          (Int64.bits_of_float b.Sim.makespan)
        && a.Sim.failures = b.Sim.failures
        && Int64.equal
             (Int64.bits_of_float a.Sim.wasted)
             (Int64.bits_of_float b.Sim.wasted)
      in
      let rng () = Wfc_platform.Rng.create seed in
      let renewal () =
        Sim.renewal_source ~rng:(rng ())
          ~failures:(Wfc_platform.Distribution.weibull ~shape:0.8 ~scale:15.)
          ~downtime:(Wfc_platform.Distribution.exponential ~rate:2.)
      in
      List.for_all
        (fun model ->
          same
            (Sim.run ~rng:(rng ()) model g s)
            (Wfc_test_util.Sim_reference.run_with_source
               (Sim.source_of_model ~rng:(rng ()) model)
               g s))
        Wfc_test_util.models
      && same
           (Sim.run_with_source (renewal ()) g s)
           (Wfc_test_util.Sim_reference.run_with_source (renewal ()) g s))

(* ---- known answers -------------------------------------------------- *)

module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module Dist = Wfc_platform.Distribution

let gen family n seed =
  CM.apply (CM.Proportional 0.1) (P.generate family ~n ~seed)

let df_ckptw model g =
  (Heuristics.run ~search:(Heuristics.Grid 4) model g
     ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight)
    .Heuristics.schedule

(* The simulate endpoint's shape: Ligo-400, DF-CkptW, grid 4, MTBF 2000,
   proportional checkpoint costs, no downtime. *)
let ligo = lazy (gen P.Ligo 400 1)
let cold_model = FM.of_mtbf ~mtbf:2000. ()
let cold_sched = lazy (df_ckptw cold_model (Lazy.force ligo))
let montage = lazy (gen P.Montage 40 3)
let montage_model = FM.of_mtbf ~mtbf:300. ~downtime:2. ()
let montage_sched = lazy (df_ckptw montage_model (Lazy.force montage))

let replicated =
  lazy
    (let s = Lazy.force montage_sched in
     Schedule.with_replicas s
       (Array.init (Schedule.n_tasks s) (fun v -> if v mod 3 = 0 then 2 else 1)))

let hex = Printf.sprintf "%h"

let summary (e : Monte_carlo.estimate) =
  let lo, hi = Stats.confidence95 e.Monte_carlo.makespan in
  String.concat " "
    [
      hex (Stats.mean e.Monte_carlo.makespan); hex lo; hex hi;
      hex (Stats.mean e.Monte_carlo.failures);
      hex (Stats.mean e.Monte_carlo.wasted);
    ]

let known_answer name expected compute =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (compute ()))

(* Hex-float bits of whole estimates (mean, 95% CI, failures, waste) and of
   single traced, faulty and adaptive runs, taken from the executor before
   its memoryless lanes were drawn in place: any change of draw order or
   float-sum order shows here, on sizes the reference engine cannot run. *)
let known_answers =
  let cold seed expected =
    known_answer
      (Printf.sprintf "simulate shape, mcseed %d" seed)
      expected
      (fun () ->
        summary
          (Monte_carlo.estimate ~runs:100 ~seed cold_model (Lazy.force ligo)
             (Lazy.force cold_sched)))
  in
  [
    cold 1
      "0x1.bd7684695d9ddp+16 0x1.bbae4f5546f46p+16 0x1.bf3eb97d74474p+16 \
       0x1.b75c28f5c28f6p+5 0x1.33b6051baa4ddp+14";
    cold 2
      "0x1.c02e22892c182p+16 0x1.be52ced8f1151p+16 0x1.c2097639671b3p+16 \
       0x1.c99999999999ap+5 0x1.3e947d9ae4382p+14";
    cold 3
      "0x1.c077d9e019caap+16 0x1.bec90d8d18b3dp+16 0x1.c226a6331ae17p+16 \
       0x1.c8147ae147adep+5 0x1.3fbb5af69b01bp+14";
    known_answer "2-replica schedule"
      "0x1.279440adae44dp+9 0x1.25dfeef555c1ap+9 0x1.2948926606c8p+9 \
       0x1.4147ae147ae16p+0 0x1.af4415e6c4fc7p+4"
      (fun () ->
        summary
          (Monte_carlo.estimate ~replica_cost:0.5 ~runs:200 ~seed:4
             montage_model (Lazy.force montage) (Lazy.force replicated)));
    known_answer "Weibull renewal lane"
      "0x1.0a22d5557f18dp+9 0x1.07de2ee81aa6fp+9 0x1.0c677bc2e38abp+9 \
       0x1.0cccccccccccbp+1 0x1.2e4788c56ca49p+5"
      (fun () ->
        summary
          (Monte_carlo.estimate_renewal ~runs:200 ~seed:5
             ~failures:(Dist.weibull_of_mean ~shape:0.7 ~mean:300.)
             ~downtime:2. (Lazy.force montage) (Lazy.force montage_sched)));
    known_answer "checkpoint faults, capped"
      "0x1.57b71bdcd9e61p+9 0x1.4e250517fd0fap+9 0x1.614932a1b6bc8p+9 \
       0x1.1e147ae147ae4p+2 0x1.8524ea52ee307p+7 0x1.2666666666665p+2 \
       0x1.2c66666666666p+4 3"
      (fun () ->
        let f =
          Monte_carlo.estimate_faults ~runs:200 ~seed:6
            {
              Sim_faults.failures = Dist.exponential ~rate:(1. /. 150.);
              downtime = Dist.exponential ~rate:0.5;
              p_ckpt_fail = 0.2;
              p_rec_fail = 0.3;
              max_failures = 12;
            }
            (Lazy.force montage) (Lazy.force montage_sched)
        in
        String.concat " "
          [
            summary f.Monte_carlo.summary;
            hex (Stats.mean f.Monte_carlo.corrupt_reads);
            hex (Stats.mean f.Monte_carlo.failed_recoveries);
            string_of_int f.Monte_carlo.truncated_runs;
          ]);
    known_answer "event stream"
      "84 4c653eacd350a1323471adeade08c510 0x1.0eed599d9c60bp+9 2" (fun () ->
        let r, events =
          Sim_trace.run ~rng:(Wfc_platform.Rng.create 7) montage_model
            (Lazy.force montage) (Lazy.force montage_sched)
        in
        let b = Buffer.create 4096 in
        List.iter
          (function
            | Sim_trace.Attempt { position; task; start; replay; work } ->
                Printf.bprintf b "A %d %d %h %h %h\n" position task start replay
                  work
            | Completion { position; task; time; checkpointed } ->
                Printf.bprintf b "C %d %d %h %b\n" position task time
                  checkpointed
            | Failure { position; task; time; elapsed } ->
                Printf.bprintf b "F %d %d %h %h\n" position task time elapsed)
          events;
        Printf.sprintf "%d %s %h %d" (List.length events)
          (Digest.to_hex (Digest.string (Buffer.contents b)))
          r.Sim.makespan r.Sim.failures);
    known_answer "adaptive run with a replanner"
      "0x1.20ddfb48ea263p+10 11 0x1.55f819deb70b3p+9 9 9 0x1.4b84a8c8dc1ecp-7"
      (fun () ->
        let g = Lazy.force montage in
        let planning = FM.of_mtbf ~mtbf:2000. ~downtime:2. () in
        let config =
          {
            (Sim_adaptive.default_config planning) with
            Sim_adaptive.replan =
              Some (Wfc_resilience.Solver_driver.replanner g);
          }
        in
        let r =
          Sim_adaptive.run config
            ~source:
              (Sim.source_of_model ~rng:(Wfc_platform.Rng.create 8)
                 (FM.of_mtbf ~mtbf:150. ~downtime:2. ()))
            g (df_ckptw planning g)
        in
        let run = r.Sim_adaptive.run in
        Printf.sprintf "%h %d %h %d %d %h" run.Sim.makespan run.Sim.failures
          run.Sim.wasted r.Sim_adaptive.replans r.Sim_adaptive.reestimates
          r.Sim_adaptive.estimated.FM.lambda);
  ]

(* One domain runs the sequential estimate's stream, with the same replica
   surcharge. *)
let test_parallel_one_domain () =
  let g = Lazy.force montage and s = Lazy.force replicated in
  let seq =
    Monte_carlo.estimate ~replica_cost:0.5 ~runs:200 ~seed:9 montage_model g s
  in
  let par =
    Monte_carlo.estimate_parallel ~replica_cost:0.5 ~runs:200 ~domains:1 ~seed:9
      montage_model g s
  in
  Alcotest.(check string) "estimate_parallel ~domains:1 = estimate"
    (summary seq) (summary par);
  let default_cost =
    Monte_carlo.estimate_parallel ~runs:200 ~domains:1 ~seed:9 montage_model g s
  in
  Alcotest.(check bool) "replica_cost reaches the runs" false
    (summary default_cost = summary par);
  let samples =
    Monte_carlo.makespan_samples ~replica_cost:0.5 ~runs:200 ~seed:9
      montage_model g s
  in
  Alcotest.(check string) "makespan_samples, same stream"
    (hex (Stats.mean seq.Monte_carlo.makespan))
    (hex (Stats.mean (Wfc_platform.Sample_set.to_stats samples)))

(* A served estimate must stop under its watchdog even when each run fails
   only a few times: a Ligo-400 run at MTBF 20000 fails about five times,
   never the sixteen that poll within a run. *)
let test_estimate_cancel () =
  let g = Lazy.force ligo and s = Lazy.force cold_sched in
  let model = FM.of_mtbf ~mtbf:20000. () in
  let cancelled () =
    let t = Wfc_platform.Cancel.create () in
    Wfc_platform.Cancel.cancel t;
    t
  in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: finished under a cancelled token" what
    | exception Wfc_platform.Cancel.Cancelled -> ()
  in
  raises "estimate" (fun () ->
      ignore (Monte_carlo.estimate ~cancel:(cancelled ()) ~runs:100 ~seed:1
                model g s));
  raises "estimate_parallel" (fun () ->
      ignore
        (Monte_carlo.estimate_parallel ~cancel:(cancelled ()) ~runs:100
           ~domains:1 ~seed:1 model g s));
  raises "makespan_samples" (fun () ->
      ignore
        (Monte_carlo.makespan_samples ~cancel:(cancelled ()) ~runs:100 ~seed:1
           model g s));
  (* a token that expires mid-estimate: 100 000 runs would take seconds *)
  raises "estimate, expiring token" (fun () ->
      ignore
        (Monte_carlo.estimate
           ~cancel:(Wfc_platform.Cancel.create ~budget:0.005 ())
           ~runs:100_000 ~seed:1 model g s))

(* The executor, its lanes and the draw slot are allocated once per
   estimate, and an attempt on memoryless lanes allocates nothing: a run
   allocates only its summary. The renewal and fault estimators reuse one
   executor and one set of lanes too, renewed between runs, and an attempt
   on a renewal lane allocates nothing until it fails. Measured as the
   difference of two estimates, so the one-off setup cancels out. *)
let words_per_run estimate =
  let words runs =
    let before = Gc.minor_words () in
    ignore (estimate ~runs);
    Gc.minor_words () -. before
  in
  ignore (words 10);
  (words 200 -. words 100) /. 100.

let budget = 64.

let check_words what per_run =
  if per_run > budget then
    Alcotest.failf "%s: %.0f minor words per run (budget %.0f)" what per_run
      budget

let test_estimate_allocation () =
  let ligo = Lazy.force ligo and cold_sched = Lazy.force cold_sched in
  check_words "Ligo-400"
    (words_per_run (fun ~runs ->
         Monte_carlo.estimate ~runs ~seed:1 cold_model ligo cold_sched));
  check_words "Ligo-400, Sim_faults.nominal"
    (words_per_run (fun ~runs ->
         Monte_carlo.estimate_faults ~runs ~seed:1
           (Sim_faults.nominal cold_model) ligo cold_sched));
  check_words "Weibull renewal, Montage-40"
    (words_per_run (fun ~runs ->
         Monte_carlo.estimate_renewal ~runs ~seed:5
           ~failures:(Dist.weibull_of_mean ~shape:0.7 ~mean:300.)
           ~downtime:2. (Lazy.force montage) (Lazy.force montage_sched)))

let test_replicated_allocation () =
  check_words "2-replica Montage-40"
    (words_per_run (fun ~runs ->
         Monte_carlo.estimate ~replica_cost:0.5 ~runs ~seed:1 montage_model
           (Lazy.force montage) (Lazy.force replicated)))

let () =
  Alcotest.run "simulator"
    [
      ( "simulator",
        [
          Alcotest.test_case "fail-free deterministic" `Quick
            test_fail_free_deterministic;
          Alcotest.test_case "reproducible" `Quick test_run_reproducible;
          Alcotest.test_case "makespan bounds" `Quick test_makespan_bounds;
          Alcotest.test_case "downtime counted" `Slow test_downtime_counted;
          Alcotest.test_case "failures counted" `Slow test_failures_counted;
          Alcotest.test_case "failure-count identity" `Slow
            test_failure_count_identity;
          Alcotest.test_case "makespan quantiles" `Slow
            test_quantiles_of_makespan;
          Alcotest.test_case "estimate validation" `Quick test_estimate_validation;
          Alcotest.test_case "task ids checked" `Quick test_task_ids_checked;
          prop_executor_matches_reference;
          Alcotest.test_case "estimate allocation per run" `Quick
            test_estimate_allocation;
          Alcotest.test_case "replicated estimate allocation per run" `Quick
            test_replicated_allocation;
          Alcotest.test_case "estimate cancelled" `Quick test_estimate_cancel;
          Alcotest.test_case "parallel estimate on one domain" `Quick
            test_parallel_one_domain;
        ] );
      (* a group name no longer than the others keeps alcotest's truncated
         test names, which name these tests elsewhere, as they were *)
      ("pinned", known_answers);
      ( "agreement",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Slow f)
          (agreement_cases ())
        @ [ prop_simulator_matches_evaluator ] );
    ]
