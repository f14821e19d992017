(* Bechamel micro-benchmarks: throughput of the building blocks and the
   ablation of the lost-work computation (the paper's O(n^4) Algorithm 1
   versus this library's O(n |E|) reformulation). *)

open Bechamel
open Toolkit
open Wfc_core
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model

let prepared family n =
  let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n ~seed:7) in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let flags =
    Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order ~n_ckpt:(n / 4)
  in
  (g, Schedule.make g ~order ~checkpointed:flags)

let model = FM.make ~lambda:1e-3 ()

let lost_work_tests =
  List.map
    (fun n ->
      let g, s = prepared P.Cybershake n in
      Test.make
        ~name:(Printf.sprintf "lost_work/optimized/n=%d" n)
        (Staged.stage (fun () -> ignore (Lost_work.compute g s))))
    [ 50; 200 ]

let lost_work_reference_tests =
  (* the literal Algorithm 1, one k-slice; small n only (O(n^3) per slice) *)
  List.map
    (fun n ->
      let g, s = prepared P.Cybershake n in
      Test.make
        ~name:(Printf.sprintf "lost_work/algorithm1-slice/n=%d" n)
        (Staged.stage (fun () ->
             ignore (Lost_work_reference.find_wik_rik g s ~k:(n / 2)))))
    [ 50 ]

let evaluator_tests =
  List.map
    (fun n ->
      let g, s = prepared P.Cybershake n in
      let lost = Lost_work.compute g s in
      [
        Test.make
          ~name:(Printf.sprintf "evaluator/end-to-end/n=%d" n)
          (Staged.stage (fun () ->
               ignore (Evaluator.expected_makespan model g s)));
        Test.make
          ~name:(Printf.sprintf "evaluator/cached-lost-work/n=%d" n)
          (Staged.stage (fun () ->
               ignore (Evaluator.expected_makespan ~lost model g s)));
      ])
    [ 50; 200 ]
  |> List.concat

let simulator_tests =
  List.map
    (fun n ->
      let g, s = prepared P.Cybershake n in
      let rng = Wfc_platform.Rng.create 13 in
      Test.make
        ~name:(Printf.sprintf "simulator/run/n=%d" n)
        (Staged.stage (fun () -> ignore (Wfc_simulator.Sim.run ~rng model g s))))
    [ 50; 200 ]

(* The simulate-cold request shape: 100 Monte Carlo runs of a Ligo-400
   DF-CkptW schedule (grid 4) at MTBF 2000 s, one executor for all runs. *)
let monte_carlo_tests =
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Ligo ~n:400 ~seed:1) in
  let model = FM.of_mtbf ~mtbf:2000. () in
  let s =
    (Heuristics.run ~search:(Heuristics.Grid 4) model g
       ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight)
      .Heuristics.schedule
  in
  [
    Test.make ~name:"monte_carlo/estimate/ligo/n=400/runs=100"
      (Staged.stage (fun () ->
           ignore
             (Wfc_simulator.Monte_carlo.estimate ~runs:100 ~seed:1 model g s)));
  ]

let heuristic_tests =
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Montage ~n:100 ~seed:7) in
  [
    Test.make ~name:"heuristic/DF-CkptW/grid16/n=100"
      (Staged.stage (fun () ->
           ignore
             (Heuristics.run ~search:(Heuristics.Grid 16) model g
                ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight)));
  ]

let flat_tests =
  (* single-flag flip throughput of the flat kernel, against one full
     cached-lost-work evaluation (the oracle's per-candidate cost) above.
     The steady-state flip path must not allocate: the one-time assertion
     below runs a settled flip cycle and checks the minor allocation
     pointer did not move. *)
  List.map
    (fun n ->
      let g, s = prepared P.Cybershake n in
      let feng = Flat_engine.create model g ~order:s.Schedule.order in
      ignore (Flat_engine.makespan feng);
      let i = ref 0 in
      Test.make
        ~name:(Printf.sprintf "flat/flip/n=%d" n)
        (Staged.stage (fun () ->
             incr i;
             ignore (Flat_engine.flip feng (!i mod n)))))
    [ 50; 200 ]

let assert_flip_zero_alloc () =
  let g, s = prepared P.Cybershake 200 in
  let n = 200 in
  let feng = Flat_engine.create model g ~order:s.Schedule.order in
  ignore (Flat_engine.makespan feng);
  (* settle: first pass may grow the change journal to capacity. flip_quiet
     rather than flip: the latter's boxed float return is the caller's
     allocation, not the kernel's *)
  for v = 0 to n - 1 do
    Flat_engine.flip_quiet feng v;
    Flat_engine.flip_quiet feng v
  done;
  let words0 = Gc.minor_words () in
  for v = 0 to n - 1 do
    Flat_engine.flip_quiet feng v;
    Flat_engine.flip_quiet feng v
  done;
  let words = Gc.minor_words () -. words0 in
  if words > 0. then (
    Printf.printf "FAIL flat/flip allocates: %.0f minor words per %d flips\n"
      words (2 * n);
    exit 1);
  Printf.printf "PASS flat/flip zero-allocation (%d flips, 0 minor words)\n"
    (2 * n)

let generator_tests =
  List.map
    (fun fam ->
      Test.make
        ~name:(Printf.sprintf "generate/%s/n=200" (P.family_name fam))
        (Staged.stage (fun () -> ignore (P.generate fam ~n:200 ~seed:7))))
    P.all

let all_tests () =
  Test.make_grouped ~name:"wfc"
    (lost_work_tests @ lost_work_reference_tests @ evaluator_tests
   @ flat_tests @ simulator_tests @ monte_carlo_tests @ heuristic_tests
   @ generator_tests)

let () = Bechamel_notty.Unit.add Instance.monotonic_clock "ns"

let run () =
  assert_flip_zero_alloc ();
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (all_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image
