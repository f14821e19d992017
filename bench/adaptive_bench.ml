(* Adaptive-vs-static execution under a misspecified failure rate. The
   static schedule is optimized for the planning MTBF; the platform's true
   MTBF is planning/factor for factor in 1, 2, 4, 8. Both policies run on
   the same seeded renewal lanes (Robust's shared failures), so the gap is
   pure policy. Writes BENCH_adaptive.json and fails loudly if the
   adaptive policy stops beating the static one at >= 4x misspecification,
   or drifts more than 5% from it when the planning model is exact.

   Run with: FIG=adaptive dune exec bench/main.exe
   TRACES=n overrides the per-factor trace count (default 200). *)

open Wfc_core
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model
module Dist = Wfc_platform.Distribution
module SA = Wfc_simulator.Sim_adaptive
module Robust = Wfc_resilience.Robust
module Driver = Wfc_resilience.Solver_driver

let factors = [ 1.; 2.; 4.; 8. ]
let downtime = 1.

type row = {
  factor : float;
  true_mtbf : float;
  static_mean : float;
  adaptive_mean : float;
}

let ratio r = r.adaptive_mean /. r.static_mean

let bench_factor ~g ~planning_mtbf ~traces factor =
  let planning = FM.of_mtbf ~mtbf:planning_mtbf ~downtime () in
  let o =
    Heuristics.run ~search:Heuristics.Exhaustive planning g
      ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight
  in
  let true_mtbf = planning_mtbf /. factor in
  let scenarios =
    [
      {
        Robust.name = "exponential";
        failures = Dist.exponential ~rate:(1. /. true_mtbf);
        downtime = Dist.constant downtime;
      };
    ]
  in
  let config =
    {
      SA.planning;
      trigger = SA.Every_failure;
      min_observations = 1;
      replan = Some (Driver.replanner ~budget:256 g);
    }
  in
  let candidates =
    [
      Robust.static ~name:"static" g o.Heuristics.schedule;
      Robust.adaptive ~name:"adaptive" config g o.Heuristics.schedule;
    ]
  in
  let r =
    Robust.evaluate ~traces_per_scenario:traces ~seed:11 ~criterion:Robust.Mean
      ~scenarios candidates
  in
  let mean_of name =
    (List.find (fun s -> s.Robust.candidate = name) r.Robust.scores).Robust.mean
  in
  {
    factor;
    true_mtbf;
    static_mean = mean_of "static";
    adaptive_mean = mean_of "adaptive";
  }

let json_of ~family ~n ~seed ~planning_mtbf ~traces rows =
  Wfc_io.Json.Assoc
    [
      ("benchmark", Wfc_io.Json.String "adaptive_vs_static");
      ( "workflow",
        Wfc_io.Json.String (Printf.sprintf "%s n=%d seed=%d" family n seed) );
      ("planning_mtbf", Wfc_io.Json.Number planning_mtbf);
      ("downtime", Wfc_io.Json.Number downtime);
      ("traces_per_factor", Wfc_io.Json.Number (float_of_int traces));
      ( "results",
        Wfc_io.Json.List
          (List.map
             (fun r ->
               Wfc_io.Json.Assoc
                 [
                   ("misspecification_factor", Wfc_io.Json.Number r.factor);
                   ("true_mtbf", Wfc_io.Json.Number r.true_mtbf);
                   ("static_mean", Wfc_io.Json.Number r.static_mean);
                   ("adaptive_mean", Wfc_io.Json.Number r.adaptive_mean);
                   ("ratio", Wfc_io.Json.Number (ratio r));
                 ])
             rows) );
    ]

let run () =
  print_endline "== adaptive vs static under misspecified failure rate ==";
  let family, n, seed = ("Montage", 40, 7) in
  let traces =
    match Sys.getenv_opt "TRACES" with
    | Some s -> Int.max 1 (try int_of_string s with Failure _ -> 200)
    | None -> 200
  in
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Montage ~n ~seed) in
  (* planning MTBF = 4x total work: the static plan checkpoints sparsely,
     which is right when the belief holds and costly when failures are
     really 4-8x more frequent *)
  let planning_mtbf = 4. *. Wfc_dag.Dag.total_weight g in
  let rows = List.map (bench_factor ~g ~planning_mtbf ~traces) factors in
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "lambda x"; "true MTBF"; "static mean"; "adaptive mean"; "ratio" ]
  in
  List.iter
    (fun r ->
      Wfc_reporting.Table.add_row table
        [
          Printf.sprintf "%gx" r.factor;
          Printf.sprintf "%.0f s" r.true_mtbf;
          Printf.sprintf "%.1f s" r.static_mean;
          Printf.sprintf "%.1f s" r.adaptive_mean;
          Printf.sprintf "%.4f" (ratio r);
        ])
    rows;
  Wfc_reporting.Table.print table;
  let path = "BENCH_adaptive.json" in
  let oc = open_out path in
  output_string oc
    (Wfc_io.Json.to_string (json_of ~family ~n ~seed ~planning_mtbf ~traces rows));
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path;
  (* the regression guard: misspecification >= 4x must favor adaptive
     strictly; an exact belief must stay within noise of the static plan *)
  let failures = ref [] in
  List.iter
    (fun r ->
      if r.factor >= 4. && not (ratio r < 1.) then
        failures :=
          Printf.sprintf
            "%gx: adaptive (%.2f) does not strictly beat static (%.2f)"
            r.factor r.adaptive_mean r.static_mean
          :: !failures;
      if r.factor = 1. && ratio r > 1.05 then
        failures :=
          Printf.sprintf
            "1x: adaptive (%.2f) is more than 5%% behind static (%.2f)"
            r.adaptive_mean r.static_mean
          :: !failures)
    rows;
  match !failures with
  | [] -> print_endline "adaptive-vs-static guard: PASS"
  | msgs ->
      List.iter (fun m -> Printf.printf "adaptive-vs-static guard: FAIL %s\n" m)
        (List.rev msgs);
      exit 1
