(* Monte Carlo cost at the simulate request's shape: 100 runs of a Ligo-400
   DF-CkptW schedule (grid 4) at MTBF 2000 s, proportional checkpoint costs,
   no downtime. Three numbers per row:

   - minor words per run, the difference of a 200-run and a 100-run
     estimate, so the one-off setup cancels out;
   - seconds per 100-run estimate, min of 30;
   - that time over the time of a loop of as many [Rng.exponential] draws
     as the estimate makes (one per attempt), min of 30 as well, the two
     samples interleaved so host drift hits both: a dimensionless cost
     that compares across hosts.

   The "before" row is the executor that drew every attempt through its
   lane's closures, measured with this file on the same 2-vCPU VM (the
   median of three runs; the host's load moved the seconds from 2.7 to
   4.4 ms and the ratio from 4.8 to 6.0); the "after" row is measured
   now. Writes BENCH_sim.json and fails if a run
   allocates more than test_simulator's cap.

   Run with: FIG=sim dune exec bench/main.exe *)

module FM = Wfc_platform.Failure_model
module Rng = Wfc_platform.Rng
module Stats = Wfc_platform.Stats
module MC = Wfc_simulator.Monte_carlo
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module Json = Wfc_io.Json

(* test_simulator's budget for a Ligo-400 run *)
let words_cap = 64.
let runs = 100
let seed = 1
let repeats = 30

type row = { words_per_run : float; seconds : float; over_draws : float }

let before = { words_per_run = 2676.; seconds = 3.31e-3; over_draws = 4.89 }

let words_per_run estimate =
  let words runs =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (estimate runs));
    Gc.minor_words () -. before
  in
  ignore (words 10);
  (words 200 -. words 100) /. 100.

let measure () =
  let g = CM.apply (CM.Proportional 0.1) (P.generate P.Ligo ~n:400 ~seed:1) in
  let model = FM.of_mtbf ~mtbf:2000. () in
  let sched =
    (Wfc_core.Heuristics.run ~search:(Wfc_core.Heuristics.Grid 4) model g
       ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Wfc_core.Heuristics.Ckpt_weight)
      .Wfc_core.Heuristics.schedule
  in
  let estimate runs = MC.estimate ~runs ~seed model g sched in
  (* one draw per attempt: every position once, plus one per failure *)
  let draws =
    let e = estimate runs in
    (runs * Wfc_dag.Dag.n_tasks g)
    + int_of_float
        (Float.round (Stats.mean e.MC.failures *. float_of_int runs))
  in
  let lambda = model.FM.lambda in
  let draw_loop () =
    let rng = Rng.create seed and acc = ref 0. in
    for _ = 1 to draws do
      acc := !acc +. Rng.exponential rng ~rate:lambda
    done;
    !acc
  in
  let one f = List.hd (Timing.samples ~repeats:1 f) in
  let est_best = ref infinity and draw_best = ref infinity in
  for _ = 1 to repeats do
    est_best := Float.min !est_best (one (fun () -> estimate runs));
    draw_best := Float.min !draw_best (one draw_loop)
  done;
  ( draws,
    {
      words_per_run = words_per_run estimate;
      seconds = !est_best;
      over_draws = !est_best /. !draw_best;
    } )

let rows_of case r =
  let row metric value unit =
    Json.Assoc
      [
        ("bench", Json.String "sim");
        ("case", Json.String case);
        ("metric", Json.String metric);
        ("value", Json.Number value);
        ("unit", Json.String unit);
      ]
  in
  [
    row "minor_words_per_run" r.words_per_run "words";
    row "estimate_seconds" r.seconds "s";
    row "estimate_over_draws" r.over_draws "ratio";
  ]

let run () =
  let draws, after = measure () in
  let show name r =
    Printf.printf
      "%-7s %8.0f words/run  %7.3f ms per %d-run estimate  %5.2fx its %d draws\n"
      name r.words_per_run (1e3 *. r.seconds) runs r.over_draws draws
  in
  show "before" before;
  show "after" after;
  let json =
    Json.Assoc
      [
        ("bench", Json.String "sim");
        ( "shape",
          Json.String
            "Ligo n=400 seed=1, DF-CkptW grid 4, mtbf 2000, downtime 0, \
             cost 0.1w, 100 runs" );
        ("repeats", Json.Number (float_of_int repeats));
        ( "rows",
          Json.List
            (rows_of "simulate-cold/before" before
            @ rows_of "simulate-cold/after" after) );
      ]
  in
  let path = "BENCH_sim.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path;
  if after.words_per_run > words_cap then begin
    Printf.printf "FAIL: %.0f minor words per run, above the cap of %.0f\n"
      after.words_per_run words_cap;
    exit 1
  end
  else
    Printf.printf "PASS: %.0f minor words per run, cap %.0f\n"
      after.words_per_run words_cap
