(* End-to-end timing of the two evaluation backends against each other on
   the searches they were built for: naive per-candidate evaluation and the
   flat (bigarray) kernel. Writes the measured speedups to BENCH_engine.json
   (consumed by EXPERIMENTS.md and pinned by FIG=obs) and prints a
   human-readable table.

   Run with: FIG=engine dune exec bench/main.exe *)

open Wfc_core
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model

let model = FM.make ~lambda:1e-3 ()

let instance family n =
  let g = CM.apply (CM.Proportional 0.1) (P.generate family ~n ~seed:7) in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  (g, order)

(* naive_s is optional: the large exact instance is only tractable for the
   flat branch-and-bound. *)
type row = {
  name : string;
  naive_s : float option;
  flat_s : float;
  detail : string;
}

let flat_vs_naive r = Option.map (fun n -> n /. r.flat_s) r.naive_s

let bench_local_search () =
  let g, order = instance P.Ligo 200 in
  let flags =
    Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order ~n_ckpt:50
  in
  let seed = Schedule.make g ~order ~checkpointed:flags in
  let run backend () = Local_search.improve ~backend model g seed in
  let naive = run Eval_engine.Naive () in
  let flat = run Eval_engine.Flat () in
  assert (
    naive.Local_search.schedule.Schedule.checkpointed
    = flat.Local_search.schedule.Schedule.checkpointed);
  (* each backend reports its own makespan, agreeing to the last ulps *)
  assert (
    Eval_engine.backends_agree naive.Local_search.makespan
      flat.Local_search.makespan);
  {
    name = "local-search/Ligo/n=200";
    naive_s = Some (Timing.median (run Eval_engine.Naive));
    flat_s = Timing.median (run Eval_engine.Flat);
    detail =
      Printf.sprintf "%d evaluations, %d flips" naive.Local_search.evaluations
        naive.Local_search.flips;
  }

let bench_ckptw_sweep () =
  let g, order = instance P.Ligo 200 in
  ignore order;
  let run backend () =
    Heuristics.run ~search:Heuristics.Exhaustive ~backend model g
      ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight
  in
  let naive = run Eval_engine.Naive () in
  let flat = run Eval_engine.Flat () in
  assert (naive.Heuristics.n_ckpt = flat.Heuristics.n_ckpt);
  assert (
    Eval_engine.backends_agree naive.Heuristics.makespan
      flat.Heuristics.makespan);
  {
    name = "ckptw-exhaustive/Ligo/n=200";
    naive_s = Some (Timing.median (run Eval_engine.Naive));
    flat_s = Timing.median (run Eval_engine.Flat);
    detail = Printf.sprintf "%d candidates" naive.Heuristics.evaluations;
  }

(* node-for-node identical search: the flat backend is configured for strict
   parity (one domain, no dominance, no memo) so the ratio isolates the kernel
   speed rather than pruning power *)
let exact_audit_flat g ~order () =
  Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Flat ~domains:1
    ~dominance:false ~memo:false ~max_nodes:200_000 model g ~order

let bench_exact_audit () =
  let g, order = instance P.Genome 20 in
  let run_naive () =
    Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Naive
      ~max_nodes:200_000 model g ~order
  in
  let run_flat = exact_audit_flat g ~order in
  let naive, _ = run_naive () in
  let flat, _ = run_flat () in
  assert (
    naive.Exact_solver.schedule.Schedule.checkpointed
    = flat.Exact_solver.schedule.Schedule.checkpointed);
  assert (
    Eval_engine.backends_agree naive.Exact_solver.makespan
      flat.Exact_solver.makespan);
  assert (naive.Exact_solver.nodes = flat.Exact_solver.nodes);
  {
    name = "exact-bnb/Genome/n=20";
    naive_s = Some (Timing.median run_naive);
    flat_s = Timing.median run_flat;
    detail = Printf.sprintf "%d nodes, parity config" naive.Exact_solver.nodes;
  }

(* the full flat branch and bound (dominance + memo + parallel subtrees) on an
   instance far out of reach of the sequential search *)
let bench_exact_large () =
  let g, order = instance P.Ligo 30 in
  let domains = 4 in
  let run () =
    Exact_solver.optimal_checkpoints_within ~backend:Eval_engine.Flat ~domains
      ~max_nodes:50_000_000 model g ~order
  in
  let result, status = run () in
  assert (status = `Optimal);
  {
    name = "exact-bnb-pruned/Ligo/n=30";
    naive_s = None;
    flat_s = Timing.median run;
    detail =
      Printf.sprintf "%d nodes, dominance+memo, %d domains"
        result.Exact_solver.nodes domains;
  }

let bench_single_flip () =
  let g, order = instance P.Ligo 200 in
  let n = Array.length order in
  let feng = Flat_engine.create model g ~order in
  ignore (Flat_engine.makespan feng);
  let flags = Array.make n false in
  let flips = 1000 in
  let k = ref 0 in
  let flat_s =
    Timing.median (fun () ->
        for _ = 1 to flips do
          ignore (Flat_engine.flip feng (!k mod n));
          incr k
        done)
    /. float_of_int flips
  in
  let j = ref 0 in
  let naive_s =
    Timing.median (fun () ->
        for _ = 1 to 20 do
          flags.(!j mod n) <- not flags.(!j mod n);
          incr j;
          ignore
            (Evaluator.expected_makespan model g
               (Schedule.make g ~order ~checkpointed:flags))
        done)
    /. 20.
  in
  {
    name = "single-flip/Ligo/n=200";
    naive_s = Some naive_s;
    flat_s;
    detail = "per-flip cost vs one full evaluation";
  }

let json_of_rows rows =
  let opt_num = function
    | Some x -> Wfc_io.Json.Number x
    | None -> Wfc_io.Json.Null
  in
  Wfc_io.Json.Assoc
    [
      ("benchmark", Wfc_io.Json.String "eval_engine");
      ("model", Wfc_io.Json.String "lambda=1e-3, downtime=0, cost=0.1w");
      ( "results",
        Wfc_io.Json.List
          (List.map
             (fun r ->
               Wfc_io.Json.Assoc
                 [
                   ("name", Wfc_io.Json.String r.name);
                   ("naive_seconds", opt_num r.naive_s);
                   ("flat_seconds", Wfc_io.Json.Number r.flat_s);
                   ("flat_vs_naive", opt_num (flat_vs_naive r));
                   ("detail", Wfc_io.Json.String r.detail);
                 ])
             rows) );
    ]

let run () =
  print_endline "== evaluation backends: naive vs flat ==";
  let rows =
    [
      bench_single_flip (); bench_ckptw_sweep (); bench_local_search ();
      bench_exact_audit (); bench_exact_large ();
    ]
  in
  let fmt_opt = function
    | Some s -> Printf.sprintf "%.2f ms" (s *. 1e3)
    | None -> "-"
  in
  let fmt_ratio = function
    | Some x -> Printf.sprintf "%.1fx" x
    | None -> "-"
  in
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "benchmark"; "naive"; "flat"; "vs naive"; "detail" ]
  in
  List.iter
    (fun r ->
      Wfc_reporting.Table.add_row table
        [
          r.name;
          fmt_opt r.naive_s;
          fmt_opt (Some r.flat_s);
          fmt_ratio (flat_vs_naive r);
          r.detail;
        ])
    rows;
  Wfc_reporting.Table.print table;
  let path = "BENCH_engine.json" in
  let oc = open_out path in
  output_string oc (Wfc_io.Json.to_string (json_of_rows rows));
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path
