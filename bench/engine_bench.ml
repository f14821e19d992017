(* End-to-end timing of the flat kernel on the searches it serves. Where an
   oracle baseline is a few lines — one full Evaluator call per candidate
   of the CkptW sweep, one full evaluation against one flip — it is timed
   alongside; the local-search and branch-and-bound rows are flat-only.
   Writes the rows to BENCH_engine.json (consumed by EXPERIMENTS.md and
   pinned by FIG=obs) and prints a human-readable table.

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

(* oracle_s is the inline oracle baseline, where there is one (JSON keys
   oracle_seconds and flat_vs_oracle, null on flat-only rows). *)
type row = {
  name : string;
  oracle_s : float option;
  flat_s : float;
  detail : string;
}

let speedup r = Option.map (fun n -> n /. r.flat_s) r.oracle_s

let bench_local_search () =
  let g, order = instance P.Ligo 200 in
  let flags =
    Heuristics.checkpoint_flags Heuristics.Ckpt_weight g ~order ~n_ckpt:50
  in
  let seed = Schedule.make g ~order ~checkpointed:flags in
  let run () = Local_search.improve model g seed in
  let r = run () in
  (* the kernel's score of the accepted flags, within 1e-9 of the oracle *)
  assert (
    Eval_engine.rel_diff r.Local_search.makespan
      (Evaluator.expected_makespan model g r.Local_search.schedule)
    <= 1e-9);
  {
    name = "local-search/Ligo/n=200";
    oracle_s = None;
    flat_s = Timing.median run;
    detail =
      Printf.sprintf "%d evaluations, %d flips" r.Local_search.evaluations
        r.Local_search.flips;
  }

(* the oracle baseline scores every candidate of the same sweep with one
   full Evaluator call and keeps the first minimum, as the search does *)
let bench_ckptw_sweep () =
  let g, order = instance P.Ligo 200 in
  let ckpt = Heuristics.Ckpt_weight in
  let run () =
    Heuristics.run ~search:Heuristics.Exhaustive model g
      ~lin:Wfc_dag.Linearize.Depth_first ~ckpt
  in
  let oracle () =
    List.fold_left
      (fun (bm, bn) n_ckpt ->
        let flags = Heuristics.checkpoint_flags ckpt g ~order ~n_ckpt in
        let m =
          Evaluator.expected_makespan model g
            (Schedule.make g ~order ~checkpointed:flags)
        in
        if m < bm then (m, n_ckpt) else (bm, bn))
      (infinity, 0)
      (Heuristics.candidate_counts Heuristics.Exhaustive
         ~n:(Array.length order))
  in
  let flat = run () in
  let oracle_m, oracle_n = oracle () in
  assert (oracle_n = flat.Heuristics.n_ckpt);
  assert (Eval_engine.rel_diff oracle_m flat.Heuristics.makespan <= 1e-9);
  {
    name = "ckptw-exhaustive/Ligo/n=200";
    oracle_s = Some (Timing.median oracle);
    flat_s = Timing.median run;
    detail = Printf.sprintf "%d candidates" flat.Heuristics.evaluations;
  }

(* the parity configuration (one domain, no dominance, no memo): a plain
   depth-first search, so the time is the kernel's rather than pruning
   power *)
let exact_audit_flat g ~order () =
  Exact_solver.optimal_checkpoints_within ~domains:1 ~dominance:false
    ~memo:false ~max_nodes:200_000 (Flat_engine.create model g ~order)

(* Known answers: these optima (flags, node counts and the bits of the
   makespan) were measured before the naive search was retired, and no
   change to the search may move them. *)
let check_optimum what (sol, status) ~nodes ~flags ~makespan =
  if
    status <> `Optimal
    || sol.Exact_solver.nodes <> nodes
    || Schedule.checkpointed_tasks sol.Exact_solver.schedule <> flags
    || not (Float.equal sol.Exact_solver.makespan makespan)
  then
    failwith
      (Printf.sprintf "%s: optimum moved (%d nodes, E = %h)" what
         sol.Exact_solver.nodes sol.Exact_solver.makespan)

let bench_exact_audit () =
  let g, order = instance P.Genome 20 in
  let run = exact_audit_flat g ~order in
  let sol, status = run () in
  check_optimum "exact-bnb/Genome/n=20" (sol, status) ~nodes:162766
    ~flags:[ 0; 2; 3; 4; 6; 7; 8; 10; 11; 12; 14; 15; 16; 17; 18 ]
    ~makespan:0x1.44d1586468e01p+19;
  {
    name = "exact-bnb/Genome/n=20";
    oracle_s = None;
    flat_s = Timing.median run;
    detail = Printf.sprintf "%d nodes, parity config" sol.Exact_solver.nodes;
  }

(* the full branch and bound (dominance + memo + parallel subtrees) on an
   instance far out of reach of a plain depth-first search *)
let bench_exact_large () =
  let g, order = instance P.Ligo 30 in
  let domains = 4 in
  let run () =
    Exact_solver.optimal_checkpoints_within ~domains ~max_nodes:50_000_000
      (Flat_engine.create model g ~order)
  in
  let result, status = run () in
  assert (status = `Optimal);
  if
    Schedule.checkpointed_tasks result.Exact_solver.schedule
    <> [ 2; 8; 0; 6; 5; 11; 3; 9; 1; 13; 15; 22; 17; 24; 19; 26; 4; 10; 12;
         14; 21; 16; 23; 20; 18; 25 ]
    || not (Float.equal result.Exact_solver.makespan 0x1.1e5126669b6cp+13)
  then failwith "exact-bnb-pruned/Ligo/n=30: optimum moved";
  {
    name = "exact-bnb-pruned/Ligo/n=30";
    oracle_s = None;
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
  let oracle_s =
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
    oracle_s = Some oracle_s;
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
                   ("oracle_seconds", opt_num r.oracle_s);
                   ("flat_seconds", Wfc_io.Json.Number r.flat_s);
                   ("flat_vs_oracle", opt_num (speedup r));
                   ("detail", Wfc_io.Json.String r.detail);
                 ])
             rows) );
    ]

let run () =
  print_endline "== flat kernel, with inline oracle baselines ==";
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
        [ "benchmark"; "oracle"; "flat"; "vs oracle"; "detail" ]
  in
  List.iter
    (fun r ->
      Wfc_reporting.Table.add_row table
        [
          r.name;
          fmt_opt r.oracle_s;
          fmt_opt (Some r.flat_s);
          fmt_ratio (speedup r);
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
