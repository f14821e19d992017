(* Checkpoint-vs-replica trade-off: sweep replica cost x failure rate x
   heuristic, scoring checkpoint-only, mixed (checkpoints + replicas) and
   replica-only policies on shared renewal-trace ensembles by CVaR. The
   platform has expensive checkpoints (40% of each task's weight), so at
   high failure rates and cheap replicas the mixed policy should buy tail
   protection that checkpoints alone cannot. Writes BENCH_replication.json
   and fails loudly if no swept cell has a mixed policy beating the best
   checkpoint-only policy on CVaR, or if the most favorable cell (highest
   lambda, cheapest replicas) does not.

   Run with: FIG=replication dune exec bench/main.exe
   TRACES=n overrides the per-cell trace count (default 200). *)

open Wfc_core
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model
module Dist = Wfc_platform.Distribution
module Robust = Wfc_resilience.Robust

let downtime = 1.
let ckpt_fraction = 0.4
let mtbf_factors = [ 0.3; 1.; 4. ]
let rhos = [ 0.1; 0.5; 1. ]
let spec = Replication.Budget 0.5

let heuristics =
  [ Heuristics.Ckpt_weight; Heuristics.Ckpt_always; Heuristics.Ckpt_periodic ]

type policy = { name : string; kind : [ `Ckpt | `Mixed | `Replica ]; cvar : float; mean : float }

type cell = {
  mtbf_factor : float;
  mtbf : float;
  rho : float;
  policies : policy list;
  best_ckpt : float;
  best_mixed : float;
  mixed_wins : bool;
}

let bench_cell ~g ~total_weight ~traces mtbf_factor rho =
  let mtbf = mtbf_factor *. total_weight in
  let model = FM.of_mtbf ~mtbf ~downtime () in
  let outcomes =
    List.map
      (fun ckpt ->
        ( ckpt,
          Heuristics.run ~search:(Heuristics.Grid 12) model g
            ~lin:Wfc_dag.Linearize.Depth_first ~ckpt ))
      heuristics
  in
  (* replica-only: no checkpoints at all, replicas on the DF order *)
  let bare =
    Schedule.no_checkpoints g ~order:(Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g)
  in
  let replica_only =
    Schedule.with_replicas bare
      (fst (Heuristics.replication_counts ~cost:rho spec model g ~sched:bare))
  in
  let candidates =
    List.concat_map
      (fun (ckpt, o) ->
        let base = Heuristics.name Wfc_dag.Linearize.Depth_first ckpt in
        let mixed = Heuristics.replicate ~cost:rho spec model g o in
        Robust.static ~name:base g o.Heuristics.schedule
        ::
        (if Schedule.is_replicated mixed.Heuristics.schedule then
           [
             Robust.static ~replica_cost:rho ~name:(base ^ "+R") g
               mixed.Heuristics.schedule;
           ]
         else []))
      outcomes
    @
    if Schedule.is_replicated replica_only then
      [ Robust.static ~replica_cost:rho ~name:"replica-only" g replica_only ]
    else []
  in
  let scenarios =
    [
      {
        Robust.name = "exponential";
        failures = Dist.exponential ~rate:(1. /. mtbf);
        downtime = Dist.constant downtime;
      };
    ]
  in
  let r =
    Robust.evaluate ~traces_per_scenario:traces ~seed:13
      ~criterion:(Robust.CVaR 0.95) ~scenarios candidates
  in
  let policies =
    List.map
      (fun s ->
        let kind =
          if s.Robust.candidate = "replica-only" then `Replica
          else if String.length s.Robust.candidate >= 2
                  && String.sub s.Robust.candidate
                       (String.length s.Robust.candidate - 2)
                       2
                     = "+R"
          then `Mixed
          else `Ckpt
        in
        { name = s.Robust.candidate; kind; cvar = s.Robust.cvar;
          mean = s.Robust.mean })
      r.Robust.scores
  in
  let best kind =
    List.fold_left
      (fun acc p -> if p.kind = kind then Float.min acc p.cvar else acc)
      Float.infinity policies
  in
  let best_ckpt = best `Ckpt and best_mixed = best `Mixed in
  {
    mtbf_factor;
    mtbf;
    rho;
    policies;
    best_ckpt;
    best_mixed;
    mixed_wins = best_mixed < best_ckpt;
  }

let json_of ~family ~n ~seed ~traces cells =
  let module J = Wfc_io.Json in
  J.Assoc
    [
      ("benchmark", J.String "replication_tradeoff");
      ( "workflow",
        J.String (Printf.sprintf "%s n=%d seed=%d" family n seed) );
      ("checkpoint_cost_fraction", J.Number ckpt_fraction);
      ("downtime", J.Number downtime);
      ("replication_policy", J.String (Replication.spec_name spec));
      ("traces_per_cell", J.Number (float_of_int traces));
      ("criterion", J.String "cvar@0.95");
      ( "cells",
        J.List
          (List.map
             (fun c ->
               J.Assoc
                 [
                   ("mtbf_over_total_weight", J.Number c.mtbf_factor);
                   ("mtbf", J.Number c.mtbf);
                   ("replica_cost", J.Number c.rho);
                   ( "policies",
                     J.List
                       (List.map
                          (fun p ->
                            J.Assoc
                              [
                                ("name", J.String p.name);
                                ("cvar", J.Number p.cvar);
                                ("mean", J.Number p.mean);
                              ])
                          c.policies) );
                   ("best_ckpt_cvar", J.Number c.best_ckpt);
                   (* null when the budget placed no replicas in this cell *)
                   ( "best_mixed_cvar",
                     if Float.is_finite c.best_mixed then J.Number c.best_mixed
                     else J.Null );
                   ("mixed_wins", J.Bool c.mixed_wins);
                 ])
             cells) );
    ]

let run () =
  print_endline "== checkpoint-vs-replica trade-off (CVaR on shared traces) ==";
  let family, n, seed = ("Montage", 30, 7) in
  let traces =
    match Sys.getenv_opt "TRACES" with
    | Some s -> Int.max 1 (try int_of_string s with Failure _ -> 200)
    | None -> 200
  in
  let g =
    CM.apply (CM.Proportional ckpt_fraction) (P.generate P.Montage ~n ~seed)
  in
  let total_weight = Wfc_dag.Dag.total_weight g in
  let cells =
    List.concat_map
      (fun f ->
        List.map (fun rho -> bench_cell ~g ~total_weight ~traces f rho) rhos)
      mtbf_factors
  in
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "MTBF/W"; "rho"; "best ckpt cvar"; "best mixed cvar"; "mixed wins" ]
  in
  List.iter
    (fun c ->
      Wfc_reporting.Table.add_row table
        [
          Printf.sprintf "%g" c.mtbf_factor;
          Printf.sprintf "%g" c.rho;
          Printf.sprintf "%.1f" c.best_ckpt;
          (if Float.is_finite c.best_mixed then Printf.sprintf "%.1f" c.best_mixed
           else "(none placed)");
          string_of_bool c.mixed_wins;
        ])
    cells;
  Wfc_reporting.Table.print table;
  let path = "BENCH_replication.json" in
  let oc = open_out path in
  output_string oc (Wfc_io.Json.to_string (json_of ~family ~n ~seed ~traces cells));
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path;
  (* the regression guard: replication must pay for itself somewhere, and in
     particular in its most favorable cell — frequent failures, cheap
     replicas, expensive checkpoints *)
  let favorable =
    List.find
      (fun c ->
        c.mtbf_factor = List.fold_left Float.min infinity mtbf_factors
        && c.rho = List.fold_left Float.min infinity rhos)
      cells
  in
  let failures = ref [] in
  if not (List.exists (fun c -> c.mixed_wins) cells) then
    failures := "no swept cell has mixed beating checkpoint-only on CVaR" :: !failures;
  if not favorable.mixed_wins then
    failures :=
      Printf.sprintf
        "favorable cell (MTBF/W=%g, rho=%g): mixed cvar %.2f does not beat \
         checkpoint-only cvar %.2f"
        favorable.mtbf_factor favorable.rho favorable.best_mixed
        favorable.best_ckpt
      :: !failures;
  match !failures with
  | [] -> print_endline "replication guard: PASS"
  | msgs ->
      List.iter (fun m -> Printf.printf "replication guard: FAIL %s\n" m) msgs;
      exit 1
