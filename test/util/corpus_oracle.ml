(* A corpus report checked cell by cell against the Evaluator oracle.

   A sweep's cell ratio is the flat kernel's makespan of the heuristic's
   winning schedule over the instance's total weight. [check] rebuilds
   that schedule from the cell — the heuristic's linearization (RF replays
   the job's own stream, [Corpus.job_rand]) and its flags at the cell's
   checkpoint count — and requires [Evaluator.ratio] of it to match the
   cell's ratio within 1e-9 relative. *)

module Corpus = Wfc_corpus.Corpus
module H = Wfc_core.Heuristics

let check_row (config : Corpus.config) k (inst, scen) (row : Corpus.row) =
  let g = inst.Corpus.dag in
  let model = Corpus.scenario_model ~downtime:config.Corpus.downtime scen g in
  let rand = Corpus.job_rand config k in
  let where = row.Corpus.workflow ^ " " ^ row.Corpus.scenario in
  if
    row.Corpus.workflow <> inst.Corpus.name
    || row.Corpus.scenario <> Corpus.scenario_name scen
  then Some (where ^ ": row out of order")
  else
    List.find_map
      (fun ((lin, ckpt), (c : Corpus.cell)) ->
        let order = Wfc_dag.Linearize.run ~rand lin g in
        let flags = H.checkpoint_flags ckpt g ~order ~n_ckpt:c.Corpus.n_ckpt in
        let oracle =
          Wfc_core.Evaluator.ratio model g
            (Wfc_core.Schedule.make g ~order ~checkpointed:flags)
        in
        if
          c.Corpus.heuristic = H.name lin ckpt
          && Wfc_core.Eval_engine.rel_diff oracle c.Corpus.ratio <= 1e-9
        then None
        else
          Some
            (Printf.sprintf "%s %s: ratio %.17g, oracle %.17g" where
               c.Corpus.heuristic c.Corpus.ratio oracle))
      (List.combine config.Corpus.heuristics row.Corpus.cells)

(* [check config instances report] is [Ok cells], the number of cells
   checked, or [Error] naming the first cell that disagrees. Replicated
   sweeps are out of scope: a cell does not record its replica counts. *)
let check (config : Corpus.config) instances (report : Corpus.report) =
  if config.Corpus.replication <> Wfc_core.Replication.No_replication then
    invalid_arg "Corpus_oracle.check: replicated sweeps are not supported";
  let jobs =
    List.concat_map
      (fun inst -> List.map (fun scen -> (inst, scen)) config.Corpus.scenarios)
      instances
  in
  if List.length report.Corpus.rows <> List.length jobs then
    Error
      (Printf.sprintf "%d rows, expected %d" (List.length report.Corpus.rows)
         (List.length jobs))
  else
    match
      List.find_map Fun.id
        (List.mapi
           (fun k (job, row) -> check_row config k job row)
           (List.combine jobs report.Corpus.rows))
    with
    | Some msg -> Error msg
    | None ->
        Ok
          (List.fold_left
             (fun acc r -> acc + List.length r.Corpus.cells)
             0 report.Corpus.rows)
