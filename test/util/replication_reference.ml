(* The budget greedy of Heuristics.replication_counts as it stood before it
   ran on the flat kernel, kept as a test oracle: every +1 candidate of
   every round is scored by a full Replication.evaluate. The
   kernel and the recurrence agree to the last few ulps, not bit for bit,
   so the greedy also reports its narrowest decision: per round, the
   relative gap between the best and second-best densities, and the
   largest gain relative to the current makespan (the sign that decides
   whether the round buys anything). Where that margin is wider than the
   two scorers' disagreement, both greedies must buy the same replicas. *)

open Wfc_core

let budget_counts ?(max_replicas = 4) ?(cost = Replication.default_cost)
    ~fraction model g ~sched =
  let n = Wfc_dag.Dag.n_tasks g in
  let weight v = (Wfc_dag.Dag.task g v).Wfc_dag.Task.weight in
  let budget = ref (fraction *. Wfc_dag.Dag.total_weight g) in
  let reps = Array.make n 1 in
  let score () =
    (Replication.evaluate ~cost model g (Schedule.with_replicas sched reps))
      .Replication.makespan
  in
  let current = ref (score ()) in
  let margin = ref Float.infinity in
  let improved = ref true and rounds = ref 0 in
  while !improved && !rounds < 32 do
    incr rounds;
    improved := false;
    let best = ref None and second = ref 0. in
    let max_gain = ref Float.neg_infinity in
    for v = 0 to n - 1 do
      let dc = cost *. weight v in
      if reps.(v) < max_replicas && dc <= !budget then begin
        reps.(v) <- reps.(v) + 1;
        let m = score () in
        reps.(v) <- reps.(v) - 1;
        let gain = !current -. m in
        max_gain := Float.max !max_gain gain;
        if gain > 0. then begin
          let density = if dc > 0. then gain /. dc else Float.infinity in
          match !best with
          | Some (bd, _, _, _) when bd >= density ->
              second := Float.max !second density
          | Some (bd, _, _, _) ->
              second := bd;
              best := Some (density, v, m, dc)
          | None -> best := Some (density, v, m, dc)
        end
      end
    done;
    if Float.is_finite !max_gain then
      margin := Float.min !margin (Float.abs !max_gain /. !current);
    match !best with
    | Some (bd, v, m, dc) ->
        if !second > 0. then margin := Float.min !margin ((bd -. !second) /. bd);
        reps.(v) <- reps.(v) + 1;
        budget := !budget -. dc;
        current := m;
        improved := true
    | None -> ()
  done;
  (reps, !margin)
