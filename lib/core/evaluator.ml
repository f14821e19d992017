type result = {
  makespan : float;
  per_position : float array;
  fault_probability : float array;
}

let fail_free_time g = Wfc_dag.Dag.total_weight g

let evaluate_plain ?lost model g sched =
  let n = Schedule.n_tasks sched in
  let lost =
    match lost with Some l -> l | None -> Lost_work.compute g sched
  in
  let lambda = model.Wfc_platform.Failure_model.lambda in
  let weight_at p =
    (Wfc_dag.Dag.task g (Schedule.task_at sched p)).Wfc_dag.Task.weight
  in
  let ckpt_at p =
    let v = Schedule.task_at sched p in
    if Schedule.is_checkpointed sched v then
      (Wfc_dag.Dag.task g v).Wfc_dag.Task.checkpoint_cost
    else 0.
  in
  let replay k i = Lost_work.replay_time lost ~last_fault:k ~position:i in
  (* segment.(k) holds sum_{j=k+1..i-1} (L(k,j) + w_j + delta_j c_j), the
     failure-free work separating X_k from X_i, updated incrementally as i
     advances; segment_start is the k = -1 ("no failure yet") variant. *)
  let segment = Array.make n 0. in
  let segment_start = ref 0. in
  let fault_probability = Array.make n 0. in
  let per_position = Array.make n 0. in
  let makespan = ref 0. in
  for i = 0 to n - 1 do
    let w_i = weight_at i and c_i = ckpt_at i in
    let replay_full = replay i i in
    let expectation k =
      let l = replay k i in
      Wfc_platform.Failure_model.expected_exec_time model ~work:(l +. w_i)
        ~checkpoint:c_i
        ~recovery:(Float.max 0. (replay_full -. l))
    in
    (* probability of each fault epoch k = -1, 0..i-1 (recurrences A and B) *)
    let p_fresh = Float.exp (-.lambda *. !segment_start) in
    let e_xi = ref (if p_fresh > 0. then p_fresh *. expectation (-1) else 0.) in
    let sum_p = ref p_fresh in
    for k = 0 to i - 2 do
      let p = Float.exp (-.lambda *. segment.(k)) *. fault_probability.(k) in
      sum_p := !sum_p +. p;
      if p > 0. then e_xi := !e_xi +. (p *. expectation k)
    done;
    if i >= 1 then begin
      let p_last = Float.max 0. (1. -. !sum_p) in
      fault_probability.(i - 1) <- p_last;
      if p_last > 0. then e_xi := !e_xi +. (p_last *. expectation (i - 1))
    end;
    per_position.(i) <- !e_xi;
    makespan := !makespan +. !e_xi;
    (* advance the separating-work sums for the next position *)
    let s_of k = replay k i +. w_i +. c_i in
    for k = 0 to i - 1 do
      segment.(k) <- segment.(k) +. s_of k
    done;
    segment_start := !segment_start +. w_i +. c_i
  done;
  (* Recurrence (B) defines P(F(X_{i-1})) while processing i; one virtual
     step past the last position fills in the final interval. *)
  if n >= 1 then begin
    let sum_p = ref (Float.exp (-.lambda *. !segment_start)) in
    for k = 0 to n - 2 do
      sum_p :=
        !sum_p +. (Float.exp (-.lambda *. segment.(k)) *. fault_probability.(k))
    done;
    fault_probability.(n - 1) <- Float.max 0. (1. -. !sum_p)
  end;
  { makespan = !makespan; per_position; fault_probability }

(* Every oracle evaluation is counted, so a test can pin that no search
   path on the flat backend reaches this module. *)
let m_evaluations = Wfc_obs.Metrics.counter "evaluator.evaluations"

let evaluate ?lost ?replica_cost model g sched =
  Wfc_obs.Metrics.incr m_evaluations;
  if Schedule.is_replicated sched then begin
    (* replicated schedules change the lost-work weights themselves, so a
       caller-provided unreplicated matrix would silently be wrong *)
    if lost <> None then
      invalid_arg "Evaluator.evaluate: ?lost with a replicated schedule";
    let r = Replication.evaluate ?cost:replica_cost model g sched in
    {
      makespan = r.Replication.makespan;
      per_position = r.Replication.per_position;
      fault_probability = r.Replication.fault_probability;
    }
  end
  else evaluate_plain ?lost model g sched

let expected_makespan ?lost ?replica_cost model g sched =
  (evaluate ?lost ?replica_cost model g sched).makespan

let ratio model g sched =
  let m = expected_makespan model g sched in
  let tinf = fail_free_time g in
  (* zero-total-weight DAGs: T_inf = 0 and the naive quotient is NaN (0/0)
     or spurious inf; a schedule doing no work in no time is a ratio-1
     execution, anything slower (checkpoint or downtime costs) degrades
     infinitely *)
  if tinf > 0. then m /. tinf else if m = 0. then 1. else Float.infinity
