type result = Replication.result = {
  makespan : float;
  per_position : float array;
  fault_probability : float array;
}

let fail_free_time g = Wfc_dag.Dag.total_weight g

(* Every oracle evaluation is counted, so a test can pin that no search
   path on the flat backend reaches this module. *)
let m_evaluations = Wfc_obs.Metrics.counter "evaluator.evaluations"

let evaluate ?lost ?replica_cost model g sched =
  Wfc_obs.Metrics.incr m_evaluations;
  Replication.recurrence ?lost ?cost:replica_cost model g sched

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
