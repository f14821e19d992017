type t = {
  makespan : float;
  useful_compute : float;
  recompute : float;
  checkpoint : float;
  recovery : float;
  lost : float;
  downtime : float;
  failures : int;
}

(* Sim.run with an observer that splits each step by activity. The
   makespan is the executor's own clock, so it is bit-identical to Sim.run's;
   the activities sum to it up to rounding. *)
let run ~rng model g sched =
  let useful = ref 0. and recompute = ref 0. and checkpoint = ref 0. in
  let recovery = ref 0. and lost = ref 0. and downtime = ref 0. in
  let on_success ex =
    let v = Sim.task ex and read = Sim.recovery_time ex in
    useful := !useful +. Sim.work ex v;
    recompute := !recompute +. (Sim.replay_time ex -. read);
    recovery := !recovery +. read;
    if Sim.checkpointing ex then
      checkpoint :=
        !checkpoint +. (Wfc_dag.Dag.task g v).Wfc_dag.Task.checkpoint_cost
  and on_failure ex =
    lost := !lost +. Sim.lost ex;
    downtime := !downtime +. Sim.downtime ex
  in
  let ex = Sim.exec g sched in
  Sim.execute
    ~observer:{ Sim.silent with Sim.on_success; on_failure }
    ex
    (Sim.model_lanes ~rng model sched);
  {
    makespan = Sim.time ex;
    useful_compute = !useful;
    recompute = !recompute;
    checkpoint = !checkpoint;
    recovery = !recovery;
    lost = !lost;
    downtime = !downtime;
    failures = Sim.failures ex;
  }
