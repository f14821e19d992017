(** Activity-level accounting of a simulated execution.

    Splits a run's wall-clock time into what the platform was doing:

    - [useful_compute]: first-time execution of task weights;
    - [recompute]: re-execution of lost, non-checkpointed tasks;
    - [checkpoint]: writing checkpoints (complete or aborted);
    - [recovery]: reading checkpoints during replay (complete or aborted);
    - [lost]: partial attempt time destroyed by failures, attributed to the
      activities above when they completed, and counted here only for the
      instants that belong to no completed activity — to keep the
      decomposition simple we count the whole aborted attempt here;
    - [downtime]: platform repair time.

    The invariant [makespan = useful_compute + recompute + checkpoint +
    recovery + lost + downtime] holds up to rounding; it feeds the
    {!Energy} model. *)

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

val run :
  rng:Wfc_platform.Rng.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  t
(** {!Sim.run} with an observer splitting each step: the same draws, and a
    makespan bit-identical to {!Sim.run}'s. *)
