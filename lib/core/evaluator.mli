(** Expected makespan of a schedule (Theorem 3 of the paper).

    The execution time decomposes as [sum_i X_i], where [X_i] spans from the
    first success of the task at position [i-1] to the first success of the
    task at position [i]. Conditioning on the event [Z^i_k] — "the most
    recent failure happened during [X_k]" — gives
    [E\[X_i\] = sum_k P(Z^i_k) E\[X_i | Z^i_k\]], where

    - [P(Z^i_k)] follows the recurrences (A) and (B) of the paper from the
      replay sums of {!Lost_work}, and
    - [E\[X_i | Z^i_k\] = E\[t(L(k,i) + w_i ; delta_i c_i ; L(i,i) - L(k,i))\]]
      with [L] the replay time and [delta_i] the checkpoint flag: the first
      attempt replays what was lost given [Z^i_k], while each retry replays
      the full loss of a failure during [X_i] itself.

    The computation is exact for exponentially distributed failures, costs
    [O(n^2)] once the replay sums are known, and is valid even when failures
    strike during checkpoints and recoveries. The recurrence itself is
    {!Replication.recurrence}, which reduces to the paper's at one replica per
    task; this module is the counted entry point the oracle paths call. *)

type result = Replication.result = {
  makespan : float;  (** expected execution time of the schedule *)
  per_position : float array;  (** [E\[X_i\]] for each position [i] *)
  fault_probability : float array;
      (** [P(F(X_i))]: probability that at least one failure occurs during
          interval [X_i] *)
}

val evaluate :
  ?lost:Lost_work.t ->
  ?replica_cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Schedule.t ->
  result
(** [evaluate model g s] computes the full decomposition: it is
    {!Replication.recurrence} with [replica_cost] as its surcharge (default
    {!Replication.default_cost}), which an unreplicated schedule ignores.
    The replay sums are computed on the fly unless [lost] provides them. The
    makespan is [infinity] when the failure rate makes some segment's
    expectation overflow — such schedules compare as worse than any finite
    one.

    Each call adds one to the [evaluator.evaluations] counter of
    {!Wfc_obs.Metrics} (one branch when the layer is off), which lets tests
    pin that no flat search path reaches the oracle.

    @raise Invalid_argument as {!Replication.recurrence}. *)

val expected_makespan :
  ?lost:Lost_work.t ->
  ?replica_cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Schedule.t ->
  float
(** [expected_makespan model g s = (evaluate model g s).makespan]. *)

val fail_free_time : Wfc_dag.Dag.t -> float
(** [T_inf]: duration of a failure-free, checkpoint-free execution — the sum
    of all task weights (linearization-independent). *)

val ratio :
  Wfc_platform.Failure_model.t -> Wfc_dag.Dag.t -> Schedule.t -> float
(** [ratio model g s] is [expected_makespan model g s /. fail_free_time g],
    the quantity plotted by every figure of the paper. Degenerate
    zero-total-weight DAGs never produce NaN: when [fail_free_time g = 0.]
    the ratio is [1.] if the expected makespan is also zero and [infinity]
    otherwise (checkpoint or recovery overhead on zero work). *)
