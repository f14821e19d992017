(** Lost-work matrix: the quantities [W^i_k + R^i_k] of the paper.

    Fix a schedule and renumber tasks by position: [X_k] is the execution
    interval ending with the first success of the task at position [k]. Given
    that the most recent failure happened during [X_k] ([k = -1] meaning "no
    failure so far"), executing the task at position [i >= k] first requires
    replaying the tasks of the set [T↓k_i]: every still-needed predecessor
    whose output was lost and not already replayed for an earlier position in
    [\[k, i)]. Replaying a checkpointed task costs its recovery [r_j]; a
    non-checkpointed one costs its weight [w_j] and recursively requires its
    own predecessors.

    This module computes the total replay time for every pair [(k, i)] — the
    only quantity the makespan evaluator needs. The implementation runs in
    [O(n |E|)] total instead of the paper's [O(n^4)] table-based Algorithm 1;
    {!Lost_work_reference} keeps the literal algorithm for cross-checking. *)

type t

val compute : Wfc_dag.Dag.t -> Schedule.t -> t
(** Computes all replay sums for the given schedule. *)

val replay_time : t -> last_fault:int -> position:int -> float
(** [replay_time t ~last_fault:k ~position:i] is [W^i_k + R^i_k], the time
    spent re-executing lost non-checkpointed tasks plus recovering lost
    checkpointed ones before the task at position [i] can run, when the last
    failure struck during [X_k]. [k = -1] denotes "no failure yet" and always
    yields [0.]; [k = i] gives the replay cost after a failure during [X_i]
    itself.

    @raise Invalid_argument unless [-1 <= k <= i < n]. *)

val n_positions : t -> int

val compute_row_into :
  Wfc_dag.Dag.t ->
  order:int array ->
  pos:int array ->
  checkpointed:bool array ->
  weight:float array ->
  recovery:float array ->
  replayed:bool array ->
  k:int ->
  float array ->
  unit
(** [compute_row_into g ~order ~pos ~checkpointed ~weight ~recovery ~replayed
    ~k row] fills [row.(i - k)] with [W^i_k + R^i_k] for [i = k..n-1].
    [pos] is the inverse permutation of [order]; [checkpointed], [weight] and
    [recovery] are indexed by task id; [replayed] is caller-provided scratch
    of length [n] (clobbered). Row [k] only depends on the checkpoint flags
    of tasks at positions [< k] — the locality {!Flat_engine} exploits to
    refresh single rows after a flag flip (with its own iterative image of
    this DFS, bit-identical to a fresh {!compute}). *)
