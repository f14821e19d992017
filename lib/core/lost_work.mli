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

val compute : ?weight:float array -> Wfc_dag.Dag.t -> Schedule.t -> t
(** Computes all replay sums for the given schedule. [weight], indexed by
    task id, replaces the task weights as the cost of re-executing a lost
    task ({!Replication} charges replayed tasks at their surcharged weight).

    @raise Invalid_argument if [weight] has the wrong size. *)

val replay_time : t -> last_fault:int -> position:int -> float
(** [replay_time t ~last_fault:k ~position:i] is [W^i_k + R^i_k], the time
    spent re-executing lost non-checkpointed tasks plus recovering lost
    checkpointed ones before the task at position [i] can run, when the last
    failure struck during [X_k]. [k = -1] denotes "no failure yet" and always
    yields [0.]; [k = i] gives the replay cost after a failure during [X_i]
    itself.

    @raise Invalid_argument unless [-1 <= k <= i < n]. *)

val row : t -> int -> float array
(** [row t k] holds [replay_time t ~last_fault:k ~position:i] at index
    [i - k], for [i = k..n-1]: one bounds check per row instead of per
    pair, for the O(n^2) loops that read them all. The row is shared, not
    copied; callers must not mutate it.

    @raise Invalid_argument unless [0 <= k < n]. *)

val n_positions : t -> int
