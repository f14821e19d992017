(** Exact checkpoint placement for a fixed linearization, by branch and
    bound.

    {!Brute_force.optimal_checkpoints_for_order} enumerates all [2^n]
    subsets; this solver reaches noticeably larger instances by exploiting
    two facts:

    - the expectation decomposes as [sum_i E\[X_i\]] where [E\[X_i\]] only
      depends on the checkpoint flags of positions [<= i], so flags can be
      fixed left to right with exact prefix costs;
    - [E\[X_i\] >= E\[t(w_i; 0; 0)\]] whatever the flags (see {!Bounds}),
      giving an admissible bound on any completion of a prefix.

    Still worst-case exponential — DAG-ChkptSched is NP-complete — but
    routinely solves 20-30 task instances, which is enough to audit the
    heuristics well beyond brute-force reach. *)

type solution = {
  schedule : Schedule.t;
  makespan : float;
  nodes : int;  (** search nodes expanded *)
}

exception Node_budget_exceeded

val optimal_checkpoints_within :
  ?max_nodes:int ->
  ?should_stop:(unit -> bool) ->
  ?cancel:Wfc_platform.Cancel.t ->
  ?domains:int ->
  ?dominance:bool ->
  ?memo:bool ->
  Flat_engine.t ->
  solution * [ `Optimal | `Budget_exhausted ]
(** [optimal_checkpoints_within engine] runs the branch and bound for the
    model, DAG and order [engine] is bound to (a fresh {!Flat_engine.create}
    or a warm engine rebound by {!Flat_engine.bind}). The engine scores and
    hill-climbs the warm start and scores the reported optimum, whose flags
    it is left holding; the result does not depend on the flags it held.

    The search runs under a node budget and an optional caller-supplied
    stop predicate (polled periodically — e.g. a wall-clock deadline).
    Instead of raising
    when the budget runs out, it returns the best incumbent found so far
    tagged [`Budget_exhausted], so callers can degrade gracefully; the
    incumbent is never worse than the warm-start heuristics, hence always a
    finite, valid schedule. [`Optimal] certifies the search completed.

    [cancel] (default {!Wfc_platform.Cancel.never}) is polled at the same
    1024-node throttle as [should_stop] but aborts instead of degrading:
    a cancelled token makes the search raise
    {!Wfc_platform.Cancel.Cancelled} (only after every worker domain has
    wound down and joined) rather than return the incumbent. Use
    [should_stop] for "give me your best under a budget", [cancel] for
    "stop computing, the caller no longer wants any answer".

    Prefix costs come from a {!Flat_engine} cursor per search domain
    ({!Flat_engine.prefix_makespan} — [O(n)] per node).
    The reported makespan is bitwise what a fresh {!Flat_engine} computes
    for the returned flags (so it does not depend on [domains] or on which
    domain found the optimum), within ~1e-15 relative of the oracle.

    Options:

    - [domains] (default [1]) explores root subtrees in parallel over
      {!Wfc_platform.Domain_pool}: the tree is split at a small depth into
      flag-prefix subtrees, self-scheduled across domains against a shared
      atomic incumbent. [should_stop] is then called from worker domains and
      must be thread-safe (a wall-clock deadline is).
    - [dominance] (default [true]) prunes children by two sound static
      rules: a task with no strict descendants is never checkpointed (its
      checkpoint is never read), and a task with zero checkpoint cost and
      recovery no larger than its weight is always checkpointed.
    - [memo] (default [true]) caches leaf completions keyed by a
      checkpoint-frontier signature (the flags of positions whose strict
      descendants cross the current depth) and re-evaluates them as
      warm-start incumbent candidates when an equal frontier recurs.

    With [~domains:1 ~dominance:false ~memo:false] the search is a plain
    depth-first branch and bound from the heuristic warm start, with no
    pruning beyond the tail bound — the parity configuration whose flags
    and node counts the test suite pins.

    @raise Invalid_argument if [domains < 1]. *)

val optimal_checkpoints :
  ?max_nodes:int ->
  ?cancel:Wfc_platform.Cancel.t ->
  ?domains:int ->
  ?dominance:bool ->
  ?memo:bool ->
  Flat_engine.t ->
  solution
(** [optimal_checkpoints engine] finds the checkpoint set minimizing the
    expected makespan among all [2^n] subsets for the linearization
    [engine] is bound to. Thin wrapper over {!optimal_checkpoints_within}
    that raises instead of returning an incumbent.

    @raise Node_budget_exceeded after [max_nodes] (default [1_000_000])
    expansions. *)
