(** The scheduling heuristics of Section 5.

    A heuristic combines a linearization strategy (DF, BF or RF, see
    {!Wfc_dag.Linearize}) with a checkpointing strategy. CkptNvr and CkptAlws
    are the baselines; CkptW, CkptC and CkptD checkpoint the [N] best tasks
    under their respective criteria, and CkptPer spreads [N - 1] checkpoints
    evenly over the failure-free timeline; all four search the checkpoint
    count [N] that minimizes the expected makespan (Theorem 3, computed by
    the {!Flat_engine} kernel). *)

type ckpt_strategy =
  | Ckpt_never  (** no checkpoint at all *)
  | Ckpt_always  (** checkpoint every task *)
  | Ckpt_weight  (** decreasing [w_i]: longest computations first *)
  | Ckpt_cost  (** increasing [c_i]: cheapest checkpoints first *)
  | Ckpt_outweight  (** decreasing [d_i]: heaviest direct successors first *)
  | Ckpt_periodic  (** positions closest to multiples of [W / N] *)
  | Ckpt_efficiency
      (** extension beyond the paper: decreasing [w_i / c_i], the work
          protected per checkpoint second — interpolates between CkptW and
          CkptC *)

val all_ckpt_strategies : ckpt_strategy list
(** The paper's six strategies (no [Ckpt_efficiency]) — what the figure
    harness sweeps. *)

val extended_ckpt_strategies : ckpt_strategy list
(** [all_ckpt_strategies] plus [Ckpt_efficiency]. *)

val ckpt_strategy_name : ckpt_strategy -> string
(** "CkptNvr", "CkptAlws", "CkptW", "CkptC", "CkptD", "CkptPer" (the paper's
    names) or "CkptE" (the extension). *)

val ckpt_strategy_of_string : string -> ckpt_strategy option

(** How to explore the number of checkpoints [N] in [1..n-1]. *)
type search =
  | Exhaustive  (** every value, as in the paper *)
  | Grid of int  (** at most this many values, denser for small [N] *)

val candidate_counts : search -> n:int -> int list
(** The [N] values explored by [search] for an [n]-task workflow: an
    increasing subset of [1..n-1] that always contains both bounds. *)

val checkpoint_flags :
  ckpt_strategy -> Wfc_dag.Dag.t -> order:int array -> n_ckpt:int -> bool array
(** [checkpoint_flags strategy g ~order ~n_ckpt] selects which tasks
    checkpoint when the strategy is allotted [n_ckpt] checkpoints. For
    [Ckpt_periodic] the budget follows the paper: [n_ckpt = N] yields [N - 1]
    checkpoints at the tasks completing earliest after [x * W / N],
    [x = 1..N-1], on the failure-free timeline of [order]. [Ckpt_never] and
    [Ckpt_always] ignore [n_ckpt].

    @raise Invalid_argument if [n_ckpt] is outside [0..n]. *)

type outcome = {
  schedule : Schedule.t;
  makespan : float;
      (** the score the winner got during the search: the kernel's own
          value, bitwise
          [Flat_engine.makespan (Flat_engine.create ~flags model g ~order)]
          of the returned schedule and within ~1e-15 relative of
          {!Evaluator.expected_makespan} *)
  n_ckpt : int;  (** the best checkpoint budget found *)
  evaluations : int;  (** number of candidate evaluations performed *)
}

val run :
  ?search:search ->
  ?backend:Eval_engine.backend ->
  ?rand:(int -> int) ->
  ?engine:Flat_engine.t ->
  ?cancel:Wfc_platform.Cancel.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  lin:Wfc_dag.Linearize.strategy ->
  ckpt:ckpt_strategy ->
  outcome
(** [run model g ~lin ~ckpt] linearizes [g] with [lin] then optimizes the
    checkpoint placement with [ckpt]. [search] defaults to [Exhaustive].
    The candidates (the [N]-sweep, or the single CkptNvr/CkptAlws schedule)
    are scored on one {!Flat_engine}, and the reported makespan is that
    score. [backend] is always [Flat] and is ignored; it is kept for
    wfcbench, see ROADMAP item 3. [rand] seeds the RF linearization.
    [cancel] (default {!Wfc_platform.Cancel.never}) is polled once per
    candidate: a cancelled token makes the sweep raise
    {!Wfc_platform.Cancel.Cancelled} instead of returning a partial best.

    [engine] supplies a warm {!Flat_engine} already bound to [(g, order)]
    — the serving layer's LRU hands one back for repeat requests so the
    sweep skips the engine build. The model is rebound with
    {!Flat_engine.set_model} (cached lost-work rows survive); because the
    sweep only assigns whole flag vectors and an engine's makespan is a pure
    function of its flags, the outcome is bit-identical to a cold run
    whatever flags and model the engine was left holding.

    @raise Invalid_argument if [engine] is bound to a different order than
      [lin]'s linearization of [g]. *)

(** {1 Replication — the second resilience axis} *)

val replication_counts :
  ?max_replicas:int ->
  ?cost:float ->
  ?cancel:Wfc_platform.Cancel.t ->
  Replication.spec ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  sched:Schedule.t ->
  int array
(** Per-task replica counts for [sched] under the given policy:
    [No_replication] is all-ones; [Heavy k] duplicates the [k] heaviest
    tasks (the CkptW ranking); [Budget f] greedily spends a replica-work
    budget of [f *. total_weight] one [+1] replica at a time, each round
    buying the increment with the best expected-makespan reduction per unit
    of extra work (evaluated through {!Replication.expected_makespan}) and
    stopping when nothing improves; [Auto] is [Budget 0.2]. Counts are
    capped at [max_replicas] (default 4).

    @raise Invalid_argument if [max_replicas] is outside
      [1..Schedule.max_replicas], [cost] is invalid, or a [Budget] fraction
      is not positive and finite. *)

val replicate :
  ?max_replicas:int ->
  ?cost:float ->
  ?cancel:Wfc_platform.Cancel.t ->
  Replication.spec ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  outcome ->
  outcome
(** Applies {!replication_counts} to the outcome's schedule and re-evaluates
    the makespan replica-aware. The outcome is returned unchanged when the
    policy places no replica. *)

val run_replicated :
  ?search:search ->
  ?backend:Eval_engine.backend ->
  ?rand:(int -> int) ->
  ?max_replicas:int ->
  ?cost:float ->
  ?cancel:Wfc_platform.Cancel.t ->
  Replication.spec ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  lin:Wfc_dag.Linearize.strategy ->
  ckpt:ckpt_strategy ->
  outcome
(** {!run} followed by {!replicate}: checkpoint placement is optimized
    unreplicated, then the replication policy spends its budget on top.
    [backend] is always [Flat] and is ignored; it is kept for wfcbench, see
    ROADMAP item 3. *)

val best_over_linearizations :
  ?search:search ->
  ?rand:(int -> int) ->
  ?cancel:Wfc_platform.Cancel.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  ckpt:ckpt_strategy ->
  Wfc_dag.Linearize.strategy * outcome
(** Runs all three linearization strategies and keeps the best outcome —
    how the paper reports Figures 3 and 5–7. *)

val name : Wfc_dag.Linearize.strategy -> ckpt_strategy -> string
(** e.g. ["DF-CkptW"]. *)
