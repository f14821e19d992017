(** Graceful degradation for the exact solver: always return the best answer
    the budget allows, and say which tier produced it.

    DAG-ChkptSched is NP-complete, so {!Wfc_core.Exact_solver} can blow any
    node budget or wall-clock deadline on an unlucky instance. A production
    toolchain must not fall over when that happens: this driver runs the
    branch and bound under both limits via
    {!Wfc_core.Exact_solver.optimal_checkpoints_within}, and on exhaustion
    falls back through a configurable chain — hill-climb the incumbent, then
    compare against the best fallback heuristic — returning whichever
    schedule is best, tagged with the tier that produced it and a
    human-readable reason. *)

type tier =
  | Exact  (** branch and bound completed: certified optimal for the order *)
  | Local_search
      (** budget exhausted; the hill-climbed incumbent won the fallback *)
  | Heuristic  (** budget exhausted; a fallback heuristic won *)

val tier_name : tier -> string
(** ["exact"], ["local-search"] or ["heuristic"]. *)

type config = {
  max_nodes : int;  (** branch-and-bound node budget *)
  deadline : float option;  (** wall-clock seconds for the exact attempt *)
  search : Wfc_core.Heuristics.search;  (** checkpoint-count search of the fallbacks *)
  fallbacks :
    (Wfc_dag.Linearize.strategy * Wfc_core.Heuristics.ckpt_strategy) list;
      (** heuristic chain tried on budget exhaustion, in order *)
  ls_evaluations : int;
      (** evaluator budget for hill climbing the exact incumbent *)
  backend : Wfc_core.Eval_engine.backend;
      (** always [Flat] and ignored; kept for wfcbench, see ROADMAP item 3 *)
  bnb_domains : int;
      (** domains for the exact tier's parallel branch and bound *)
}

val default_config : config
(** [max_nodes = 1_000_000], [deadline = None], exhaustive search, the
    paper's four searched strategies under DF as fallbacks,
    [ls_evaluations = 2000], [backend = Flat], [bnb_domains = 1]. *)

type result = {
  schedule : Wfc_core.Schedule.t;
  makespan : float;  (** analytic expectation of [schedule] *)
  tier : tier;
  reason : string;  (** why this tier answered, e.g. the budget that ran out *)
  nodes : int;  (** branch-and-bound nodes expanded *)
  elapsed : float;  (** wall-clock seconds spent in the driver *)
}

val solve :
  ?config:config ->
  ?cancel:Wfc_platform.Cancel.t ->
  ?engine:Wfc_core.Flat_engine.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  result
(** [solve model g ~order] never raises {!Wfc_core.Exact_solver.Node_budget_exceeded}:
    it degrades through the configured chain instead. The returned makespan
    is never worse than the best configured fallback heuristic's.

    [cancel] (default {!Wfc_platform.Cancel.never}) is threaded into every
    tier — the branch and bound's 1024-node poll, each local-search move,
    each fallback-heuristic candidate. Unlike [deadline] (which degrades to
    the next tier), a cancelled token aborts the whole solve with
    {!Wfc_platform.Cancel.Cancelled}: it is the serving layer's watchdog
    hook, for when nobody is waiting for any answer at all.

    The branch and bound and the climb of its incumbent run on
    {!Wfc_core.Flat_engine.bind}[ ?engine model g ~order] (the serving
    layer's warm engine): bit-identical with or without [engine].

    @raise Invalid_argument if [order] is not a linearization of [g], or
      [engine] is bound to another order. *)

type suffix_result = {
  flags : bool array;
      (** full flag vector by task id; entries of tasks at positions
          [< from] are exactly the input's (the prefix is pinned) *)
  expected_remaining : float;
      (** sum of [E(X_i)] over positions [>= from] under [flags] *)
  evaluations : int;  (** candidate evaluations spent (at most [budget]) *)
}

val solve_suffix :
  ?budget:int ->
  ?engine:Wfc_core.Flat_engine.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  flags:bool array ->
  from:int ->
  suffix_result
(** [solve_suffix model g ~order ~flags ~from] re-optimizes the checkpoint
    flags of the tasks at positions [>= from] — the not-yet-completed
    suffix of a running schedule — leaving the prefix flags pinned.
    Candidates share the prefix, so comparing suffix expectations is
    comparing full makespans; the objective is the unconditional Theorem 3
    suffix under [model] (exact for the memoryless platform the adaptive
    executor re-estimates).

    The search is deterministic (incumbent, suffix-all-off, suffix-all-on,
    then best-improvement single flips in position order, ties to the
    earliest position) and spends at most [budget] (default 256) candidate
    evaluations — the per-replan budget of the adaptive executor.

    Candidates are scored on a {!Wfc_core.Flat_engine}. [engine] supplies
    one already bound to [(g, order)] to reuse across replans: the model is
    rebound by {!Wfc_core.Flat_engine.bind} (cached lost-work rows
    survive) and each candidate costs only the suffix it dirties; on return
    the engine holds the chosen flags. Without [engine] a fresh one is
    built. A reused engine and a fresh one return the same flags and the
    same [expected_remaining], bit for bit, within 1e-9 of the oracle's
    suffix sum.

    @raise Invalid_argument if [budget < 1], [flags] has the wrong size,
      [from] is outside [\[0, n\]], [order] is not a linearization, or
      [engine] is bound to a different order. *)

val default_suffix_budget : int
(** Default per-replan candidate budget (256). *)

val replanner :
  ?budget:int ->
  ?relinearize:Wfc_dag.Linearize.strategy ->
  Wfc_dag.Dag.t ->
  Wfc_simulator.Sim_adaptive.replan
(** [replanner g] wires {!solve_suffix} into
    {!Wfc_simulator.Sim_adaptive}'s callback slot, caching evaluation
    engines per order so successive replans reuse their lost-work rows
    (the re-estimated model is rebound with
    {!Wfc_core.Flat_engine.set_model}).

    With [relinearize], each replan also builds a second candidate order —
    the executed prefix followed by the given strategy's linearization
    filtered to the remaining tasks (always a valid linearization, because
    the prefix is ancestor-closed) — spends half the budget on each, and
    keeps whichever expected remaining time is lower (ties keep the
    current order). *)
