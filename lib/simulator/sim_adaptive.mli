(** Adaptive online execution: re-estimate the failure rate from observed
    failures and re-optimize the rest of the schedule while it runs.

    The static pipeline fixes a linearization and checkpoint flags before
    the first failure. This is {!Sim.execute} with a failure observer that,
    at every failure boundary, (1) re-estimates the
    platform's failure rate by maximum likelihood from everything observed
    so far — [failures / total uptime], where uptime counts completed
    segments and elapsed-at-failure times alike (the censored-exposure MLE
    for the exponential law) — and the mean of the observed downtimes, and
    (2) when the configured {!trigger} fires, hands the suffix of the
    schedule to a {!replan} callback together with the re-estimated model.
    The callback (typically {!Wfc_resilience.Solver_driver} — a callback
    keeps this library free of a dependency cycle) may re-flag and/or
    re-order the not-yet-completed tasks; the executed prefix is pinned.

    With [replan = None] the executor makes exactly the draws of
    {!Sim.run_with_source} on the same source and returns a bit-identical
    {!Sim.run} — pinned by a property test, and the reason adaptive and
    static policies can be scored on the same seeded failure lanes. *)

type trigger =
  | Every_failure  (** replan at every failure (once observable) *)
  | Every_k of int  (** replan every [k]-th failure *)
  | On_drift of float
      (** replan when the estimated rate drifts from the rate last planned
          for by at least this factor (in either direction):
          [max (l_hat /. l_plan, l_plan /. l_hat) >= f]. A fail-free belief
          ([l_plan = 0]) counts as infinitely drifted-from once a failure
          is observed. *)

type plan = { order : int array; flags : bool array }
(** A replanned suffix: the full (position -> task) order and per-task
    checkpoint flags. Positions [< from] must be untouched. *)

type replan =
  model:Wfc_platform.Failure_model.t ->
  order:int array ->
  flags:bool array ->
  from:int ->
  plan option
(** Called at a replan point with the re-estimated [model], the current
    order and flags (fresh copies) and the first not-yet-completed position
    [from]. Return [None] to keep the current schedule. *)

type config = {
  planning : Wfc_platform.Failure_model.t;
      (** the believed platform the initial schedule was optimized for —
          the baseline the drift trigger compares against *)
  trigger : trigger;
  min_observations : int;
      (** failures to observe before the first re-estimate/replan (the MLE
          needs data); at least 1 *)
  replan : replan option;  (** [None]: observe and estimate, never replan *)
}

val default_config : Wfc_platform.Failure_model.t -> config
(** [Every_failure], [min_observations = 3], no replanner. *)

type result = {
  run : Sim.run;  (** the executed makespan/failures/wasted *)
  replans : int;  (** replan callbacks that returned a new plan *)
  reestimates : int;  (** rate re-estimates performed *)
  estimated : Wfc_platform.Failure_model.t;
      (** final estimate; [planning] when nothing was ever observed *)
  final_order : int array;
  final_flags : bool array;  (** the schedule actually executed, by task *)
}

val run :
  ?extra_lanes:Sim.source array ->
  ?replica_cost:float ->
  ?cancel:Wfc_platform.Cancel.t ->
  config ->
  source:Sim.source ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  result
(** Execute [sched] against [source] (live, or a {!Trace_io} replay — two
    policies on equally seeded renewal lanes, or on one renewal-kind
    trace, face the same failures).

    A replicated schedule runs with the multi-lane semantics of
    {!Sim.run_with_lanes}: [source] drives copy 0 and [extra_lanes] the
    remaining copies (so an unreplicated candidate and a replicated one can
    share the primary failure stream). The MLE then observes {e every} lane
    — per-copy censored exposure and per-copy failures — while triggers and
    the reported run count effective failures (attempts where all copies
    died). Replica counts are fixed across replans.

    [cancel] is polled as {!Sim.execute} polls it.

    @raise Invalid_argument if the trigger is malformed ([Every_k k] with
      [k < 1], [On_drift f] with [f <= 1]), [min_observations < 1], a
      replan returns a plan that moves or re-flags completed positions or
      is not a linearization of the DAG, [source] and [extra_lanes] provide
      fewer lanes than {!Wfc_core.Schedule.max_replica_count}, or
      [extra_lanes] is non-empty for an unreplicated schedule.
    @raise Wfc_platform.Cancel.Cancelled when [cancel] fires. *)
