(** Risk-aware schedule selection over shared, seeded failure lanes.

    Expectation under the nominal model ranks schedules by average luck;
    a risk-averse operator cares about the tail, and a misspecification-wary
    one about how much is lost when the platform's law is not the planned
    one. This module scores {e candidates} — static schedules and adaptive
    policies alike — on live renewal lanes ({!Wfc_simulator.Sim.renewal_source})
    seeded by [(seed, scenario, trace, lane)]: every candidate faces the same
    failure sequences, drawn afresh from the same streams, so differences
    are pure policy, not sampling noise. The lanes span several failure laws
    at equal MTBF (exponential, Weibull bracketing shape 1, bursty
    hyperexponential), and the winner is picked by mean, CVaR{_ α} or
    worst-case makespan, with a per-scenario regret table against the
    per-scenario best candidate. *)

type criterion =
  | Mean  (** lowest mean makespan over every run *)
  | CVaR of float
      (** lowest expected makespan of the worst [(1 - alpha)] tail
          ({!Wfc_platform.Sample_set.cvar}); [alpha] in [\[0, 1\]] *)
  | Worst  (** lowest maximum makespan over every run *)

val criterion_name : criterion -> string
(** ["mean"], ["cvar@0.95"] or ["worst"]. *)

val criterion_of_string : string -> criterion option
(** Parses ["mean"], ["worst"], ["cvar"] (alpha 0.95) and ["cvar:Q"] with
    [Q] in [\[0, 1\]]. *)

type scenario = {
  name : string;
  failures : Wfc_platform.Distribution.t;  (** inter-failure law *)
  downtime : Wfc_platform.Distribution.t;  (** per-failure repair law *)
}

val default_scenarios : Wfc_platform.Failure_model.t -> scenario list
(** Failure laws at the nominal model's MTBF — exponential, Weibull shapes
    0.7 and 1.5, and a mean-preserving bursty hyperexponential mix — all
    with the nominal constant downtime. Equal MTBF isolates the effect of
    the law's shape from its scale.

    @raise Invalid_argument if the model is fail-free ([lambda = 0]). *)

type candidate = {
  name : string;
  extra_lanes : int;
      (** sibling lanes the policy consumes: [max replica count - 1] *)
  execute :
    cancel:Wfc_platform.Cancel.t ->
    Wfc_simulator.Sim.source array ->
    Wfc_simulator.Sim.run;
      (** run the policy once on [1 + extra_lanes] failure lanes: lane 0
          drives copy 0 of every task, lanes 1.. the replica copies *)
}
(** A candidate keeps its executor between runs, so it is not shared
    between domains. *)

val static :
  ?replica_cost:float ->
  name:string ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  candidate
(** The fixed schedule, run by one {!Wfc_simulator.Sim.exec} built here and
    reused by every run. *)

val adaptive :
  ?replica_cost:float ->
  name:string ->
  Wfc_simulator.Sim_adaptive.config ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  candidate
(** The adaptive executor starting from the given initial schedule;
    replicated schedules consume sibling lanes as in {!static}. *)

type score = {
  candidate : string;
  mean : float;  (** over every run of every scenario *)
  cvar : float;  (** at the report's [alpha] *)
  worst : float;
  per_scenario : (string * float) list;  (** mean makespan per scenario *)
  regret : (string * float) list;
      (** per scenario: mean makespan minus the best candidate's mean on
          that scenario (0 for the per-scenario winner) *)
  max_regret : float;
}

type report = {
  criterion : criterion;
  alpha : float;  (** the CVaR level used in every [score.cvar] *)
  traces_per_scenario : int;
  scores : score list;  (** input candidate order *)
  winner : score;  (** best by [criterion]; ties to the earliest candidate *)
}

val evaluate :
  ?traces_per_scenario:int ->
  ?alpha:float ->
  ?cancel:Wfc_platform.Cancel.t ->
  seed:int ->
  criterion:criterion ->
  scenarios:scenario list ->
  candidate list ->
  report
(** [evaluate ~seed ~criterion ~scenarios candidates] runs {e every}
    candidate [traces_per_scenario] (default 50) times per scenario. Run
    [t] of scenario [s] is on fresh renewal lanes, lane [l] seeded by
    [(seed, s, t, l)], so every candidate faces the same failures, and a
    replicated candidate's lane 0 is exactly an unreplicated one's: adding
    replicated candidates never perturbs the scores of existing ones.
    [alpha] (default 0.95) sets the CVaR level.

    A run lasts until the workflow completes: nothing truncates a schedule
    that cannot finish on its platform. [cancel] is polled as
    {!Wfc_simulator.Sim.execute} polls it, and is the bound on such a run.

    @raise Invalid_argument if [candidates] or [scenarios] is empty,
      [traces_per_scenario < 1], or [alpha] or a [CVaR] level is outside
      [\[0, 1\]].
    @raise Wfc_platform.Cancel.Cancelled when [cancel] fires. *)
