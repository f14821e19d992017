(** Monte Carlo estimation of a schedule's expected makespan. *)

type estimate = {
  makespan : Wfc_platform.Stats.t;  (** makespan samples *)
  failures : Wfc_platform.Stats.t;  (** failures per run *)
  wasted : Wfc_platform.Stats.t;  (** wasted time per run *)
}

val estimate :
  ?cancel:Wfc_platform.Cancel.t ->
  ?replica_cost:float ->
  ?runs:int ->
  seed:int ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  estimate
(** [estimate ~seed model g s] aggregates [runs] (default 1000) independent
    simulated executions, deterministically in [seed]. Replicated schedules
    simulate with [replica_cost] per extra copy (see {!Sim.run}). Every run
    reuses one {!Sim.exec} and one set of {!Sim.source_of_model} lanes, so a
    run allocates only its summary; [cancel] is polled as {!Sim.execute}
    polls it.

    @raise Invalid_argument if [runs <= 0].
    @raise Wfc_platform.Cancel.Cancelled when [cancel] fires. *)

val estimate_renewal :
  ?replica_cost:float ->
  ?runs:int ->
  seed:int ->
  failures:Wfc_platform.Distribution.t ->
  downtime:float ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  estimate
(** Like {!estimate}, on {!Sim.renewal_source} lanes ({!Sim.renew}ed
    after each run): failures as a renewal process of any law.

    @raise Invalid_argument if [runs <= 0], or [downtime] is negative or
      not finite. *)

val estimate_overlap :
  ?runs:int ->
  seed:int ->
  Sim_overlap.params ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  estimate
(** Like {!estimate}, with {!Sim_overlap.run}: non-blocking checkpoints. *)

type faults_estimate = {
  summary : estimate;  (** makespan / failures / wasted, as in {!estimate} *)
  corrupt_reads : Wfc_platform.Stats.t;
      (** corrupt checkpoints discovered per run *)
  failed_recoveries : Wfc_platform.Stats.t;
      (** transient recovery failures per run *)
  truncated_runs : int;
      (** runs stopped by the {!Sim_faults.params} [max_failures] valve;
          their makespans are lower bounds, so when this is non-zero the
          summary statistics underestimate the true severity *)
}

val estimate_faults :
  ?runs:int ->
  seed:int ->
  Sim_faults.params ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  faults_estimate
(** Like {!estimate}, on one {!Sim_faults.exec}: checkpoint corruption,
    transient recovery failures and random downtime.

    @raise Invalid_argument if [runs <= 0]. *)

val estimate_parallel :
  ?cancel:Wfc_platform.Cancel.t ->
  ?replica_cost:float ->
  ?runs:int ->
  ?domains:int ->
  seed:int ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  estimate
(** Multicore {!estimate}: splits the runs across [domains] OCaml domains
    (default [Domain.recommended_domain_count () - 1], at least 1), each with
    its own deterministic RNG stream derived from [seed], and merges the
    accumulators. The result is deterministic in [(seed, domains, runs)] —
    and statistically equivalent to, but not bit-identical with, the
    sequential estimate, except at [domains = 1], where it is {!estimate}
    bit for bit. [replica_cost] and [cancel] act as in {!estimate}.

    @raise Invalid_argument if [runs <= 0] or [domains <= 0]. *)

val makespan_samples :
  ?cancel:Wfc_platform.Cancel.t ->
  ?replica_cost:float ->
  ?runs:int ->
  seed:int ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  Wfc_platform.Sample_set.t
(** Like {!estimate} (the same [replica_cost] and [cancel]) but keeping
    every makespan sample, for quantile and
    tail analysis ({!Wfc_platform.Sample_set.quantile}). *)

val agrees_with :
  estimate -> expected:float -> sigmas:float -> bool
(** [agrees_with e ~expected ~sigmas] tells whether [expected] lies within
    [sigmas] standard errors of the sampled mean — the acceptance test used
    to cross-validate the analytic evaluator. *)
