(** Misspecification stress campaigns: how badly does a schedule optimized
    for a nominal platform degrade when the platform lies?

    The paper's schedules are tuned for an exact exponential law, constant
    downtime and flawless checkpoints. Related work shows the relative
    efficiency of restart vs. checkpointing is highly sensitive to the tail
    of the failure law (Sodre, arXiv:1802.07455), so expectation under the
    nominal model is a poor robustness certificate. A campaign re-simulates
    one fixed schedule against a grid of perturbed platforms — wrong MTBF,
    age-dependent (Weibull) hazards, bursty arrivals, random downtime,
    faulty checkpoint machinery — and reports {e tail} statistics (p95/p99)
    and degradation ratios against the nominal analytic expectation.

    Every campaign is deterministic in its seed, and — because each
    simulated run derives its own RNG stream from [(seed, scenario, run)] —
    bit-identical for any number of domains used to parallelize it. *)

type scenario = {
  name : string;
  params : Wfc_simulator.Sim_faults.params;  (** the platform actually simulated *)
}

val shape_laws : mtbf:float -> (string * Wfc_platform.Distribution.t) list
(** The failure laws at mean [mtbf] that differ from the exponential only in
    shape: Weibull shapes 0.7 and 1.5, and a bursty hyperexponential mix
    (90% of gaps at [mtbf / 3], 10% at [7 mtbf]), named ["weibull k=0.7"],
    ["weibull k=1.5"] and ["bursty"]. Both {!default_grid} and
    {!Robust.default_scenarios} draw them from here. *)

val default_grid : Wfc_platform.Failure_model.t -> scenario list
(** The standard perturbation grid around a nominal model: the nominal
    platform itself, MTBF misestimated by 2× and 10× in both directions,
    Weibull shapes bracketing 1 (0.7 and 1.5) at the nominal MTBF, bursty
    hyperexponential arrivals at the nominal MTBF, exponentially distributed
    downtime, silently corrupting checkpoints, flaky recoveries, and one
    hostile combination of the above.

    @raise Invalid_argument if the model is fail-free ([lambda = 0]). *)

type scenario_result = {
  scenario : scenario;
  mean : float;  (** sample mean makespan under the scenario *)
  p95 : float;
  p99 : float;
  mean_degradation : float;  (** [mean /. nominal] analytic expectation *)
  tail_degradation : float;  (** [p99 /. nominal] analytic expectation *)
  divergent : int;
      (** runs stopped by the failure valve: the schedule essentially cannot
          finish under this scenario, and the statistics above are lower
          bounds *)
}

type report = {
  nominal_makespan : float;
      (** analytic expectation of the schedule under the nominal model *)
  results : scenario_result list;  (** one per scenario, input order *)
  robustness : float;
      (** the campaign's summary score: worst (largest) tail degradation
          across the grid — lower is more robust. [infinity] when any
          scenario had divergent runs: their truncated makespans are lower
          bounds, so the ratios are meaninglessly optimistic and the
          schedule must rank below every schedule that finished *)
}

val lane_seed : seed:int -> scenario:int -> run:int -> lane:int -> int
(** The stream of lane [lane] in run [run] of scenario [scenario]; a
    campaign run draws from lane 0, {!Robust}'s replica copies from
    lanes [>= 1]. Runs split over domains draw the same. *)

val evaluate :
  ?replica_cost:float ->
  ?runs:int ->
  ?domains:int ->
  ?max_failures:int ->
  seed:int ->
  nominal:Wfc_platform.Failure_model.t ->
  scenarios:scenario list ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  report
(** [evaluate ~seed ~nominal ~scenarios g s] simulates [runs] (default
    [2000]) executions of [s] under every scenario, splitting the runs of
    each scenario across [domains] OCaml domains (default
    [Domain.recommended_domain_count () - 1], at least 1). The report is
    bit-identical for any [domains].

    [max_failures] (default [10_000]) caps the failures injected per run for
    scenarios that do not set their own cap; runs that hit it are counted as
    [divergent]. Without the valve, a schedule needing [e^{lambda W}]
    attempts under a harsh scenario would hang the campaign.

    Replicated schedules are simulated with the multi-lane fault engine
    ({!Wfc_simulator.Sim_faults.exec}) at [replica_cost] per extra copy, and
    the nominal makespan is the flat kernel's.

    @raise Invalid_argument if [runs <= 0], [domains <= 0],
    [max_failures <= 0] or [scenarios] is empty. *)

type ranked = {
  heuristic : string;  (** e.g. ["DF-CkptW"] *)
  outcome : Wfc_core.Heuristics.outcome;  (** optimized under the nominal model *)
  report : report;
}

val rank :
  ?runs:int ->
  ?domains:int ->
  ?max_failures:int ->
  ?search:Wfc_core.Heuristics.search ->
  ?replication:Wfc_core.Replication.spec ->
  ?replica_cost:float ->
  seed:int ->
  nominal:Wfc_platform.Failure_model.t ->
  scenarios:scenario list ->
  Wfc_dag.Dag.t ->
  (Wfc_dag.Linearize.strategy * Wfc_core.Heuristics.ckpt_strategy) list ->
  ranked list
(** [rank ~seed ~nominal ~scenarios g heuristics] optimizes one schedule per
    heuristic under the nominal model, stress-tests each against the same
    scenario grid and returns the list sorted by increasing {!report}
    [robustness] (most robust first; ties broken by nominal makespan) — the
    ranking by tail behavior the expectation-only comparison cannot give.

    With [replication] (default none), each optimized schedule is
    additionally replicated by {!Wfc_core.Heuristics.replicate} before
    stress-testing, and its name gains a ["+policy"] suffix. *)
