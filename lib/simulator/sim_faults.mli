(** Fault injection beyond the paper's model: the checkpoint/recovery
    machinery itself can fail.

    {!Sim} trusts the platform: checkpoints always land intact, recoveries
    always read back, downtime is a constant. This engine relaxes all three,
    in the spirit of replication/checkpointing systems that must detect and
    fall back from failed checkpoint operations (Setlur et al.,
    arXiv:1810.06361):

    - a completed checkpoint is {e silently corrupt} with probability
      [p_ckpt_fail]. Corruption is only discovered when a recovery reads the
      checkpoint: the read is charged, the checkpoint is discarded, and the
      task is recomputed from its own surviving ancestors (recursively —
      falling back to the previous surviving checkpoint, or to full
      re-execution when none survives);
    - each recovery read fails transiently with probability [p_rec_fail] and
      is retried (every attempt is charged its recovery cost);
    - downtime after a platform failure is drawn from an arbitrary
      {!Wfc_platform.Distribution.t} instead of being constant.

    Corruption is a property of the stored checkpoint, decided once at write
    time; a discovery therefore persists (the checkpoint stays discarded)
    even when a platform failure aborts the segment that made it.

    {b Equivalence guarantee}: with [p_ckpt_fail = p_rec_fail = 0],
    [downtime = Constant d] and [failures = Exponential lambda], a run of
    {!exec} on {!source_of_params} lanes makes exactly the same RNG draws
    as {!Sim.run} on the model
    [{ lambda; downtime = d }] and returns bit-identical results — enforced
    by a property test. Non-exponential failure laws run as a renewal
    process ({!Sim.renewal_source}). *)

type params = {
  failures : Wfc_platform.Distribution.t;
      (** inter-arrival law of platform failures. [Exponential] draws fresh
          per attempt (memoryless, matches {!Sim.run}); other laws renew on
          repair *)
  downtime : Wfc_platform.Distribution.t;  (** per-failure repair time *)
  p_ckpt_fail : float;  (** silent checkpoint corruption probability *)
  p_rec_fail : float;  (** transient recovery read failure probability *)
  max_failures : int;
      (** safety valve for divergent runs; [0] means unlimited. Under a
          grossly misspecified platform a schedule with too few checkpoints
          needs [e^{lambda W}] attempts — finite in expectation, astronomic
          in wall-clock. A run that injects this many failures stops early
          and comes back [truncated] (its makespan is then a lower bound) *)
}

val nominal : Wfc_platform.Failure_model.t -> params
(** The paper's platform as fault-injection parameters: exponential failures
    at the model's rate, constant downtime, no checkpoint/recovery faults,
    no failure cap.

    @raise Invalid_argument if the model is fail-free ([lambda = 0]). *)

val source_of_params : rng:Wfc_platform.Rng.t -> params -> Sim.source
(** The failure lane of [params]: memoryless per-attempt draws for
    [Exponential] — {!Sim.source_of_model}'s
    lane when the downtime is [Constant] — a renewal countdown otherwise,
    downtime sampled per failure. *)

val exec :
  ?replica_cost:float ->
  rng:Wfc_platform.Rng.t ->
  params ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  Sim.exec
(** The fault engine's executor, reusable across runs ({!Sim.execute}
    resets it): {!Sim.exec} with the checkpoint faults of [params], drawn
    from [rng]. Replicated schedules run on one lane per copy; a
    checkpointing task with [r] replicas writes [r] copies, each
    independently corrupt, and a recovery read tries them in write order
    and recomputes only when all are corrupt. With all replica counts 1
    this is the unreplicated engine, draw for draw.

    @raise Invalid_argument if [p_ckpt_fail] is outside [\[0, 1\]],
    [p_rec_fail] outside [\[0, 1)] (a certain recovery failure would never
    terminate) or [max_failures < 0]. *)

