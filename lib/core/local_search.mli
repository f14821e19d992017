(** Local-search refinement of checkpoint placements (an extension beyond
    the paper, enabled by the cheap Theorem 3 evaluator).

    The paper's searched strategies constrain the checkpoint set to a
    one-parameter family (top-N under some criterion). Hill climbing over
    single checkpoint flips explores the full lattice of subsets around a
    seed schedule and quantifies how much the one-parameter restriction
    costs; the ablation bench reports the gain over each seed heuristic. *)

type result = {
  schedule : Schedule.t;  (** the improved schedule (same task order) *)
  makespan : float;
  initial_makespan : float;
  evaluations : int;  (** evaluator calls consumed *)
  flips : int;  (** accepted moves (flag flips and replica-count steps) *)
}

val improve :
  ?max_evaluations:int ->
  ?replica_cost:float ->
  ?max_replicas:int ->
  ?engine:Flat_engine.t ->
  ?cancel:Wfc_platform.Cancel.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Schedule.t ->
  result
(** [improve model g s] performs first-improvement hill climbing on the
    checkpoint flags of [s] (the linearization is kept): repeatedly sweep all
    tasks, flip any single flag that lowers the expected makespan, until a
    full sweep yields no improvement or [max_evaluations] (default [4000])
    evaluator calls have been spent. The result never degrades the seed.

    When [s] is replicated, or [max_replicas] is given, the move set also
    includes per-task replica-count steps ([+1] up to [max_replicas],
    default [max 4 (max_replica_count s)]; [-1] down to a single copy),
    each extra copy surcharged at [replica_cost].

    Every move is scored on one {!Flat_engine} ({!Flat_engine.flip} or
    {!Flat_engine.set_replicas}), so it costs a suffix re-evaluation
    instead of a full one. The reported [makespan] and [initial_makespan]
    are the kernel's own scores: bitwise the value a fresh {!Flat_engine}
    gives the returned (resp. seed) flags and replicas, within ~1e-15
    relative of the oracle unreplicated and 1e-12 replicated.

    [engine] supplies a {!Flat_engine} already bound to [(g, order)] of
    [s] — the serving layer passes the warm engine its heuristic sweep just
    used, so the climb skips a second engine build. {!Flat_engine.bind}
    rebinds it to the model and the seed's flags and replicas; every query
    is a pure function of those, so the reported values stay bitwise those
    of a fresh engine. It is left holding the returned schedule's vectors.

    [cancel] (default {!Wfc_platform.Cancel.never}) is polled once per
    candidate move; a cancelled token aborts the climb with
    {!Wfc_platform.Cancel.Cancelled} instead of returning a partial result.

    @raise Invalid_argument if [max_replicas] is outside
      [1..Schedule.max_replicas], or if [engine] is bound to another order
      than [s]'s or another [replica_cost]. *)
