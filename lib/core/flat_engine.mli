(** Incremental makespan evaluation for checkpoint search: the one
    evaluation engine behind every search.

    {!Evaluator.evaluate} recomputes the full Theorem 3 recurrence — and the
    whole {!Lost_work} matrix — from scratch on every call. This engine
    binds a fixed [(model, dag, order)] triple and keeps both the replay
    matrix and the recurrence state cached, so a one-flag change costs only
    the suffix it can affect:

    - replay row [k] depends only on the flags of tasks at positions [< k],
      so flipping the task at position [p] invalidates rows [> p] — and only
      those up to a reachability bound computed from the DAG;
    - position [i] of the recurrence depends only on flags at positions
      [<= i], so evaluation restarts at [p] from a snapshot instead of from
      position 0.

    The hot state is laid out for the machine instead of the garbage
    collector:

    - the replay matrix, per-row survival products, snapshots and prefix
      sums live on contiguous [Bigarray.float64] buffers; the matrix is
      stored transposed, column by column, so the step-[i] fault-row loop
      walks one contiguous span. Column [i] keeps only its skyline, the
      fault rows [k] from the position after its task's earliest direct
      predecessor (at the latest [i - 1]) up to [i]: every entry of an
      earlier row is a structural zero that the kernel never reads or
      writes;
    - each matrix entry carries its two cached [expm1] transforms, filled by
      a batched row-wise sweep ({!Wfc_platform.Failure_model.expm1_span}) at
      row-rebuild time, so the recurrence inner loop — the code executed
      millions of times per search — performs no transcendental call at all;
    - every scratch (DFS stacks, staging rows, float/int accumulator slots)
      is preallocated: the steady-state {!flip_quiet} / {!set_flags} /
      {!prefix_makespan} path allocates nothing, which the micro bench
      asserts in minor words per flip.

    The expectation inner loop uses an [expm1]-based rearrangement of the
    oracle's formula, so results equal {!Evaluator.expected_makespan} only
    up to floating-point rearrangement — pinned at [1e-9] by the
    differential suites and at [1e-12] by [FIG=scale] — not bit for bit.
    The flat searches report these values as they are.

    Replicated schedules (DESIGN §11) run here too: replays charge
    effective weights, and only a task with [r > 1] copies takes a scalar
    step, so all-ones replicas keep the unreplicated bits; replicated values
    agree with {!Replication.recurrence} to [1e-12] relative.

    For a fixed engine, every query is a pure function of the current flag
    and replica vectors: any interleaving of {!flip}, {!set_flags},
    {!set_flag_at}, {!set_replicas} and {!rollback} ending in the same
    vectors yields results bit-identical to a fresh engine created with
    them. *)

type t

val create :
  ?flags:bool array ->
  ?replicas:int array ->
  ?replica_cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  t
(** [create model g ~order] builds an engine for the given linearization,
    with no checkpoints and one copy per task unless [flags] and [replicas]
    (indexed by task id, copied) say otherwise; extra copies are
    surcharged at [replica_cost] (default {!Replication.default_cost}).
    All caches cold; the first query pays one full evaluation (and the
    batched transform fill).

    @raise Invalid_argument if [order] is not a linearization of [g],
      [flags] or [replicas] has the wrong length, a count is outside
      [1..Schedule.max_replicas], or [replica_cost] is negative. *)

val bind :
  ?engine:t ->
  ?flags:bool array ->
  ?replicas:int array ->
  ?replica_cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  t
(** The engine a search over [(model, g, order)] runs on: [engine]
    rebound by {!set_model} (and {!set_flags}, given [flags]) and set to
    [replicas] (all-ones when absent), else {!create} — bit-identical
    answers either way.

    @raise Invalid_argument if [engine] is bound to another order or
      surcharge, or on the conditions of {!create}. *)

val dag : t -> Wfc_dag.Dag.t
(** The workflow the engine was created for (shared, not copied): a warm
    engine carries its own DAG, so a cache hit needs no regeneration. *)

val order : t -> int array
val flags : t -> bool array
val replicas : t -> int array
(** Copies of the bound order and the current flag and replica vectors. *)

val checkpoint_count : t -> int
(** Number of tasks flagged in the current vector; allocates nothing. *)

val model : t -> Wfc_platform.Failure_model.t

val set_model : t -> Wfc_platform.Failure_model.t -> unit
(** Rebinds the failure model. Replay values are model-independent and all
    survive; the cached transforms are refreshed by one batched sweep over
    the whole triangle on the next query (no row recomputation). *)

val makespan : t -> float
(** Expected makespan under the current flags. Lazy: cost is proportional
    to the dirty suffix, [O(1)] when nothing changed since the last
    query. *)

val prefix_makespan : t -> upto:int -> float
(** [prefix_makespan t ~upto] is the sum of [E(X_i)] for positions
    [i < upto] — the exact prefix cost used by branch-and-bound. Only
    validates caches up to [upto], so a depth-[i] tree node pays [O(n)]
    instead of a full evaluation.

    @raise Invalid_argument unless [0 <= upto <= n]. *)

val suffix_makespan : t -> from:int -> float
(** [suffix_makespan t ~from] is the sum of [E(X_i)] for positions
    [i >= from] — the objective of a suffix replan: candidates sharing the
    prefix flags differ only in these terms.

    @raise Invalid_argument unless [0 <= from <= n]. *)

val per_position : t -> float array
(** [E(X_i)] by position, as {!Evaluator.per_position}. Fresh copy. *)

val fault_probability : t -> float array
(** [P(F(X_i))] by position, as {!Evaluator.fault_probability}. Fresh
    copy. *)

val flip : t -> int -> float
(** [flip t v] toggles task [v]'s flag and returns the new makespan. *)

val flip_quiet : t -> int -> unit
(** {!flip} without the boxed float return: the engine is revalidated (read
    the result with {!current_makespan}), and the whole path — reach
    refresh, row rebuilds, batched transforms, recurrence steps — allocates
    nothing. This is the steady-state search move. *)

val current_makespan : t -> float
(** The makespan computed by the last completed full-horizon validation.
    Only meaningful immediately after {!flip_quiet}, {!makespan} or
    {!suffix_makespan}; does not itself validate anything. *)

val set_flag_at : t -> pos:int -> bool -> unit
(** [set_flag_at t ~pos b] sets the flag of the task at position [pos]
    without forcing any recomputation, invalidating conservatively (all rows
    past [pos]). Meant for the branch-and-bound cursor, which only ever asks
    for {!prefix_makespan} at horizons where the conservative and exact
    invalidation agree. *)

val set_flags : t -> bool array -> unit
(** [set_flags t target] flips whatever differs between the current vector
    and [target] (indexed by task id). Lazy like {!set_flag_at}. *)

val set_replicas : t -> int -> int -> unit
(** [set_replicas t v r] gives task [v] [r] copies; lazy like
    {!set_flags}. @raise Invalid_argument if [v] is not a task or [r] is
    outside [1..Schedule.max_replicas]. *)

val commit : t -> unit
(** Makes the current flags the rollback point. *)

val rollback : t -> unit
(** Restores the flags of the last {!commit} (or the creation flags),
    invalidating only the span touched since then; replica counts stay. *)

val lost_entry : t -> last_fault:int -> position:int -> float
(** [lost_entry t ~last_fault:k ~position:i] is the replay value the kernel
    holds for fault row [k] at position [i] (validating rows up to [i]
    first) — bit-identical to {!Lost_work.replay_time} on the same flags,
    including the structural zeros below the column's stored skyline. Test
    and introspection hook, not a hot-path API.

    @raise Invalid_argument unless [0 <= k <= i < n]. *)
