(** Discrete-event fault injection: executes a schedule once against randomly
    drawn failures, reproducing the paper's recovery semantics exactly.

    State: the set of task outputs currently in memory (all lost on every
    failure) and the set of checkpoints on stable storage (never lost, only
    appended when a checkpointed task's segment completes). Each position of
    the linearization is executed as a segment — replay of lost, still-needed
    ancestors (recoveries for checkpointed ones, recomputation for the rest),
    the task's own work and its optional checkpoint. A failure inside the
    segment wipes memory, costs the elapsed time plus the downtime, and the
    segment restarts from the surviving checkpoints.

    One executor ({!execute}) implements that loop. Everything else in this
    library is a way of feeding it failures ({!source} lanes), of perturbing
    its checkpoint machinery ({!faults}), or of watching it ({!observer}):
    {!Sim_faults}, {!Sim_trace}, {!Sim_breakdown}, {!Sim_adaptive},
    {!Trace_io} and {!Monte_carlo} all run through it.

    Cross-validating the mean of many runs against {!Wfc_core.Evaluator} is
    the strongest correctness argument for both implementations. *)

type run = {
  makespan : float;  (** total simulated execution time *)
  failures : int;  (** number of failures injected *)
  wasted : float;  (** time spent on lost attempts, downtime and replays *)
}

type law
(** How {!execute} draws from a lane: itself, by their closures' rules,
    for {!source_of_model} and {!renewal_source} lanes; through the
    closures for every other lane. *)

type source = private {
  time_to_failure : unit -> float;
      (** time until the next failure, measured from now; [infinity] means
          the current segment cannot fail *)
  consume : float -> unit;
      (** [consume dt]: [dt] seconds elapsed without a failure (lets renewal
          processes age their countdown; memoryless sources ignore it) *)
  next_downtime : unit -> float;  (** drawn once per failure *)
  after_failure : unit -> unit;
      (** the repair renews the process; called {e after} [next_downtime] —
          the executor and every recording wrapper rely on that call order *)
  law : law;  (** lanes of recording and replaying wrappers: by closures *)
}
(** A failure environment as seen by the executor: one failure lane. The
    type is private so that [law] cannot disagree with the closures: build
    lanes with {!source_of_model}, {!renewal_source} or {!custom_source}. *)

val custom_source :
  time_to_failure:(unit -> float) ->
  consume:(float -> unit) ->
  next_downtime:(unit -> float) ->
  after_failure:(unit -> unit) ->
  source
(** A lane driven by the given closures, called in the order documented
    above. *)

val source_of_model : rng:Wfc_platform.Rng.t -> Wfc_platform.Failure_model.t -> source
(** Memoryless exponential failures with constant downtime: a fresh
    inter-arrival draw per attempt, which is exact for the exponential law
    ([infinity], never failing, when [lambda = 0]). *)

val renewal_source :
  rng:Wfc_platform.Rng.t ->
  failures:Wfc_platform.Distribution.t ->
  downtime:Wfc_platform.Distribution.t ->
  source
(** Renewal failures: a countdown drawn at creation and after every
    repair's downtime draw, consumed by successful segments in between.
    For an exponential law this is statistically {!source_of_model}; for
    Weibull and other age-dependent laws it is the meaningful model. *)

(** {1 The executor} *)

type faults = {
  p_ckpt_fail : float;
      (** each checkpoint copy is silently corrupt with this probability,
          decided when it is written *)
  p_rec_fail : float;
      (** each recovery read fails transiently (and is retried, charged
          again) with this probability *)
  max_failures : int;
      (** stop the run after this many failures; [0] means never *)
  rng : Wfc_platform.Rng.t;  (** draws the fault bernoullis *)
}
(** Faults of the checkpoint machinery itself ({!Sim_faults} documents the
    model). A zero probability consumes no draws, so the default — no
    faults — is the paper's platform. *)

type exec
(** An executor for one (DAG, schedule) pair: the platform state, the replay
    walk's scratch, the run's counters and the slot a memoryless draw is
    stored into, allocated once and reused by every run. No attempt
    allocates an array or clears one: memory is wiped and the walk's
    visited set cleared by bumping a stamp. An [exec] is not shared between
    domains. *)

val exec :
  ?replica_cost:float ->
  ?faults:faults ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  exec
(** The executor for [sched]. Replicated tasks run with work surcharged by
    {!Wfc_core.Replication.effective_weight} at [replica_cost] (default
    {!Wfc_core.Replication.default_cost}); checkpoint and recovery costs are
    shared, unscaled.

    @raise Invalid_argument if [sched] and the DAG differ in size. *)

type observer = {
  on_attempt : exec -> unit;  (** a segment attempt begins *)
  on_success : exec -> unit;  (** it completed; {!position} not yet advanced *)
  on_failure : exec -> unit;
      (** every copy failed; memory is already wiped and the clock
          advanced past the downtime *)
}
(** Hooks the executor calls at each step. They read the state through the
    accessors below; {!Sim_adaptive}'s failure hook may also {!replan}. *)

val silent : observer
(** Ignores everything. {!execute} does not call a hook that is still
    [silent]'s, so [{ silent with on_failure }] costs nothing on attempts
    and successes. *)

val execute :
  ?observer:observer ->
  ?cancel:Wfc_platform.Cancel.t ->
  exec ->
  source array ->
  unit
(** One run from a fresh platform. The task at each position runs
    {!Wfc_core.Schedule.replicas_of} independent copies, copy [j] drawing
    from [lanes.(j)]. Lanes are polled in ascending order, each lane's
    outcome fully resolved (consume, or downtime + renewal) before the next
    lane is queried — which makes a single recorded stream replay
    deterministically. An attempt is lost only when {e every} copy fails,
    charged at the last copy's death plus that copy's downtime; an attempt
    that lost copies but survived counts toward [sim.replica_saves]. With
    one lane this is the single-source engine, draw for draw.

    On memoryless and renewal lanes ({!law}), with hooks left at
    {!silent}'s and no checkpoint {!faults}, an attempt makes no indirect
    call and allocates nothing (a renewal repair boxes its two draws).
    Other lanes are queried through their closures.

    [cancel] is polled at the start of the run and at every 16th failure
    (an armed token reads the clock), so both a diverging run and a long
    series of short runs can be stopped. The [sim.*] metrics are
    flushed once, at the end of the run.

    @raise Invalid_argument with fewer lanes than
      {!Wfc_core.Schedule.max_replica_count}.
    @raise Wfc_platform.Cancel.Cancelled when [cancel] fires. *)

val result : exec -> run
(** The summary of the last run. *)

(** {2 Views for observers}

    The attempt in flight: {!position}, {!task}, {!checkpointing}; the
    clock ({!time}) and the clock when the attempt began ({!start}); the
    segment's parts — {!replay_time}, of which {!recovery_time} is
    checkpoint reads (retried ones included) and the rest recomputation,
    and {!segment} = replay + {!work} + checkpoint. At a failure, {!lost}
    is the time into the attempt and {!downtime} the repair that followed.

    The run so far: {!failures} counts lost attempts, {!lane_failures} lost
    copies (every copy's death is an observed platform failure),
    {!exposure} the censored uptime summed over copies (the segment for a
    survivor, the time to death for a lost copy) and {!downtime_total} the
    repairs of lost copies — the sufficient statistics of the exponential
    MLE. {!corrupt_reads}, {!failed_recoveries} and {!truncated} report the
    {!faults}. *)

val position : exec -> int
val task : exec -> int
val checkpointing : exec -> bool
val time : exec -> float
val start : exec -> float
val replay_time : exec -> float
val recovery_time : exec -> float
val segment : exec -> float
val work : exec -> int -> float
val lost : exec -> float
val downtime : exec -> float
val failures : exec -> int
val lane_failures : exec -> int
val exposure : exec -> float
val downtime_total : exec -> float
val corrupt_reads : exec -> int
val failed_recoveries : exec -> int
val truncated : exec -> bool

val order : exec -> int array
(** A copy of the plan's position -> task order. *)

val flags : exec -> bool array
(** A copy of the plan's per-task checkpoint flags. *)

val replan : exec -> order:int array -> flags:bool array -> unit
(** Replace the plan from the current position on (the caller keeps the
    executed prefix intact). The rewrite persists into later runs of this
    executor.

    @raise Invalid_argument if [order] names a task outside the DAG. *)

(** {2 The replay walk, for engines with their own time advance}

    {!Sim_overlap} advances time through a background checkpoint channel,
    so it drives the platform state itself. The functions that take a task
    raise [Invalid_argument] when it is outside the DAG. *)

val reset : exec -> unit
(** A fresh platform: nothing in memory or on disk. *)

val replay : exec -> int -> float
(** Replay cost for executing task [v] now: recover lost checkpointed
    ancestors, recompute lost plain ones (recursively, at their effective
    weight), depth first in predecessor order. Notes the outputs it brings
    back, for {!restore}. *)

val restore : exec -> int -> unit
(** [v]'s segment completed: its output, and everything the last {!replay}
    brought back, is in memory. *)

val store : exec -> int -> unit
(** [v]'s checkpoint copies land on disk. *)

val wipe : exec -> unit
(** A failure: every in-memory output is lost; disk survives. *)

(** {1 Entry points} *)

val run_with_source : source -> Wfc_dag.Dag.t -> Wfc_core.Schedule.t -> run
(** One run against a single failure source. {!Trace_io} wraps a [source]
    to record or replay the exact draws.

    @raise Invalid_argument on a replicated schedule — replicas need one
      failure lane per copy ({!run_with_lanes}); running them against a
      single source would silently under-protect them. *)

val run_with_lanes :
  ?replica_cost:float ->
  source array ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  run
(** One run of {!execute} on the given lanes. [run_with_lanes [| s |]] on
    an unreplicated schedule is {!run_with_source}.

    @raise Invalid_argument with fewer lanes than
      {!Wfc_core.Schedule.max_replica_count}. *)

val lanes : Wfc_core.Schedule.t -> (unit -> source) -> source array
(** [lanes sched make] is one lane per copy, made in lane order. *)

val model_lanes :
  rng:Wfc_platform.Rng.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_core.Schedule.t ->
  source array
(** One memoryless lane per copy, all drawing from [rng] — what {!run}
    executes against. *)

val renew : source array -> unit
(** Redraws, in lane order, the countdown of every {!renewal_source}
    lane, as a fresh lane does: lanes renewed between runs draw what fresh
    lanes per run would. Other lanes keep no state between runs. *)

val run :
  ?replica_cost:float ->
  rng:Wfc_platform.Rng.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  run
(** One simulated execution. With [lambda = 0] the result is
    deterministic: the failure-free time plus all checkpoint costs. *)

