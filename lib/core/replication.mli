(** Task replication as a second resilience axis.

    A task with [r > 1] replicas runs [r] independent copies of every attempt
    (initial execution and post-failure retries alike), each copy exposed to
    its own exponential failure clock at the platform rate. The attempt is
    lost only when {e all} [r] copies fail inside it — with probability
    [(1 - e^{-lambda t})^r] for an attempt of length [t] — and the loss is
    charged at the death of the last copy. In exchange, the task's execution
    time carries a per-extra-replica surcharge [cost] (resource price of the
    duplicated work); checkpoint writes and recovery reads are shared and
    stay unscaled.

    With all replica counts equal to 1 every formula below degenerates to the
    paper's model. {!recurrence} is the library's Theorem 3 oracle, with no
    production caller: searches score replicated schedules on
    {!Flat_engine}, and the tests check it against this. *)

val default_cost : float
(** Default per-extra-replica execution surcharge (1.0: each extra copy
    costs one full execution of the task). *)

val effective_weight : cost:float -> weight:float -> r:int -> float
(** [weight *. (1. +. cost *. float (r - 1))] — the execution time a task
    occupies on the platform once its [r - 1] extra copies are priced in.
    For [r = 1] this is exactly [weight].

    @raise Invalid_argument if [cost] is negative or NaN. *)

(** {1 Per-attempt failure algebra} *)

val attempt_failure_probability : lambda:float -> r:int -> float -> float
(** [attempt_failure_probability ~lambda ~r t] is
    [(1 - e^{-lambda t})^r], the probability that an attempt of length [t]
    protected by [r] replicas is lost (all copies fail inside it). [0.] when
    [lambda = 0] or [t <= 0]. *)

val attempt_survival : lambda:float -> r:int -> float -> float -> float
(** [attempt_survival ~lambda ~r t q] is [1 - q] for
    [q = attempt_failure_probability ~lambda ~r t]; past [q = 1/2] it is
    summed as [e^{-lambda t} (1 + p + ... + p^{r-1})],
    [p = 1 - e^{-lambda t}], which keeps its relative precision when the
    attempt is almost surely lost. *)

val expected_attempt_time :
  lambda:float ->
  downtime:float ->
  r:int ->
  work:float ->
  checkpoint:float ->
  recovery:float ->
  float
(** Replicated generalization of the paper's Eq (1): the expected time for
    [r]-replicated attempts to complete [work] seconds plus a [checkpoint]
    write, every post-failure retry preceded by [recovery] and one constant
    [downtime] repair per loss. Reduces algebraically to
    {!Wfc_platform.Failure_model.expected_exec_time} at [r = 1]; the retry
    term divides by the attempt survival ({!attempt_survival}), so
    it stays accurate when a retry almost surely fails. May return
    [infinity] when a retry can never succeed at the float level. *)

(** {1 Theorem 3 evaluation} *)

type result = {
  makespan : float;  (** expected makespan E[M] = sum of E[X_i] *)
  per_position : float array;  (** E[X_i] per schedule position *)
  fault_probability : float array;
      (** [fault_probability.(k)] = P(last effective fault strikes in the
          interval of position [k]) as seen by the final virtual step *)
}

val recurrence :
  ?lost:Lost_work.t ->
  ?cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Schedule.t ->
  result
(** [recurrence model g sched] runs the Theorem 3 dynamic program on a
    (possibly) replicated schedule: per-task effective weights via
    {!effective_weight} (the lost-work matrix included — replayed tasks
    re-run with their replicas), per-attempt expectations via
    {!expected_attempt_time}, and separating-segment survival summed as
    exposures whose exponential is {!attempt_survival}. An "effective
    fault" is an attempt in which all
    replicas of the executing task died. [cost] defaults to
    {!default_cost}; the replay sums are computed unless [lost] provides
    them. Tasks with one replica take the paper's closed forms
    ({!Wfc_platform.Failure_model.expected_exec_time}, plain work sums), so
    an unreplicated schedule gets the same bits whatever [cost] is.

    It counts nothing: its two entry points are {!evaluate} and
    {!Evaluator.evaluate}, each with its own counter, so every evaluation
    is counted once.

    @raise Invalid_argument if [lost] is given with a replicated schedule
    (the matrix must be recomputed over surcharged weights) or covers fewer
    positions than [sched], or if [cost] is negative. *)

val evaluate :
  ?cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Schedule.t ->
  result
(** [evaluate model g sched] is {!recurrence} without precomputed replay
    sums, the replicated oracle's test entry point. Every call, replicated
    schedule or not, adds one to the [repl.evaluations] counter of
    {!Wfc_obs.Metrics}.

    @raise Invalid_argument if [cost] is negative. *)

(** {1 Replication specs (CLI / heuristics surface)} *)

type spec =
  | Auto  (** pick a sensible default: [Budget 0.2] *)
  | No_replication  (** all replica counts 1 *)
  | Heavy of int  (** [r = 2] on the [k] heaviest checkpoint-worthy tasks *)
  | Budget of float
      (** greedily spend up to [f * total_weight] of extra execution by
          marginal expected-makespan gain per unit of surcharge *)

val spec_of_string : string -> spec option
(** Parses ["auto" | "none" | "k:N" | "budget:F"] (case-insensitive);
    [None] on nonsense, [N >= 1], [F > 0] finite. *)

val spec_name : spec -> string
