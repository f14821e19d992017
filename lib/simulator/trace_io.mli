(** Deterministic failure-trace record/replay.

    A trace captures the exact draws a failure {!Sim.source} handed to an
    execution engine, so that the same failure sequence can be re-examined
    offline or scored against a different policy. Two kinds exist because
    determinism and policy-independence pull in opposite directions:

    - {e attempts} traces log, per segment attempt, what [time_to_failure]
      returned and (on failure) the downtime that followed. Replaying one
      against the {b same} schedule reproduces the original run bit for bit
      — for memoryless {!Sim.run}, countdown-based {!Sim.renewal_source} and
      the failure process of {!Sim_faults} alike, because the engine
      sees the identical float at every decision point. Replaying against a
      schedule that makes different survive/fail decisions raises
      {!Divergence}: the recorded process is conditioned on the original
      attempt boundaries.
    - {e renewal} traces log the raw renewal draws — inter-failure uptimes
      and per-failure downtimes in platform time — which are independent of
      the schedule being executed. Any two policies replayed on one renewal
      trace face byte-identical failure sequences: it holds the very draws
      a {!Sim.renewal_source} lane on the same RNG stream makes, which is
      how {!Wfc_resilience.Robust} scoring is checked against its live
      lanes. Beyond the last recorded failure the replayed platform
      is failure-free; the [exhausted] flag reports when a run actually
      consumed past the recorded horizon (choose [min_uptime] generously).

    On disk a trace is JSONL: a versioned header line followed by one event
    per line, floats encoded as hexadecimal literals ([%h]) so the loader
    restores them bit-exactly. The loader validates the header, the event
    grammar and every float. *)

type attempt =
  | Survived of float
      (** the inter-failure draw; at least as long as the segment it let
          through (infinite for a fail-free platform) *)
  | Failed of { after : float; downtime : float }
      (** the segment failed [after] seconds in; repair took [downtime] *)

type t =
  | Attempts of attempt array
  | Renewal of { uptimes : float array; downtimes : float array }
      (** raw draws in platform time: [uptimes.(0)] at start, then after
          failure [i] repair takes [downtimes.(i)] and the clock restarts
          at [uptimes.(i + 1)] — so [length uptimes = length downtimes + 1] *)
  | Replicated of { events : attempt array; replicas : int array }
      (** attempts-kind events of a replicated run ({!Sim.run_with_lanes}):
          one event per {e live copy} of every attempt, interleaved in the
          engine's strict lane order, plus the per-task replica counts the
          run executed with — replay refuses any other counts, since the
          same stream sliced by different counts would attribute events to
          the wrong copies *)

val version : int
(** Current on-disk format version. *)

val kind_name : t -> string
(** ["attempts"], ["renewal"] or ["attempts-replicated"], as written in the
    header. *)

val n_events : t -> int
(** Number of event lines the trace serializes to. *)

val n_failures : t -> int
(** Failures the trace contains. *)

exception Divergence of string
(** Raised during attempts-kind replay when the executing schedule makes a
    survive/fail decision that contradicts the recorded one. *)

(** {1 Recording} *)

type recorder
(** Accumulates attempts-kind events from a wrapped source. *)

val recorder : unit -> recorder

val recording_source : recorder -> Sim.source -> Sim.source
(** Pass-through wrapper that logs one {!attempt} per segment attempt.
    Relies on the engine call order documented on {!Sim.source}. *)

val recorded : recorder -> t
(** The events logged so far, as an attempts-kind trace. *)

val record_run :
  ?replica_cost:float ->
  rng:Wfc_platform.Rng.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  Sim.run * t
(** {!Sim.run} with its draws captured as an attempts-kind trace. A
    replicated schedule runs through {!Sim.run_with_lanes} with every lane
    recorded into one stream, yielding a [Replicated] trace. *)

val record_renewal :
  rng:Wfc_platform.Rng.t ->
  failures:Wfc_platform.Distribution.t ->
  downtime:Wfc_platform.Distribution.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  Sim.run * t
(** A renewal execution (on a {!Sim.renewal_source} lane, with
    distribution-drawn downtime) whose raw draws are captured as a
    renewal-kind trace.

    @raise Invalid_argument on a replicated schedule: its lanes are
      separate renewal processes, which a single renewal stream cannot
      represent — use {!record_run}. *)

val of_events : downtime:float -> Sim_trace.event list -> t
(** Reconstruct an attempts-kind trace from a {!Sim_trace.run} event log
    (whose downtime is the model's constant). Completed attempts replay as
    [Survived infinity] — bit-identical, since on success the draw never
    enters the makespan arithmetic.

    @raise Invalid_argument if [downtime] is negative or the log is not a
    chronological attempt/outcome sequence. *)

val draw_renewal :
  rng:Wfc_platform.Rng.t ->
  failures:Wfc_platform.Distribution.t ->
  downtime:Wfc_platform.Distribution.t ->
  min_uptime:float ->
  t
(** A standalone renewal-kind trace, independent of any execution: draws
    uptime/downtime pairs until cumulative uptime reaches [min_uptime].
    Replaying it is failure-free beyond that horizon, so pick [min_uptime]
    well above any plausible makespan and check {!replay_state.exhausted}.

    @raise Invalid_argument if [min_uptime] is not positive and finite. *)

(** {1 Replay} *)

type replay_state = {
  source : Sim.source;  (** feed to {!Sim.run_with_source} or any engine *)
  exhausted : unit -> bool;
      (** [true] once the run needed draws beyond the recorded horizon *)
}

val replay_source : t -> replay_state
(** A fresh source that serves the recorded draws in order. Each call
    starts from the beginning of the trace. *)

val replay :
  ?replica_cost:float -> t -> Wfc_dag.Dag.t -> Wfc_core.Schedule.t -> Sim.run
(** [Sim.run_with_source] on a fresh {!replay_source}. For an attempts
    trace recorded from the same schedule this reproduces the original
    {!Sim.run} result bit for bit. A [Replicated] trace replays through
    {!Sim.run_with_lanes}, every lane served by the single shared cursor —
    exact because the engine polls lanes in the recorded order.

    @raise Divergence as documented above; also when a [Replicated] trace
      meets a schedule whose replica counts differ from the recorded ones,
      or when an [Attempts]/[Renewal] trace (one failure lane) meets a
      replicated schedule. *)

(** {1 Serialization} *)

val to_string : t -> string
(** The JSONL document: header line plus one line per event. *)

val of_string : string -> (t, string) result
(** Parse and validate; the error names the offending line. *)

val save : string -> t -> unit
(** Write {!to_string} to a file. *)

val load : string -> (t, string) result
(** Read and {!of_string} a file; I/O errors come back as [Error]. *)
