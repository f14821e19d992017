(** Event-traced simulation: {!Sim.run} with an observer recording a
    timeline of what happened — useful to inspect individual
    runs, to debug recovery semantics, and to illustrate the execution model
    in documentation. *)

type event =
  | Attempt of {
      position : int;
      task : int;
      start : float;
      replay : float;  (** replay work (recoveries + recomputation) *)
      work : float;  (** total segment: replay + weight + checkpoint *)
    }  (** a segment attempt begins *)
  | Completion of {
      position : int;
      task : int;
      time : float;
      checkpointed : bool;
    }  (** the attempt succeeded; the task's output is in memory *)
  | Failure of {
      position : int;
      task : int;
      time : float;  (** instant of the failure (before downtime) *)
      elapsed : float;  (** time lost in the aborted attempt *)
    }  (** a failure struck during the attempt; memory is wiped *)

val run :
  rng:Wfc_platform.Rng.t ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  Wfc_core.Schedule.t ->
  Sim.run * event list
(** One simulated execution with its full event log (chronological). The
    [Sim.run] summary is identical to what {!Sim.run} would return for the
    same random draws. *)

val pp_event : Format.formatter -> event -> unit
(** e.g. ["\[  12.3s\] FAIL    during T4 (pos 3), 5.1s lost"]. *)

val render_timeline : ?width:int -> event list -> string
(** ASCII Gantt strip of a run: one lane per schedule position, time on the
    horizontal axis ([width] columns, default 72). Successful attempt spans
    print as [=], aborted spans as [.], failures as [x]:

    {v
    pos  0 T3 |===x..====                                    |
    pos  1 T1 |          =====                               |
    v} *)
