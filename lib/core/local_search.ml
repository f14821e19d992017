type result = {
  schedule : Schedule.t;
  makespan : float;
  initial_makespan : float;
  evaluations : int;
  flips : int;
}

module Metrics = Wfc_obs.Metrics

let m_runs = Metrics.counter "ls.runs"
let m_sweeps = Metrics.counter "ls.sweeps"
let m_moves_tried = Metrics.counter "ls.moves_tried"
let m_moves_accepted = Metrics.counter "ls.moves_accepted"

(* Flushed once per improve call, after the search loop. *)
let record_metrics ~sweeps r =
  if Metrics.enabled () then begin
    Metrics.incr m_runs;
    Metrics.add m_sweeps sweeps;
    Metrics.add m_moves_tried r.evaluations;
    Metrics.add m_moves_accepted r.flips
  end;
  r

(* Replica-aware hill climbing: the move set adds per-task replica-count
   steps (+1 up to the cap, -1 down to a single copy) next to the flag
   flips. Every candidate is scored by Replication.evaluate — the flat
   kernel does not support replica moves — so this path is only taken for
   replicated seeds or when replica moves are requested. *)
let improve_replicated ~max_evaluations ~replica_cost ~max_replicas ~cancel
    model g seed =
  Wfc_obs.Trace.with_span "local_search.improve"
    ~args:[ ("backend", "replicated") ]
  @@ fun () ->
  let n = Schedule.n_tasks seed in
  let cap =
    Option.value max_replicas
      ~default:(Int.max 4 (Schedule.max_replica_count seed))
  in
  if cap < 1 || cap > Schedule.max_replicas then
    invalid_arg "Local_search.improve: max_replicas out of range";
  let flags = Array.init n (Schedule.is_checkpointed seed) in
  let order = Array.init n (Schedule.task_at seed) in
  let reps = Schedule.replica_counts seed in
  let evaluations = ref 0 in
  let flips = ref 0 in
  let evaluate () =
    Wfc_platform.Cancel.check cancel;
    incr evaluations;
    Replication.expected_makespan ?cost:replica_cost model g
      (Schedule.make ~replicas:reps g ~order ~checkpointed:flags)
  in
  let initial_makespan = evaluate () in
  let best = ref initial_makespan in
  let improved = ref true in
  let sweeps = ref 0 in
  (* try one move (already applied); keep it if it improves, else undo *)
  let consider undo =
    let m = evaluate () in
    if m < !best -. (1e-12 *. Float.abs !best) then begin
      best := m;
      incr flips;
      improved := true
    end
    else undo ()
  in
  while !improved && !evaluations < max_evaluations do
    improved := false;
    incr sweeps;
    Array.iter
      (fun v ->
        if !evaluations < max_evaluations then begin
          flags.(v) <- not flags.(v);
          consider (fun () -> flags.(v) <- not flags.(v))
        end;
        if !evaluations < max_evaluations && reps.(v) < cap then begin
          reps.(v) <- reps.(v) + 1;
          consider (fun () -> reps.(v) <- reps.(v) - 1)
        end;
        if !evaluations < max_evaluations && reps.(v) > 1 then begin
          reps.(v) <- reps.(v) - 1;
          consider (fun () -> reps.(v) <- reps.(v) + 1)
        end)
      order
  done;
  record_metrics ~sweeps:!sweeps
    {
      schedule = Schedule.make ~replicas:reps g ~order ~checkpointed:flags;
      makespan = !best;
      initial_makespan;
      evaluations = !evaluations;
      flips = !flips;
    }

let improve ?(max_evaluations = 4000) ?replica_cost ?max_replicas
    ?(cancel = Wfc_platform.Cancel.never) model g seed =
  if Schedule.is_replicated seed || Option.is_some max_replicas then
    improve_replicated ~max_evaluations ~replica_cost ~max_replicas ~cancel
      model g seed
  else
  Wfc_obs.Trace.with_span "local_search.improve"
    ~args:[ ("backend", "flat") ]
  @@ fun () ->
  let n = Schedule.n_tasks seed in
  let flags = Array.init n (Schedule.is_checkpointed seed) in
  let order = Array.init n (Schedule.task_at seed) in
  let engine = Flat_engine.create ~flags model g ~order in
  Wfc_platform.Cancel.check cancel;
  let initial_makespan = Flat_engine.makespan engine in
  let evaluations = ref 1 in
  let flips = ref 0 in
  let best = ref initial_makespan in
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !evaluations < max_evaluations do
    improved := false;
    incr sweeps;
    (* sweep in execution order: early flags influence everything after *)
    Array.iter
      (fun v ->
        if !evaluations < max_evaluations then begin
          Wfc_platform.Cancel.check cancel;
          let m = Flat_engine.flip engine v in
          incr evaluations;
          if m < !best -. (1e-12 *. Float.abs !best) then begin
            best := m;
            flags.(v) <- not flags.(v);
            incr flips;
            improved := true
          end
          else
            (* lazy revert: marks the same suffix dirty again without
               forcing a re-evaluation *)
            Flat_engine.set_flags engine flags
        end)
      order
  done;
  (* the reported makespan is the engine's own score of the accepted
     flags *)
  record_metrics ~sweeps:!sweeps
    {
      schedule = Schedule.make g ~order ~checkpointed:flags;
      makespan = !best;
      initial_makespan;
      evaluations = !evaluations;
      flips = !flips;
    }
