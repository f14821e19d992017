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

let improve ?(max_evaluations = 4000) ?replica_cost ?max_replicas ?engine
    ?(cancel = Wfc_platform.Cancel.never) model g seed =
  (* replica-count steps join the move set for replicated seeds or when
     requested: +1 up to the cap, -1 down to a single copy *)
  let cap =
    if Schedule.is_replicated seed || Option.is_some max_replicas then
      Option.value max_replicas
        ~default:(Int.max 4 (Schedule.max_replica_count seed))
    else 1
  in
  if cap < 1 || cap > Schedule.max_replicas then
    invalid_arg "Local_search.improve: max_replicas out of range";
  Wfc_obs.Trace.with_span "local_search.improve"
    ~args:[ ("backend", "flat") ]
  @@ fun () ->
  let n = Schedule.n_tasks seed in
  let flags = Array.init n (Schedule.is_checkpointed seed) in
  let order = Array.init n (Schedule.task_at seed) in
  let reps = Schedule.replica_counts seed in
  (* a supplied engine is rebound to the seed's flags, replicas and the
     model: every query is a pure function of those, so it scores each
     move bit-identically to a fresh engine *)
  let engine =
    Flat_engine.bind ?engine ~flags ~replicas:reps ?replica_cost model g
      ~order
  in
  Wfc_platform.Cancel.check cancel;
  let initial_makespan = Flat_engine.makespan engine in
  let evaluations = ref 1 in
  let flips = ref 0 in
  let best = ref initial_makespan in
  let improved = ref true in
  let sweeps = ref 0 in
  (* a scored move is kept if it improves; a rejected one is reverted
     lazily, marking the same suffix dirty again without forcing a
     re-evaluation *)
  let accept m =
    incr evaluations;
    m < !best -. (1e-12 *. Float.abs !best)
    && begin
         best := m;
         incr flips;
         improved := true;
         true
       end
  in
  let step_replicas v r =
    if !evaluations < max_evaluations then begin
      Wfc_platform.Cancel.check cancel;
      Flat_engine.set_replicas engine v r;
      if accept (Flat_engine.makespan engine) then reps.(v) <- r
      else Flat_engine.set_replicas engine v reps.(v)
    end
  in
  while !improved && !evaluations < max_evaluations do
    improved := false;
    incr sweeps;
    (* sweep in execution order: early flags influence everything after *)
    Array.iter
      (fun v ->
        if !evaluations < max_evaluations then begin
          Wfc_platform.Cancel.check cancel;
          if accept (Flat_engine.flip engine v) then
            flags.(v) <- not flags.(v)
          else Flat_engine.set_flags engine flags
        end;
        if reps.(v) < cap then step_replicas v (reps.(v) + 1);
        if reps.(v) > 1 then step_replicas v (reps.(v) - 1))
      order
  done;
  (* the reported makespan is the engine's own score of the accepted
     vectors *)
  record_metrics ~sweeps:!sweeps
    {
      schedule = Schedule.make ~replicas:reps g ~order ~checkpointed:flags;
      makespan = !best;
      initial_makespan;
      evaluations = !evaluations;
      flips = !flips;
    }
