type params = {
  interference : float;
  failures : Wfc_platform.Distribution.t;
  downtime : float;
}

type channel_entry = { task : int; mutable remaining : float }

let run ~rng params g sched =
  if not (params.interference >= 0. && params.interference <= 1.) then
    invalid_arg "Sim_overlap.run: interference must lie in [0, 1]";
  if params.downtime < 0. then invalid_arg "Sim_overlap.run: negative downtime";
  let n = Wfc_core.Schedule.n_tasks sched in
  let ckpt_cost v = (Wfc_dag.Dag.task g v).Wfc_dag.Task.checkpoint_cost in
  (* the executor's platform state and replay walk; this model ignores
     replicas, so the walk recomputes at plain task weights *)
  let plain =
    if Wfc_core.Schedule.is_replicated sched then
      Wfc_core.Schedule.with_replicas sched (Array.make n 1)
    else sched
  in
  let ex = Sim.exec g plain in
  Sim.reset ex;
  let queue : channel_entry Queue.t = Queue.create () in
  let time = ref 0. and failures = ref 0 in
  let next_fail = ref (Wfc_platform.Distribution.sample params.failures rng) in
  let handle_failure () =
    time := !time +. params.downtime;
    incr failures;
    Sim.wipe ex;
    Queue.clear queue;
    next_fail := Wfc_platform.Distribution.sample params.failures rng
  in
  (* Advance wall-clock until [work] compute-seconds are done; the channel
     drains concurrently and slows computation down while busy. Returns
     [false] if a failure interrupted the segment. *)
  let rec advance_compute work =
    if work <= 1e-12 then true
    else if Queue.is_empty queue then begin
      (* full speed, nothing in flight *)
      if !next_fail >= work then begin
        time := !time +. work;
        next_fail := !next_fail -. work;
        true
      end
      else begin
        time := !time +. !next_fail;
        handle_failure ();
        false
      end
    end
    else begin
      let head = Queue.peek queue in
      let rate = 1. -. params.interference in
      let t_head = head.remaining in
      let t_work = if rate > 0. then work /. rate else infinity in
      let dt = Float.min (Float.min t_head t_work) !next_fail in
      time := !time +. dt;
      next_fail := !next_fail -. dt;
      head.remaining <- head.remaining -. dt;
      let work = work -. (dt *. rate) in
      if head.remaining <= 1e-12 then begin
        ignore (Queue.pop queue);
        (* the write completed while its source was still in memory (any
           failure would have cleared the queue first) *)
        Sim.store ex head.task
      end;
      if !next_fail <= 1e-12 then begin
        handle_failure ();
        false
      end
      else advance_compute work
    end
  in
  for p = 0 to n - 1 do
    let v = Wfc_core.Schedule.task_at sched p in
    let finished = ref false in
    while not !finished do
      let replay = Sim.replay ex v in
      if advance_compute (replay +. Sim.work ex v) then begin
        Sim.restore ex v;
        if Wfc_core.Schedule.is_checkpointed sched v then
          Queue.push { task = v; remaining = ckpt_cost v } queue;
        finished := true
      end
    done
  done;
  let total_work = Wfc_dag.Dag.total_weight g in
  {
    Sim.makespan = !time;
    failures = !failures;
    wasted = !time -. total_work;
  }
