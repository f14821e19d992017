module FM = Wfc_platform.Failure_model
module Metrics = Wfc_obs.Metrics
module Trace = Wfc_obs.Trace

let m_runs = Metrics.counter "adaptive.runs"
let m_replans = Metrics.counter "adaptive.replans"
let m_reestimates = Metrics.counter "adaptive.reestimates"
let m_rejected = Metrics.counter "adaptive.plans_kept"
let h_lambda = Metrics.histogram "adaptive.lambda_hat"

type trigger = Every_failure | Every_k of int | On_drift of float

type plan = { order : int array; flags : bool array }

type replan =
  model:FM.t -> order:int array -> flags:bool array -> from:int -> plan option

type config = {
  planning : FM.t;
  trigger : trigger;
  min_observations : int;
  replan : replan option;
}

let default_config planning =
  { planning; trigger = Every_failure; min_observations = 3; replan = None }

type result = {
  run : Sim.run;
  replans : int;
  reestimates : int;
  estimated : FM.t;
  final_order : int array;
  final_flags : bool array;
}

let validate_config c =
  (match c.trigger with
  | Every_failure -> ()
  | Every_k k ->
      if k < 1 then invalid_arg "Sim_adaptive: Every_k needs k >= 1"
  | On_drift f ->
      if not (f > 1.) then invalid_arg "Sim_adaptive: On_drift needs f > 1");
  if c.min_observations < 1 then
    invalid_arg "Sim_adaptive: min_observations must be at least 1"

(* A plan may only touch the not-yet-completed suffix: the executed prefix
   determines what is already on disk, so moving or re-flagging it would
   desynchronize the planner's view from the platform state. *)
let validate_plan g ~order ~flags ~from plan =
  let n = Array.length order in
  if Array.length plan.order <> n || Array.length plan.flags <> n then
    invalid_arg "Sim_adaptive: plan has the wrong size";
  for p = 0 to from - 1 do
    if plan.order.(p) <> order.(p) then
      invalid_arg "Sim_adaptive: plan moves a completed position";
    if plan.flags.(order.(p)) <> flags.(order.(p)) then
      invalid_arg "Sim_adaptive: plan re-flags a completed task"
  done;
  if not (Wfc_dag.Dag.is_linearization g plan.order) then
    invalid_arg "Sim_adaptive: plan order is not a linearization"

(* The executor's failure hook: re-estimate from everything observed so far
   and, when the trigger fires, hand the suffix to the replanner. The MLE
   sees every lane — the executor's censored exposure and per-copy failure
   count — while triggers and the replan boundary count effective failures
   (attempts where every copy died). Replica counts are fixed across
   replans, like the executed prefix. *)
let run ?(extra_lanes = [||]) ?replica_cost ?cancel config ~source g sched =
  Trace.with_span "adaptive.run" @@ fun () ->
  validate_config config;
  if
    Array.length extra_lanes > 0 && not (Wfc_core.Schedule.is_replicated sched)
  then invalid_arg "Sim_adaptive.run: extra lanes with an unreplicated schedule";
  let lanes = Array.append [| source |] extra_lanes in
  let ex = Sim.exec ?replica_cost g sched in
  let replans = ref 0 and reestimates = ref 0 in
  let estimated = ref config.planning in
  (* the rate the current schedule was (re)planned for, for On_drift *)
  let plan_lambda = ref config.planning.FM.lambda in
  let estimate () =
    let exposure = Sim.exposure ex in
    if exposure > 0. then begin
      let observed = float_of_int (Sim.lane_failures ex) in
      let lambda_hat = observed /. exposure in
      let downtime_hat = Sim.downtime_total ex /. observed in
      incr reestimates;
      if Metrics.enabled () then begin
        Metrics.incr m_reestimates;
        Metrics.observe h_lambda lambda_hat
      end;
      estimated := FM.make ~lambda:lambda_hat ~downtime:downtime_hat ();
      true
    end
    else false
  in
  let should_replan () =
    match config.trigger with
    | Every_failure -> true
    | Every_k k -> Sim.failures ex mod k = 0
    | On_drift f ->
        let lh = (!estimated).FM.lambda in
        if !plan_lambda = 0. then lh > 0.
        else Float.max (lh /. !plan_lambda) (!plan_lambda /. lh) >= f
  in
  let on_failure ex =
    let failures = Sim.failures ex in
    if failures >= config.min_observations && estimate () then
      match config.replan with
      | None -> ()
      | Some _ when not (should_replan ()) -> ()
      | Some cb -> (
          let from = Sim.position ex in
          let order = Sim.order ex and flags = Sim.flags ex in
          match
            Trace.with_span "adaptive.replan" (fun () ->
                cb ~model:!estimated ~order:(Array.copy order)
                  ~flags:(Array.copy flags) ~from)
          with
          | None -> Metrics.incr m_rejected
          | Some plan ->
              validate_plan g ~order ~flags ~from plan;
              Sim.replan ex ~order:plan.order ~flags:plan.flags;
              plan_lambda := (!estimated).FM.lambda;
              incr replans;
              if Metrics.enabled () then Metrics.incr m_replans;
              Trace.instant "adaptive.replanned"
                ~args:
                  [
                    ("from", string_of_int from);
                    ("failures", string_of_int failures);
                    ("lambda_hat", Printf.sprintf "%.6g" (!estimated).FM.lambda);
                  ])
  in
  Sim.execute ~observer:{ Sim.silent with Sim.on_failure } ?cancel ex lanes;
  if Metrics.enabled () then Metrics.incr m_runs;
  {
    run = Sim.result ex;
    replans = !replans;
    reestimates = !reestimates;
    estimated = !estimated;
    final_order = Sim.order ex;
    final_flags = Sim.flags ex;
  }
