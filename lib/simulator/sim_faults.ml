module Distribution = Wfc_platform.Distribution
module Rng = Wfc_platform.Rng

type params = {
  failures : Distribution.t;
  downtime : Distribution.t;
  p_ckpt_fail : float;
  p_rec_fail : float;
  max_failures : int;
}

let nominal model =
  let lambda = model.Wfc_platform.Failure_model.lambda in
  if lambda = 0. then invalid_arg "Sim_faults.nominal: fail-free model";
  {
    failures = Distribution.exponential ~rate:lambda;
    downtime = Distribution.constant model.Wfc_platform.Failure_model.downtime;
    p_ckpt_fail = 0.;
    p_rec_fail = 0.;
    max_failures = 0;
  }

type run = {
  makespan : float;
  failures : int;
  wasted : float;
  corrupt_reads : int;
  failed_recoveries : int;
  truncated : bool;
}

let check_probability what ~strict p =
  if not (p >= 0. && (if strict then p < 1. else p <= 1.)) then
    invalid_arg (Printf.sprintf "Sim_faults: %s out of range" what)

(* Mirrors Sim.run draw for draw so that the zero-fault configuration is
   bit-identical to Sim.run on the same RNG stream: fault bernoullis and
   degenerate downtimes consume no randomness at all. *)
let source_of_params ~rng (params : params) =
  match (params.failures, params.downtime) with
  | Distribution.Exponential rate, Distribution.Constant downtime ->
      (* the paper's platform: Sim.run's own lane, drawn by the executor *)
      Sim.source_of_model ~rng
        (Wfc_platform.Failure_model.make ~lambda:rate ~downtime ())
  | Distribution.Exponential rate, downtime ->
      (* memoryless: a fresh draw per attempt is exact, as in Sim.run *)
      Sim.custom_source
        ~time_to_failure:(fun () -> Rng.exponential rng ~rate)
        ~consume:(fun _ -> ())
        ~next_downtime:(fun () -> Distribution.sample downtime rng)
        ~after_failure:(fun () -> ())
  | failures, downtime ->
      (* renewal: countdown consumed by successful segments, redrawn after
         each repair, as Sim.renewal_source does *)
      Sim.renewal_source ~rng ~failures ~downtime

let validate_params (params : params) =
  check_probability "p_ckpt_fail" ~strict:false params.p_ckpt_fail;
  check_probability "p_rec_fail" ~strict:true params.p_rec_fail;
  if params.max_failures < 0 then
    invalid_arg "Sim_faults: max_failures must be non-negative"

let exec ?replica_cost ~rng params g sched =
  validate_params params;
  let { p_ckpt_fail; p_rec_fail; max_failures; _ } = params in
  Sim.exec ?replica_cost
    ~faults:{ Sim.p_ckpt_fail; p_rec_fail; max_failures; rng }
    g sched

(* Replicated schedules generalize the fault machinery per copy: a
   checkpointing task with r replicas writes r copies, each independently
   corrupt, and a recovery read tries them in write order before falling
   back to recomputation — the executor's semantics. *)
let run ?source ?lanes ?replica_cost ~rng params g sched =
  let replicated = Wfc_core.Schedule.is_replicated sched in
  if replicated && Option.is_some source then
    invalid_arg
      "Sim_faults.run: replicated schedule needs failure lanes, not a single \
       source";
  if (not replicated) && Option.is_some lanes then
    invalid_arg "Sim_faults.run: ?lanes with an unreplicated schedule";
  let lanes =
    match (lanes, source) with
    | Some ls, _ -> ls
    | None, Some s -> [| s |]
    | None, None -> Sim.lanes sched (fun () -> source_of_params ~rng params)
  in
  let ex = exec ?replica_cost ~rng params g sched in
  Sim.execute ex lanes;
  let r = Sim.result ex in
  {
    makespan = r.Sim.makespan;
    failures = r.Sim.failures;
    wasted = r.Sim.wasted;
    corrupt_reads = Sim.corrupt_reads ex;
    failed_recoveries = Sim.failed_recoveries ex;
    truncated = Sim.truncated ex;
  }
