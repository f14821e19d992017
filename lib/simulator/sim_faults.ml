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
