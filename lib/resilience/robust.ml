module D = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module Rng = Wfc_platform.Rng
module Sample_set = Wfc_platform.Sample_set
module Cancel = Wfc_platform.Cancel
module Sim = Wfc_simulator.Sim
module SA = Wfc_simulator.Sim_adaptive
module Metrics = Wfc_obs.Metrics
module Trace = Wfc_obs.Trace

let m_evaluations = Metrics.counter "robust.evaluations"
let m_replays = Metrics.counter "robust.replays"

type criterion = Mean | CVaR of float | Worst

let criterion_name = function
  | Mean -> "mean"
  | CVaR alpha -> Printf.sprintf "cvar@%g" alpha
  | Worst -> "worst"

let criterion_of_string s =
  match String.lowercase_ascii s with
  | "mean" -> Some Mean
  | "worst" -> Some Worst
  | "cvar" -> Some (CVaR 0.95)
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "cvar" -> (
          let q = String.sub s (i + 1) (String.length s - i - 1) in
          match float_of_string_opt q with
          | Some q when q >= 0. && q <= 1. -> Some (CVaR q)
          | _ -> None)
      | _ -> None)

type scenario = { name : string; failures : D.t; downtime : D.t }

let default_scenarios nominal =
  let lambda = nominal.FM.lambda in
  if lambda = 0. then invalid_arg "Robust.default_scenarios: fail-free nominal";
  let downtime = D.constant nominal.FM.downtime in
  List.map
    (fun (name, failures) -> { name; failures; downtime })
    (("exponential", D.exponential ~rate:lambda)
    :: Stress.shape_laws ~mtbf:(1. /. lambda))

type candidate = {
  name : string;
  extra_lanes : int;
  execute : cancel:Cancel.t -> Sim.source array -> Sim.run;
}

let extra_lanes_of sched =
  if Wfc_core.Schedule.is_replicated sched then
    Wfc_core.Schedule.max_replica_count sched - 1
  else 0

(* one executor for every run: a static plan never changes between runs *)
let static ?replica_cost ~name g sched =
  let ex = Sim.exec ?replica_cost g sched in
  {
    name;
    extra_lanes = extra_lanes_of sched;
    execute =
      (fun ~cancel lanes ->
        Sim.execute ~cancel ex lanes;
        Sim.result ex);
  }

let adaptive ?replica_cost ~name config g sched =
  let extra = extra_lanes_of sched in
  {
    name;
    extra_lanes = extra;
    execute =
      (fun ~cancel lanes ->
        (SA.run ~cancel ~extra_lanes:(Array.sub lanes 1 extra) ?replica_cost
           config ~source:lanes.(0) g sched)
          .SA.run);
  }

type score = {
  candidate : string;
  mean : float;
  cvar : float;
  worst : float;
  per_scenario : (string * float) list;
  regret : (string * float) list;
  max_regret : float;
}

type report = {
  criterion : criterion;
  alpha : float;
  traces_per_scenario : int;
  scores : score list;
  winner : score;
}

let key_of criterion score =
  match criterion with
  | Mean -> score.mean
  | CVaR _ -> score.cvar
  | Worst -> score.worst

let evaluate ?(traces_per_scenario = 50) ?(alpha = 0.95)
    ?(cancel = Cancel.never) ~seed ~criterion ~scenarios candidates =
  Trace.with_span "robust.evaluate"
    ~args:
      [
        ("criterion", criterion_name criterion);
        ("candidates", string_of_int (List.length candidates));
      ]
  @@ fun () ->
  if candidates = [] then invalid_arg "Robust.evaluate: no candidates";
  if scenarios = [] then invalid_arg "Robust.evaluate: no scenarios";
  if traces_per_scenario < 1 then
    invalid_arg "Robust.evaluate: traces_per_scenario < 1";
  if not (alpha >= 0. && alpha <= 1.) then
    invalid_arg "Robust.evaluate: alpha outside [0, 1]";
  (match criterion with
  | CVaR a when not (a >= 0. && a <= 1.) ->
      invalid_arg "Robust.evaluate: CVaR level outside [0, 1]"
  | _ -> ());
  if Metrics.enabled () then Metrics.incr m_evaluations;
  let cvar_level = match criterion with CVaR a -> a | _ -> alpha in
  let scores =
    List.map
      (fun cand ->
        let pooled = Sample_set.create () in
        let per_scenario =
          List.mapi
            (fun si (sc : scenario) ->
              let sum = ref 0. in
              for ti = 0 to traces_per_scenario - 1 do
                (* fresh live lanes per run, lane l of trace t seeded as
                   Stress seeds lane l of run t: every candidate draws the
                   same failures from the same streams *)
                let lanes =
                  Array.init (1 + cand.extra_lanes) (fun lane ->
                      Sim.renewal_source
                        ~rng:
                          (Rng.create
                             (Stress.lane_seed ~seed ~scenario:si ~run:ti
                                ~lane))
                        ~failures:sc.failures ~downtime:sc.downtime)
                in
                let run = cand.execute ~cancel lanes in
                if Metrics.enabled () then Metrics.incr m_replays;
                Sample_set.add pooled run.Sim.makespan;
                sum := !sum +. run.Sim.makespan
              done;
              (sc.name, !sum /. float_of_int traces_per_scenario))
            scenarios
        in
        {
          candidate = cand.name;
          mean = Sample_set.mean pooled;
          cvar = Sample_set.cvar pooled cvar_level;
          worst = Sample_set.quantile pooled 1.;
          per_scenario;
          regret = [];
          max_regret = 0.;
        })
      candidates
  in
  (* regret vs the per-scenario best candidate *)
  let best_per_scenario =
    List.map
      (fun (sc : scenario) ->
        ( sc.name,
          List.fold_left
            (fun acc s -> Float.min acc (List.assoc sc.name s.per_scenario))
            Float.infinity scores ))
      scenarios
  in
  let scores =
    List.map
      (fun s ->
        let regret =
          List.map
            (fun (name, m) -> (name, m -. List.assoc name best_per_scenario))
            s.per_scenario
        in
        let max_regret =
          List.fold_left (fun acc (_, r) -> Float.max acc r) 0. regret
        in
        { s with regret; max_regret })
      scores
  in
  let winner =
    List.fold_left
      (fun best s -> if key_of criterion s < key_of criterion best then s else best)
      (List.hd scores) (List.tl scores)
  in
  Trace.instant "robust.selected"
    ~args:
      [
        ("winner", winner.candidate);
        ("criterion", criterion_name criterion);
        ("key", Printf.sprintf "%.6g" (key_of criterion winner));
      ];
  { criterion; alpha = cvar_level; traces_per_scenario; scores; winner }
