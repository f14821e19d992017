(* Robust selection as it stood before it ran on live lanes, kept as a test
   oracle: every (scenario, trace, lane) is drawn up front as a renewal
   trace covering [min_uptime] of uptime, and every candidate replays those
   arrays. Past a trace's last failure the replayed platform cannot fail,
   so a run that consumes past it is counted in [exhausted]; when none did,
   the live lanes must give the same scores bit for bit. *)

module Rng = Wfc_platform.Rng
module Sample_set = Wfc_platform.Sample_set
module Sim = Wfc_simulator.Sim
module SA = Wfc_simulator.Sim_adaptive
module T = Wfc_simulator.Trace_io
module Robust = Wfc_resilience.Robust

type policy =
  | Static of Wfc_core.Schedule.t
  | Adaptive of SA.config * Wfc_core.Schedule.t

type score = {
  name : string;
  mean : float;
  cvar : float;
  worst : float;
  per_scenario : (string * float) list;
}

let lane_rng ~seed ~scenario ~trace ~lane =
  Rng.create
    (seed + (scenario * 0x5851F42D) + (trace * 0x9E3779B9)
   + (lane * 0x2545F491))

let run ?replica_cost g policy sources =
  match policy with
  | Static s -> Sim.run_with_lanes ?replica_cost sources g s
  | Adaptive (config, s) ->
      (SA.run ?replica_cost
         ~extra_lanes:(Array.sub sources 1 (Array.length sources - 1))
         config ~source:sources.(0) g s)
        .SA.run

let sched_of = function Static s | Adaptive (_, s) -> s

(* [(scores, exhausted)]: one score per candidate, in input order, and the
   number of runs that consumed past a recorded horizon. *)
let evaluate ?replica_cost ~traces_per_scenario ~alpha ~seed ~min_uptime
    ~(scenarios : Robust.scenario list) g candidates =
  let width =
    List.fold_left
      (fun acc (_, p) ->
        Int.max acc (Wfc_core.Schedule.max_replica_count (sched_of p)))
      1 candidates
  in
  let ensemble =
    List.mapi
      (fun si (sc : Robust.scenario) ->
        ( sc,
          Array.init traces_per_scenario (fun ti ->
              Array.init width (fun lane ->
                  T.draw_renewal
                    ~rng:(lane_rng ~seed ~scenario:si ~trace:ti ~lane)
                    ~failures:sc.Robust.failures ~downtime:sc.Robust.downtime
                    ~min_uptime)) ))
      scenarios
  in
  let exhausted = ref 0 in
  let scores =
    List.map
      (fun (name, policy) ->
        let pooled = Sample_set.create () in
        let lanes = Wfc_core.Schedule.max_replica_count (sched_of policy) in
        let per_scenario =
          List.map
            (fun ((sc : Robust.scenario), traces) ->
              let sum = ref 0. in
              Array.iter
                (fun trace ->
                  let states =
                    Array.map T.replay_source (Array.sub trace 0 lanes)
                  in
                  let r =
                    run ?replica_cost g policy
                      (Array.map (fun st -> st.T.source) states)
                  in
                  if Array.exists (fun st -> st.T.exhausted ()) states then
                    incr exhausted;
                  Sample_set.add pooled r.Sim.makespan;
                  sum := !sum +. r.Sim.makespan)
                traces;
              (sc.Robust.name, !sum /. float_of_int traces_per_scenario))
            ensemble
        in
        {
          name;
          mean = Sample_set.mean pooled;
          cvar = Sample_set.cvar pooled alpha;
          worst = Sample_set.quantile pooled 1.;
          per_scenario;
        })
      candidates
  in
  (scores, !exhausted)
