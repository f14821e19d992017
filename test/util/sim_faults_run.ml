(* One fault-injected run on a fresh executor and fresh failure lanes: the
   harness the fault engine's tests drive. [?source] replaces the lane of an
   unreplicated schedule (a Trace_io recording or replay wrapper, say) and
   [?lanes] the lanes of a replicated one; [rng] still drives the fault
   bernoullis, and the lanes when neither is given. *)

module Sim = Wfc_simulator.Sim
module SF = Wfc_simulator.Sim_faults

type run = {
  makespan : float;
  failures : int;
  wasted : float;
  corrupt_reads : int;
  failed_recoveries : int;
  truncated : bool;
}

let run ?source ?lanes ?replica_cost ~rng params g sched =
  let lanes =
    match (lanes, source) with
    | Some ls, _ -> ls
    | None, Some s -> [| s |]
    | None, None -> Sim.lanes sched (fun () -> SF.source_of_params ~rng params)
  in
  let ex = SF.exec ?replica_cost ~rng params g sched in
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
