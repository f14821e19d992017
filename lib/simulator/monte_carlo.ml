type estimate = {
  makespan : Wfc_platform.Stats.t;
  failures : Wfc_platform.Stats.t;
  wasted : Wfc_platform.Stats.t;
}

(* The one sampling loop: [runs] calls of the runner [prepare] builds once
   on the estimate's rng. *)
let aggregate ~runs ~seed prepare =
  if runs <= 0 then invalid_arg "Monte_carlo: runs must be positive";
  Wfc_obs.Trace.with_span "monte_carlo.aggregate"
    ~args:[ ("runs", string_of_int runs) ]
  @@ fun () ->
  let rng = Wfc_platform.Rng.create seed in
  let makespan = Wfc_platform.Stats.create () in
  let failures = Wfc_platform.Stats.create () in
  let wasted = Wfc_platform.Stats.create () in
  let run_once = prepare rng in
  for _ = 1 to runs do
    let r = run_once () in
    Wfc_platform.Stats.add makespan r.Sim.makespan;
    Wfc_platform.Stats.add failures (float_of_int r.Sim.failures);
    Wfc_platform.Stats.add wasted r.Sim.wasted
  done;
  { makespan; failures; wasted }

(* One executor and one set of lanes per estimate, reused by every run;
   renewing the lanes after each run draws what fresh lanes would. *)
let run_on ?cancel ex lanes () =
  Sim.execute ?cancel ex lanes;
  Sim.renew lanes;
  Sim.result ex

let run_model ?cancel ?replica_cost model g sched rng =
  run_on ?cancel
    (Sim.exec ?replica_cost g sched)
    (Sim.model_lanes ~rng model sched)

let estimate ?cancel ?replica_cost ?(runs = 1000) ~seed model g sched =
  aggregate ~runs ~seed (run_model ?cancel ?replica_cost model g sched)

let estimate_renewal ?replica_cost ?(runs = 1000) ~seed ~failures ~downtime g
    sched =
  let downtime = Wfc_platform.Distribution.constant downtime in
  aggregate ~runs ~seed (fun rng ->
      run_on
        (Sim.exec ?replica_cost g sched)
        (Sim.lanes sched (fun () ->
             Sim.renewal_source ~rng ~failures ~downtime)))

let estimate_overlap ?(runs = 1000) ~seed params g sched =
  aggregate ~runs ~seed (fun rng () -> Sim_overlap.run ~rng params g sched)

type faults_estimate = {
  summary : estimate;
  corrupt_reads : Wfc_platform.Stats.t;
  failed_recoveries : Wfc_platform.Stats.t;
  truncated_runs : int;
}

let estimate_faults ?(runs = 1000) ~seed params g sched =
  let corrupt_reads = Wfc_platform.Stats.create () in
  let failed_recoveries = Wfc_platform.Stats.create () in
  let truncated_runs = ref 0 in
  let summary =
    aggregate ~runs ~seed (fun rng ->
        let ex = Sim_faults.exec ~rng params g sched in
        let run_once =
          run_on ex
            (Sim.lanes sched (fun () ->
                 Sim_faults.source_of_params ~rng params))
        in
        fun () ->
          let r = run_once () in
          Wfc_platform.Stats.add corrupt_reads
            (float_of_int (Sim.corrupt_reads ex));
          Wfc_platform.Stats.add failed_recoveries
            (float_of_int (Sim.failed_recoveries ex));
          if Sim.truncated ex then incr truncated_runs;
          r)
  in
  { summary; corrupt_reads; failed_recoveries; truncated_runs = !truncated_runs }

let estimate_parallel ?cancel ?replica_cost ?(runs = 1000) ?domains ~seed model
    g sched =
  let domains =
    match domains with
    | Some d ->
        if d <= 0 then invalid_arg "Monte_carlo.estimate_parallel: domains <= 0";
        d
    | None -> Wfc_platform.Domain_pool.default_domains ()
  in
  if runs <= 0 then invalid_arg "Monte_carlo.estimate_parallel: runs <= 0";
  let slices = Wfc_platform.Domain_pool.chunks ~total:runs ~domains in
  let parts =
    Wfc_platform.Domain_pool.run ~domains:(Array.length slices) (fun i ->
        let _, runs = slices.(i) in
        (* distinct deterministic stream per domain *)
        aggregate ~runs ~seed:(seed + (i * 0x9E3779B9))
          (run_model ?cancel ?replica_cost model g sched))
  in
  List.fold_left
    (fun acc e ->
      {
        makespan = Wfc_platform.Stats.merge acc.makespan e.makespan;
        failures = Wfc_platform.Stats.merge acc.failures e.failures;
        wasted = Wfc_platform.Stats.merge acc.wasted e.wasted;
      })
    (List.hd parts) (List.tl parts)

let makespan_samples ?cancel ?replica_cost ?(runs = 1000) ~seed model g sched
    =
  if runs <= 0 then invalid_arg "Monte_carlo: runs must be positive";
  let rng = Wfc_platform.Rng.create seed in
  let samples = Wfc_platform.Sample_set.create () in
  let run_once = run_model ?cancel ?replica_cost model g sched rng in
  for _ = 1 to runs do
    Wfc_platform.Sample_set.add samples (run_once ()).Sim.makespan
  done;
  samples

let agrees_with e ~expected ~sigmas =
  let mean = Wfc_platform.Stats.mean e.makespan in
  let err = Wfc_platform.Stats.std_error e.makespan in
  Float.abs (mean -. expected) <= sigmas *. Float.max err (1e-12 *. mean)
