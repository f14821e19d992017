module D = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module Rng = Wfc_platform.Rng
module Sample_set = Wfc_platform.Sample_set
module SF = Wfc_simulator.Sim_faults
module Heuristics = Wfc_core.Heuristics

type scenario = { name : string; params : SF.params }

let default_grid nominal =
  let lambda = nominal.FM.lambda in
  if lambda = 0. then invalid_arg "Stress.default_grid: fail-free nominal";
  let mtbf = 1. /. lambda in
  let nominal_p = SF.nominal nominal in
  let clean failures = { nominal_p with SF.failures } in
  (* mean-preserving burst mix: 90% of gaps at MTBF/3, 10% at 7 MTBF *)
  let bursty =
    D.hyperexponential ~p:0.9 ~rate1:(3. /. mtbf) ~rate2:(1. /. (7. *. mtbf))
  in
  let random_downtime =
    D.exponential
      ~rate:(1. /. Float.max nominal.FM.downtime (0.01 *. mtbf))
  in
  [
    { name = "nominal"; params = nominal_p };
    { name = "mtbf/2"; params = clean (D.exponential ~rate:(2. *. lambda)) };
    { name = "mtbf/10"; params = clean (D.exponential ~rate:(10. *. lambda)) };
    { name = "mtbf*2"; params = clean (D.exponential ~rate:(lambda /. 2.)) };
    { name = "mtbf*10"; params = clean (D.exponential ~rate:(lambda /. 10.)) };
    {
      name = "weibull k=0.7";
      params = clean (D.weibull_of_mean ~shape:0.7 ~mean:mtbf);
    };
    {
      name = "weibull k=1.5";
      params = clean (D.weibull_of_mean ~shape:1.5 ~mean:mtbf);
    };
    { name = "bursty"; params = clean bursty };
    {
      name = "random downtime";
      params = { nominal_p with SF.downtime = random_downtime };
    };
    { name = "corrupt ckpt 10%"; params = { nominal_p with SF.p_ckpt_fail = 0.1 } };
    { name = "flaky recovery 10%"; params = { nominal_p with SF.p_rec_fail = 0.1 } };
    {
      name = "hostile";
      params =
        {
          SF.failures = D.weibull_of_mean ~shape:0.7 ~mean:(mtbf /. 5.);
          downtime = random_downtime;
          p_ckpt_fail = 0.05;
          p_rec_fail = 0.05;
          max_failures = 0;
        };
    };
  ]

type scenario_result = {
  scenario : scenario;
  mean : float;
  p95 : float;
  p99 : float;
  mean_degradation : float;
  tail_degradation : float;
  divergent : int;
}

type report = {
  nominal_makespan : float;
  results : scenario_result list;
  robustness : float;
}

(* One private stream per (seed, scenario, run): chunking the runs over
   domains cannot change any draw, so reports are domain-count invariant.
   SplitMix64 seeding mixes the raw integer, so affine combinations with
   large odd constants give well-separated streams. *)
let run_rng ~seed ~scenario ~run =
  Rng.create (seed + (scenario * 0x5851F42D) + (run * 0x9E3779B9))

let evaluate ?replica_cost ?(runs = 2000) ?domains ?(max_failures = 10_000)
    ~seed ~nominal ~scenarios g sched =
  if runs <= 0 then invalid_arg "Stress.evaluate: runs <= 0";
  if max_failures <= 0 then invalid_arg "Stress.evaluate: max_failures <= 0";
  if scenarios = [] then invalid_arg "Stress.evaluate: no scenarios";
  let domains =
    match domains with
    | Some d ->
        if d <= 0 then invalid_arg "Stress.evaluate: domains <= 0";
        d
    | None -> Int.max 1 (Domain.recommended_domain_count () - 1)
  in
  let domains = Int.min domains runs in
  let nominal_makespan =
    Wfc_core.Replication.expected_makespan ?cost:replica_cost nominal g sched
  in
  let results =
    List.mapi
      (fun si sc ->
        (* divergent-run valve: a schedule that essentially cannot finish
           under the scenario (e^{lambda W} retries) would hang the campaign;
           scenarios may still opt into a tighter or looser cap of their own *)
        let params =
          if sc.params.SF.max_failures = 0 then
            { sc.params with SF.max_failures = max_failures }
          else sc.params
        in
        let samples = Array.make runs 0. in
        let truncs = Array.make runs false in
        let worker lo hi =
          for r = lo to hi - 1 do
            let out =
              SF.run ?replica_cost
                ~rng:(run_rng ~seed ~scenario:si ~run:r)
                params g sched
            in
            samples.(r) <- out.SF.makespan;
            truncs.(r) <- out.SF.truncated
          done
        in
        (* split [0, runs) into [domains] contiguous chunks; disjoint writes
           into [samples] need no synchronization *)
        let chunk = runs / domains and rem = runs mod domains in
        let start i = (i * chunk) + Int.min i rem in
        let handles =
          List.init (domains - 1) (fun i ->
              let i = i + 1 in
              Domain.spawn (fun () -> worker (start i) (start (i + 1))))
        in
        worker 0 (start 1);
        List.iter Domain.join handles;
        let set = Sample_set.create () in
        Array.iter (Sample_set.add set) samples;
        let mean = Sample_set.mean set in
        let p95 = Sample_set.quantile set 0.95 in
        let p99 = Sample_set.quantile set 0.99 in
        {
          scenario = sc;
          mean;
          p95;
          p99;
          mean_degradation = mean /. nominal_makespan;
          tail_degradation = p99 /. nominal_makespan;
          divergent =
            Array.fold_left (fun acc t -> if t then acc + 1 else acc) 0 truncs;
        })
      scenarios
  in
  let robustness =
    (* truncated makespans are lower bounds, so a divergent scenario makes
       every ratio meaningless-optimistic: a schedule that cannot finish must
       never outrank one that can *)
    if List.exists (fun r -> r.divergent > 0) results then Float.infinity
    else
      List.fold_left (fun acc r -> Float.max acc r.tail_degradation) 0. results
  in
  { nominal_makespan; results; robustness }

type ranked = {
  heuristic : string;
  outcome : Heuristics.outcome;
  report : report;
}

let rank ?runs ?domains ?max_failures ?(search = Heuristics.Exhaustive)
    ?replication ?replica_cost ~seed ~nominal ~scenarios g heuristics =
  List.map
    (fun (lin, ckpt) ->
      let outcome = Heuristics.run ~search nominal g ~lin ~ckpt in
      (* the checkpoint placement is optimized unreplicated; the replication
         policy then spends its budget on top, and the stressed schedule is
         the replicated one *)
      let outcome, suffix =
        match replication with
        | None | Some Wfc_core.Replication.No_replication -> (outcome, "")
        | Some spec ->
            ( Heuristics.replicate ?cost:replica_cost spec nominal g outcome,
              "+" ^ Wfc_core.Replication.spec_name spec )
      in
      let report =
        evaluate ?replica_cost ?runs ?domains ?max_failures ~seed ~nominal
          ~scenarios g outcome.Heuristics.schedule
      in
      { heuristic = Heuristics.name lin ckpt ^ suffix; outcome; report })
    heuristics
  |> List.stable_sort (fun a b ->
         match Float.compare a.report.robustness b.report.robustness with
         | 0 ->
             Float.compare a.outcome.Heuristics.makespan
               b.outcome.Heuristics.makespan
         | c -> c)
