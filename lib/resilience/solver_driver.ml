open Wfc_core
module Metrics = Wfc_obs.Metrics
module Trace = Wfc_obs.Trace

type tier = Exact | Local_search | Heuristic

let tier_name = function
  | Exact -> "exact"
  | Local_search -> "local-search"
  | Heuristic -> "heuristic"

(* Every solve records which tier it landed on, and why, as both a counter
   (driver.tier.<name>) and a trace instant carrying the human-readable
   reason. *)
let m_tiers =
  List.map
    (fun tier -> (tier, Metrics.counter ("driver.tier." ^ tier_name tier)))
    [ Exact; Local_search; Heuristic ]

let record_tier tier reason =
  Metrics.incr (List.assoc tier m_tiers);
  Trace.instant "driver.tier"
    ~args:[ ("tier", tier_name tier); ("reason", reason) ]

type config = {
  max_nodes : int;
  deadline : float option;
  search : Heuristics.search;
  fallbacks : (Wfc_dag.Linearize.strategy * Heuristics.ckpt_strategy) list;
  ls_evaluations : int;
  backend : Eval_engine.backend;
  bnb_domains : int;
}

let default_config =
  {
    max_nodes = 1_000_000;
    deadline = None;
    search = Heuristics.Exhaustive;
    backend = Eval_engine.Flat;
    bnb_domains = 1;
    fallbacks =
      List.map
        (fun ckpt -> (Wfc_dag.Linearize.Depth_first, ckpt))
        [
          Heuristics.Ckpt_weight;
          Heuristics.Ckpt_cost;
          Heuristics.Ckpt_outweight;
          Heuristics.Ckpt_periodic;
        ];
    ls_evaluations = 2000;
  }

type result = {
  schedule : Schedule.t;
  makespan : float;
  tier : tier;
  reason : string;
  nodes : int;
  elapsed : float;
}

let solve ?(config = default_config) ?(cancel = Wfc_platform.Cancel.never)
    ?engine model g ~order =
  Trace.with_span "driver.solve" @@ fun () ->
  let finish r = record_tier r.tier r.reason; r in
  let t0 = Unix.gettimeofday () in
  (* one engine for the exact tier and the hill climb of its incumbent *)
  let engine = Flat_engine.bind ?engine model g ~order in
  let should_stop =
    match config.deadline with
    | None -> fun () -> false
    | Some limit -> fun () -> Unix.gettimeofday () -. t0 > limit
  in
  let sol, status =
    Trace.with_span "driver.exact" (fun () ->
        Exact_solver.optimal_checkpoints_within ~max_nodes:config.max_nodes
          ~should_stop ~cancel ~domains:config.bnb_domains engine)
  in
  let elapsed () = Unix.gettimeofday () -. t0 in
  match status with
  | `Optimal ->
      finish {
        schedule = sol.Exact_solver.schedule;
        makespan = sol.Exact_solver.makespan;
        tier = Exact;
        reason =
          Printf.sprintf "branch and bound completed within budget (%d nodes)"
            sol.Exact_solver.nodes;
        nodes = sol.Exact_solver.nodes;
        elapsed = elapsed ();
      }
  | `Budget_exhausted ->
      (* tier 2: refine the incumbent the truncated search left behind *)
      let ls =
        Trace.with_span "driver.local_search" (fun () ->
            Local_search.improve ~max_evaluations:config.ls_evaluations
              ~engine ~cancel model g sol.Exact_solver.schedule)
      in
      (* tier 3: the configured heuristic chain, on their own linearizations *)
      let best_fallback =
        Trace.with_span "driver.fallbacks" @@ fun () ->
        List.fold_left
          (fun best (lin, ckpt) ->
            let o =
              Heuristics.run ~search:config.search ~cancel model g ~lin ~ckpt
            in
            match best with
            | Some (_, b) when b.Heuristics.makespan <= o.Heuristics.makespan ->
                best
            | _ -> Some (Heuristics.name lin ckpt, o))
          None config.fallbacks
      in
      let stopped =
        (* the budget check fires on the node after the limit, so clamp for
           the human-facing count *)
        Printf.sprintf "exact search stopped after %d of %d nodes"
          (Int.min sol.Exact_solver.nodes config.max_nodes)
          config.max_nodes
      in
      let from_local_search reason_tail =
        finish {
          schedule = ls.Local_search.schedule;
          makespan = ls.Local_search.makespan;
          tier = Local_search;
          reason = Printf.sprintf "%s; %s" stopped reason_tail;
          nodes = sol.Exact_solver.nodes;
          elapsed = elapsed ();
        }
      in
      (match best_fallback with
      | Some (name, o) when o.Heuristics.makespan < ls.Local_search.makespan ->
          finish {
            schedule = o.Heuristics.schedule;
            makespan = o.Heuristics.makespan;
            tier = Heuristic;
            reason = Printf.sprintf "%s; fallback heuristic %s won" stopped name;
            nodes = sol.Exact_solver.nodes;
            elapsed = elapsed ();
          }
      | Some (name, _) ->
          from_local_search
            (Printf.sprintf "hill-climbed incumbent beat fallback %s" name)
      | None -> from_local_search "no fallback heuristics configured")

(* ---- suffix replanning ------------------------------------------------- *)

let m_replans = Metrics.counter "driver.suffix_replans"
let m_replan_evals = Metrics.counter "driver.suffix_evaluations"

type suffix_result = {
  flags : bool array;
  expected_remaining : float;
  evaluations : int;
}

let default_suffix_budget = 256

(* Candidate order is deterministic: incumbent, suffix-all-off,
   suffix-all-on, then best-improvement single flips scanned in position
   order. A reused engine and a fresh one score every candidate
   bit-identically (the makespan is a pure function of the flag vector),
   so the search path and the returned flags do not depend on which engine
   ran it. *)
let solve_suffix ?(budget = default_suffix_budget) ?engine model g ~order
    ~flags ~from =
  Trace.with_span "driver.solve_suffix" @@ fun () ->
  let n = Array.length order in
  if budget < 1 then invalid_arg "Solver_driver.solve_suffix: budget < 1";
  if Array.length flags <> n then
    invalid_arg "Solver_driver.solve_suffix: flags have the wrong size";
  if from < 0 || from > n then
    invalid_arg "Solver_driver.solve_suffix: position out of range";
  let e = Flat_engine.bind ?engine model g ~order in
  let evals = ref 0 in
  let eval cand =
    incr evals;
    Flat_engine.set_flags e cand;
    Flat_engine.suffix_makespan e ~from
  in
  let best_flags = Array.copy flags in
  let best = ref (eval best_flags) in
  let consider cand =
    if !evals < budget && cand <> best_flags then begin
      let v = eval cand in
      if v < !best then begin
        best := v;
        Array.blit cand 0 best_flags 0 n
      end
    end
  in
  let suffix_tasks = Array.sub order from (n - from) in
  let with_suffix b =
    let c = Array.copy flags in
    Array.iter (fun v -> c.(v) <- b) suffix_tasks;
    c
  in
  consider (with_suffix false);
  consider (with_suffix true);
  let improved = ref true in
  while !improved && !evals < budget do
    improved := false;
    let round_best = ref !best and round_task = ref (-1) in
    let p = ref from in
    while !p < n && !evals < budget do
      let v = order.(!p) in
      best_flags.(v) <- not best_flags.(v);
      let sc = eval best_flags in
      best_flags.(v) <- not best_flags.(v);
      (* strict improvement, first position wins ties: deterministic *)
      if sc < !round_best then begin
        round_best := sc;
        round_task := v
      end;
      incr p
    done;
    if !round_task >= 0 then begin
      best_flags.(!round_task) <- not best_flags.(!round_task);
      best := !round_best;
      improved := true
    end
  done;
  (* leave a reused engine holding the chosen flags *)
  if Option.is_some engine then Flat_engine.set_flags e best_flags;
  if Metrics.enabled () then begin
    Metrics.incr m_replans;
    Metrics.add m_replan_evals !evals
  end;
  { flags = best_flags; expected_remaining = !best; evaluations = !evals }

(* Adapter wiring [solve_suffix] into the adaptive executor's callback slot
   (a callback because wfc_simulator must not depend back on this library).
   Engines are cached per order: an adaptive run keeps one order — two
   lineages with relinearization — so a tiny LRU covers every replan after
   the first, and [set_model] inside [solve_suffix] rebinds the estimated
   rate without losing the cached lost-work rows. *)
let replanner ?(budget = default_suffix_budget) ?relinearize g =
  let cache = ref [] in
  let max_cached = 4 in
  let engine_for model order =
    match List.find_opt (fun (o, _) -> o = order) !cache with
    | Some (_, e) -> e
    | None ->
        let e = Flat_engine.create model g ~order in
        cache :=
          (Array.copy order, e)
          :: List.filteri (fun i _ -> i < max_cached - 1) !cache;
        e
  in
  fun ~model ~order ~flags ~from ->
    let solve ~budget order flags =
      let engine = engine_for model order in
      solve_suffix ~budget ~engine model g ~order ~flags ~from
    in
    match relinearize with
    | None ->
        let r = solve ~budget order flags in
        Some { Wfc_simulator.Sim_adaptive.order; flags = r.flags }
    | Some strategy ->
        let n = Array.length order in
        let in_prefix = Array.make n false in
        for p = 0 to from - 1 do
          in_prefix.(order.(p)) <- true
        done;
        (* prefix ++ (full relinearization filtered to remaining tasks):
           the prefix is ancestor-closed, so the result is a linearization *)
        let relin = Array.copy order in
        let q = ref from in
        Array.iter
          (fun v ->
            if not in_prefix.(v) then begin
              relin.(!q) <- v;
              incr q
            end)
          (Wfc_dag.Linearize.run strategy g);
        if relin = order then
          let r = solve ~budget order flags in
          Some { Wfc_simulator.Sim_adaptive.order; flags = r.flags }
        else begin
          let half = Int.max 1 (budget / 2) in
          let r0 = solve ~budget:half order flags in
          let r1 = solve ~budget:half relin flags in
          if r1.expected_remaining < r0.expected_remaining then
            Some { Wfc_simulator.Sim_adaptive.order = relin; flags = r1.flags }
          else Some { Wfc_simulator.Sim_adaptive.order; flags = r0.flags }
        end
