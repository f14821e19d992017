type ckpt_strategy =
  | Ckpt_never
  | Ckpt_always
  | Ckpt_weight
  | Ckpt_cost
  | Ckpt_outweight
  | Ckpt_periodic
  | Ckpt_efficiency

let all_ckpt_strategies =
  [ Ckpt_never; Ckpt_always; Ckpt_weight; Ckpt_cost; Ckpt_outweight;
    Ckpt_periodic ]

let extended_ckpt_strategies = all_ckpt_strategies @ [ Ckpt_efficiency ]

let ckpt_strategy_name = function
  | Ckpt_never -> "CkptNvr"
  | Ckpt_always -> "CkptAlws"
  | Ckpt_weight -> "CkptW"
  | Ckpt_cost -> "CkptC"
  | Ckpt_outweight -> "CkptD"
  | Ckpt_periodic -> "CkptPer"
  | Ckpt_efficiency -> "CkptE"

let ckpt_strategy_of_string s =
  match String.lowercase_ascii s with
  | "ckptnvr" | "never" -> Some Ckpt_never
  | "ckptalws" | "always" -> Some Ckpt_always
  | "ckptw" | "weight" -> Some Ckpt_weight
  | "ckptc" | "cost" -> Some Ckpt_cost
  | "ckptd" | "outweight" -> Some Ckpt_outweight
  | "ckptper" | "periodic" -> Some Ckpt_periodic
  | "ckpte" | "efficiency" -> Some Ckpt_efficiency
  | _ -> None

type search = Exhaustive | Grid of int

let candidate_counts search ~n =
  if n <= 1 then []
  else
    let all = List.init (n - 1) (fun i -> i + 1) in
    match search with
    | Exhaustive -> all
    | Grid budget when n - 1 <= budget -> all
    | Grid budget ->
        if budget < 2 then invalid_arg "Heuristics: grid budget too small";
        (* half the budget spread geometrically (resolution where the
           makespan curve bends), half linearly (coverage of large N) *)
        let geo = budget / 2 and lin = budget - (budget / 2) in
        let module Iset = Set.Make (Int) in
        let acc = ref (Iset.of_list [ 1; n - 1 ]) in
        let top = float_of_int (n - 1) in
        for j = 0 to geo - 1 do
          let x = top ** (float_of_int j /. float_of_int (Int.max 1 (geo - 1))) in
          acc := Iset.add (Int.max 1 (int_of_float (Float.round x))) !acc
        done;
        for j = 0 to lin - 1 do
          let x = 1. +. (top -. 1.) *. float_of_int j /. float_of_int (Int.max 1 (lin - 1)) in
          acc := Iset.add (Int.max 1 (int_of_float (Float.round x))) !acc
        done;
        Iset.elements !acc

(* Order task ids by a strategy-specific key, best-to-checkpoint first; ties
   broken by id for determinism. *)
let ranked_tasks strategy g =
  let n = Wfc_dag.Dag.n_tasks g in
  let ids = Array.init n Fun.id in
  let key =
    match strategy with
    | Ckpt_weight -> fun v -> -.(Wfc_dag.Dag.task g v).Wfc_dag.Task.weight
    | Ckpt_cost -> fun v -> (Wfc_dag.Dag.task g v).Wfc_dag.Task.checkpoint_cost
    | Ckpt_outweight -> fun v -> -.Wfc_dag.Dag.outweight g v
    | Ckpt_efficiency ->
        (* extension: protected work per checkpoint second, decreasing *)
        fun v ->
          let t = Wfc_dag.Dag.task g v in
          -.(t.Wfc_dag.Task.weight
             /. Float.max 1e-9 t.Wfc_dag.Task.checkpoint_cost)
    | Ckpt_never | Ckpt_always | Ckpt_periodic ->
        invalid_arg "Heuristics.ranked_tasks: not a ranking strategy"
  in
  Array.sort
    (fun a b ->
      match Float.compare (key a) (key b) with
      | 0 -> Int.compare a b
      | c -> c)
    ids;
  ids

let periodic_flags g ~order ~n_ckpt =
  let n = Array.length order in
  let flags = Array.make n false in
  if n_ckpt >= 2 then begin
    let total = Wfc_dag.Dag.total_weight g in
    let period = total /. float_of_int n_ckpt in
    (* walk the failure-free timeline; checkpoint the first task completing
       at or after each threshold x * W / N *)
    let elapsed = ref 0. and next = ref 1 in
    Array.iter
      (fun v ->
        elapsed := !elapsed +. (Wfc_dag.Dag.task g v).Wfc_dag.Task.weight;
        if !next < n_ckpt && !elapsed >= (float_of_int !next *. period) -. 1e-9
        then begin
          flags.(v) <- true;
          while
            !next < n_ckpt
            && !elapsed >= (float_of_int !next *. period) -. 1e-9
          do
            incr next
          done
        end)
      order
  end;
  flags

let checkpoint_flags strategy g ~order ~n_ckpt =
  let n = Wfc_dag.Dag.n_tasks g in
  if n_ckpt < 0 || n_ckpt > n then
    invalid_arg "Heuristics.checkpoint_flags: n_ckpt out of range";
  match strategy with
  | Ckpt_never -> Array.make n false
  | Ckpt_always -> Array.make n true
  | Ckpt_periodic -> periodic_flags g ~order ~n_ckpt
  | Ckpt_weight | Ckpt_cost | Ckpt_outweight | Ckpt_efficiency ->
      let ranked = ranked_tasks strategy g in
      let flags = Array.make n false in
      for j = 0 to n_ckpt - 1 do
        flags.(ranked.(j)) <- true
      done;
      flags

type outcome = {
  schedule : Schedule.t;
  makespan : float;
  n_ckpt : int;
  evaluations : int;
}

let name lin ckpt =
  Wfc_dag.Linearize.strategy_name lin ^ "-" ^ ckpt_strategy_name ckpt

module Metrics = Wfc_obs.Metrics

let m_search_runs = Metrics.counter "search.runs"
let m_candidates = Metrics.counter "search.candidates"

let m_strategy_candidates =
  List.map
    (fun ckpt ->
      (ckpt, Metrics.counter ("search.candidates." ^ ckpt_strategy_name ckpt)))
    extended_ckpt_strategies

let record_outcome ckpt (o : outcome) =
  Metrics.incr m_search_runs;
  Metrics.add m_candidates o.evaluations;
  Metrics.add (List.assoc ckpt m_strategy_candidates) o.evaluations;
  o

let run ?(search = Exhaustive) ?backend:_ ?rand ?engine
    ?(cancel = Wfc_platform.Cancel.never) model g ~lin ~ckpt =
  Wfc_obs.Trace.with_span "heuristics.run" ~args:[ ("heuristic", name lin ckpt) ]
  @@ fun () ->
  record_outcome ckpt
  @@
  let poll () = Wfc_platform.Cancel.check cancel in
  poll ();
  let order = Wfc_dag.Linearize.run ?rand lin g in
  let n = Wfc_dag.Dag.n_tasks g in
  let counts =
    match ckpt with
    | Ckpt_never -> [ 0 ]
    | Ckpt_always -> [ n ]
    | _ -> ( match candidate_counts search ~n with [] -> [ 0 ] | c -> c)
  in
  (* ranking strategies yield nested candidates and [candidate_counts]
     ascends, so the ranking is computed once and each candidate extends the
     previous flag vector in place instead of re-sorting the tasks per
     count. The shared vector is never stored: only the winning count is
     kept and its flags are rebuilt afterwards. *)
  let next_flags =
    match ckpt with
    | Ckpt_weight | Ckpt_cost | Ckpt_outweight | Ckpt_efficiency ->
        let ranked = ranked_tasks ckpt g in
        let flags = Array.make n false in
        let filled = ref 0 in
        fun n_ckpt ->
          while !filled < n_ckpt do
            flags.(ranked.(!filled)) <- true;
            incr filled
          done;
          flags
    | Ckpt_never | Ckpt_always | Ckpt_periodic ->
        fun n_ckpt -> checkpoint_flags ckpt g ~order ~n_ckpt
  in
  (* one engine across the sweep: consecutive candidate flag vectors differ
     in a handful of tasks, so each step costs a suffix re-evaluation
     instead of a full one. A warm [engine] (the serving layer's LRU) skips
     the build; the sweep only ever sets whole flag vectors and the engine's
     makespan is a pure function of them, so a warm engine scores every
     candidate bit-identically to a cold one whatever flags and model it
     was left holding. *)
  let engine =
    match engine with
    | Some h ->
        if Flat_engine.order h <> order then
          invalid_arg "Heuristics.run: warm engine bound to another order";
        Flat_engine.set_model h model;
        h
    | None -> Flat_engine.create model g ~order
  in
  let score flags =
    Flat_engine.set_flags engine flags;
    Flat_engine.makespan engine
  in
  let evaluations = ref 0 in
  let best = ref None in
  List.iter
    (fun n_ckpt ->
      poll ();
      let m = score (next_flags n_ckpt) in
      incr evaluations;
      match !best with
      | Some (bm, _) when bm <= m -> ()
      | _ -> best := Some (m, n_ckpt))
    counts;
  (* the reported makespan is the score the winner got in the sweep *)
  let makespan, n_ckpt = Option.get !best in
  let schedule =
    Schedule.make g ~order
      ~checkpointed:(checkpoint_flags ckpt g ~order ~n_ckpt)
  in
  { schedule; makespan; n_ckpt; evaluations = !evaluations }

(* ---- replication: the second resilience axis ---- *)

let m_replica_rounds = Metrics.counter "search.replica_rounds"

let replication_counts ?(max_replicas = 4) ?(cost = Replication.default_cost)
    ?(cancel = Wfc_platform.Cancel.never) spec model g ~sched =
  let n = Wfc_dag.Dag.n_tasks g in
  if max_replicas < 1 || max_replicas > Schedule.max_replicas then
    invalid_arg "Heuristics.replication_counts: max_replicas out of range";
  let weight v = (Wfc_dag.Dag.task g v).Wfc_dag.Task.weight in
  match spec with
  | Replication.No_replication -> Array.make n 1
  | Replication.Heavy k ->
      (* duplicate the k heaviest tasks: the ones whose lost-work intervals
         (and hence re-execution risk) dominate — the same ranking CkptW
         checkpoints first *)
      let reps = Array.make n 1 in
      let ranked = ranked_tasks Ckpt_weight g in
      for j = 0 to Int.min k n - 1 do
        reps.(ranked.(j)) <- Int.min 2 max_replicas
      done;
      reps
  | Replication.Auto | Replication.Budget _ ->
      let fraction = match spec with Replication.Budget f -> f | _ -> 0.2 in
      if not (fraction > 0. && Float.is_finite fraction) then
        invalid_arg "Heuristics.replication_counts: budget fraction";
      (* greedy marginal-gain spend: each round buy the single +1 replica
         with the best expected-makespan reduction per unit of extra work,
         until the budget (a fraction of total weight) is spent or no
         increment helps *)
      let budget = ref (fraction *. Wfc_dag.Dag.total_weight g) in
      let reps = Array.make n 1 in
      let score () =
        Replication.expected_makespan ~cost model g
          (Schedule.with_replicas sched reps)
      in
      let current = ref (score ()) in
      let improved = ref true and rounds = ref 0 in
      while !improved && !rounds < 32 do
        incr rounds;
        improved := false;
        let best = ref None in
        for v = 0 to n - 1 do
          Wfc_platform.Cancel.check cancel;
          let dc = cost *. weight v in
          if reps.(v) < max_replicas && dc <= !budget then begin
            reps.(v) <- reps.(v) + 1;
            let m = score () in
            reps.(v) <- reps.(v) - 1;
            let gain = !current -. m in
            if gain > 0. then begin
              let density = if dc > 0. then gain /. dc else Float.infinity in
              match !best with
              | Some (bd, _, _, _) when bd >= density -> ()
              | _ -> best := Some (density, v, m, dc)
            end
          end
        done;
        match !best with
        | Some (_, v, m, dc) ->
            reps.(v) <- reps.(v) + 1;
            budget := !budget -. dc;
            current := m;
            improved := true
        | None -> ()
      done;
      if Metrics.enabled () then Metrics.add m_replica_rounds !rounds;
      reps

let replicate ?max_replicas ?cost ?cancel spec model g (o : outcome) =
  match spec with
  | Replication.No_replication -> o
  | _ ->
      let reps =
        replication_counts ?max_replicas ?cost ?cancel spec model g
          ~sched:o.schedule
      in
      if Array.for_all (fun r -> r = 1) reps then o
      else
        let schedule = Schedule.with_replicas o.schedule reps in
        let makespan = Replication.expected_makespan ?cost model g schedule in
        { o with schedule; makespan; evaluations = o.evaluations + 1 }

let run_replicated ?search ?backend:_ ?rand ?max_replicas ?cost ?cancel spec
    model g ~lin ~ckpt =
  replicate ?max_replicas ?cost ?cancel spec model g
    (run ?search ?rand ?cancel model g ~lin ~ckpt)

let best_over_linearizations ?search ?rand ?cancel model g ~ckpt =
  let outcomes =
    List.map
      (fun lin -> (lin, run ?search ?rand ?cancel model g ~lin ~ckpt))
      Wfc_dag.Linearize.all
  in
  List.fold_left
    (fun ((_, acc) as best) ((_, o) as cand) ->
      if o.makespan < acc.makespan then cand else best)
    (List.hd outcomes) (List.tl outcomes)
