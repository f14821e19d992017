module Dag = Wfc_dag.Dag
module Linearize = Wfc_dag.Linearize
module Dist = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module Heuristics = Wfc_core.Heuristics
module Metrics = Wfc_obs.Metrics
module Table = Wfc_reporting.Table

type instance = {
  path : string;
  name : string;
  format : Wfc_io.Workflow_io.format;
  dag : Dag.t;
}

(* ---- ingestion ---- *)

let load_paths ?cost paths =
  let loaded = Metrics.counter "corpus.instances" in
  let errors = Metrics.counter "corpus.load_errors" in
  let instances, skipped =
    List.fold_left
      (fun (instances, skipped) path ->
        match Wfc_io.Workflow_io.load_with_format path with
        | Error msg ->
            Metrics.incr errors;
            (instances, (path, msg) :: skipped)
        | Ok (format, dag) ->
            Metrics.incr loaded;
            let dag =
              match cost with
              | None -> dag
              | Some c -> Wfc_workflows.Cost_model.ensure c dag
            in
            ( { path; name = Filename.basename path; format; dag } :: instances,
              skipped ))
      ([], []) paths
  in
  (List.rev instances, List.rev skipped)

let load_dir ?cost dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
      Array.sort compare entries;
      let paths =
        Array.to_list entries
        |> List.filter Wfc_io.Workflow_io.is_workflow_file
        |> List.map (Filename.concat dir)
      in
      Ok (load_paths ?cost paths)

(* ---- scenarios ---- *)

type scenario = Relative of float | Law of Dist.t

let scenario_name = function
  | Relative r -> Printf.sprintf "mtbf=%gW" r
  | Law d -> Dist.name d

let scenario_mtbf s g =
  match s with
  | Relative r ->
      let w = Dag.total_weight g in
      if w > 0. then r *. w else r
  | Law d -> Dist.mean d

let scenario_model ?downtime s g =
  FM.of_mtbf ~mtbf:(scenario_mtbf s g) ?downtime ()

let default_scenarios = [ Relative 0.1; Relative 1.; Relative 10. ]

(* ---- configuration ---- *)

type config = {
  scenarios : scenario list;
  heuristics : (Linearize.strategy * Heuristics.ckpt_strategy) list;
  search : Heuristics.search;
  backend : Wfc_core.Eval_engine.backend;
  replication : Wfc_core.Replication.spec;
  replica_cost : float;
  downtime : float;
  exact_budget : int;
  exact_deadline : float option;
  exact_max_n : int;
  domains : int;
  seed : int;
}

let default_config =
  {
    scenarios = default_scenarios;
    heuristics =
      List.map
        (fun ckpt -> (Linearize.Depth_first, ckpt))
        Heuristics.all_ckpt_strategies;
    search = Heuristics.Grid 16;
    backend = Wfc_core.Eval_engine.Flat;
    replication = Wfc_core.Replication.No_replication;
    replica_cost = Wfc_core.Replication.default_cost;
    downtime = 0.;
    exact_budget = 0;
    exact_deadline = None;
    exact_max_n = 24;
    domains = 1;
    seed = 42;
  }

(* ---- sweep ---- *)

type cell = { heuristic : string; ratio : float; n_ckpt : int }

type row = {
  workflow : string;
  wf_format : string;
  n : int;
  n_edges : int;
  total_weight : float;
  scenario : string;
  mtbf : float;
  cells : cell list;
  best : string;
  best_ratio : float;
  exact : (string * float) option;
}

type report = {
  rows : row list;
  skipped : (string * string) list;
  scenario_names : string list;
  heuristic_names : string list;
  backend_name : string;
}

(* mirror of Evaluator.ratio's zero-weight convention *)
let ratio_of ~tinf m = if tinf > 0. then m /. tinf else if m = 0. then 1. else infinity

let job config instances scenarios k =
  let n_scen = Array.length scenarios in
  let inst = instances.(k / n_scen) in
  let scen = scenarios.(k mod n_scen) in
  let g = inst.dag in
  let model = scenario_model ~downtime:config.downtime scen g in
  let tinf = Wfc_dag.Dag.total_weight g in
  (* each job owns its RF stream, derived from the job index: results do not
     depend on which domain runs the job *)
  let rng = Wfc_platform.Rng.create (config.seed + (7919 * k)) in
  let rand b = Wfc_platform.Rng.int rng b in
  let evals = Metrics.counter "corpus.evaluations" in
  let cells =
    List.map
      (fun (lin, ckpt) ->
        let o =
          Heuristics.run_replicated ~search:config.search
            ~backend:config.backend ~rand ~cost:config.replica_cost
            config.replication model g ~lin ~ckpt
        in
        Metrics.add evals o.Heuristics.evaluations;
        {
          heuristic = Heuristics.name lin ckpt;
          ratio = ratio_of ~tinf o.Heuristics.makespan;
          n_ckpt = o.Heuristics.n_ckpt;
        })
      config.heuristics
  in
  let best, best_ratio =
    List.fold_left
      (fun (bn, br) c -> if c.ratio < br then (c.heuristic, c.ratio) else (bn, br))
      ("-", infinity) cells
  in
  let exact =
    if config.exact_budget <= 0 || Dag.n_tasks g > config.exact_max_n then None
    else begin
      let order = Linearize.run Linearize.Depth_first g in
      let dconf =
        {
          Wfc_resilience.Solver_driver.default_config with
          max_nodes = config.exact_budget;
          deadline = config.exact_deadline;
          search = config.search;
          backend = config.backend;
        }
      in
      let r = Wfc_resilience.Solver_driver.solve ~config:dconf model g ~order in
      Some
        ( Wfc_resilience.Solver_driver.tier_name
            r.Wfc_resilience.Solver_driver.tier,
          ratio_of ~tinf r.Wfc_resilience.Solver_driver.makespan )
    end
  in
  Metrics.incr (Metrics.counter "corpus.jobs");
  {
    workflow = inst.name;
    wf_format = Wfc_io.Workflow_io.format_name inst.format;
    n = Dag.n_tasks g;
    n_edges = Dag.n_edges g;
    total_weight = Dag.total_weight g;
    scenario = scenario_name scen;
    mtbf = scenario_mtbf scen g;
    cells;
    best;
    best_ratio;
    exact;
  }

let sweep ?(config = default_config) ?(skipped = []) instances =
  let instances = Array.of_list instances in
  let scenarios = Array.of_list config.scenarios in
  let total = Array.length instances * Array.length scenarios in
  let rows =
    if total = 0 then []
    else begin
      let chunks =
        Wfc_platform.Domain_pool.chunks ~total ~domains:(max 1 config.domains)
      in
      Wfc_platform.Domain_pool.run ~domains:(Array.length chunks) (fun i ->
          let start, len = chunks.(i) in
          List.init len (fun j -> job config instances scenarios (start + j)))
      |> List.concat
    end
  in
  {
    rows;
    skipped;
    scenario_names = List.map scenario_name config.scenarios;
    heuristic_names =
      List.map (fun (l, c) -> Heuristics.name l c) config.heuristics;
    backend_name = Wfc_core.Eval_engine.backend_name config.backend;
  }

let diff a b =
  let close = Wfc_core.Eval_engine.backends_agree in
  let same_cell c d =
    c.heuristic = d.heuristic && c.n_ckpt = d.n_ckpt && close c.ratio d.ratio
  in
  let same_row r s =
    r.workflow = s.workflow && r.wf_format = s.wf_format && r.n = s.n
    && r.n_edges = s.n_edges && r.scenario = s.scenario && r.best = s.best
    && close r.total_weight s.total_weight
    && close r.mtbf s.mtbf
    && close r.best_ratio s.best_ratio
    && List.equal same_cell r.cells s.cells
    && Option.equal (fun (t, x) (u, y) -> t = u && close x y) r.exact s.exact
  in
  if
    a.skipped <> b.skipped
    || a.scenario_names <> b.scenario_names
    || a.heuristic_names <> b.heuristic_names
    || List.compare_lengths a.rows b.rows <> 0
  then Some "report headers or row counts differ"
  else
    List.find_map
      (fun (r, s) ->
        if same_row r s then None
        else Some (Printf.sprintf "row %s %s differs" r.workflow r.scenario))
      (List.combine a.rows b.rows)

(* ---- rendering ---- *)

let ratio_text x = Printf.sprintf "%.4f" x

let tables report =
  let has_exact = List.exists (fun r -> r.exact <> None) report.rows in
  List.map
    (fun scen ->
      let columns =
        [ "workflow"; "fmt"; "n" ]
        @ report.heuristic_names
        @ [ "best" ]
        @ (if has_exact then [ "exact" ] else [])
      in
      let t = Table.create ~columns in
      List.iter
        (fun r ->
          if r.scenario = scen then
            Table.add_row t
              ([ r.workflow; r.wf_format; string_of_int r.n ]
              @ List.map (fun c -> ratio_text c.ratio) r.cells
              @ [ r.best ]
              @
              match (has_exact, r.exact) with
              | false, _ -> []
              | true, None -> [ "-" ]
              | true, Some (tier, ratio) ->
                  [ Printf.sprintf "%s %s" tier (ratio_text ratio) ]))
        report.rows;
      (scen, t))
    report.scenario_names

let print_report report =
  List.iter
    (fun (path, msg) -> Printf.printf "skipped %s: %s\n" path msg)
    report.skipped;
  List.iteri
    (fun i (scen, t) ->
      if i > 0 then print_newline ();
      Printf.printf "scenario %s (backend %s)\n" scen report.backend_name;
      Table.print t)
    (tables report)

let json_ratio x =
  if Float.is_finite x then Wfc_io.Json.Number x
  else Wfc_io.Json.String (Printf.sprintf "%h" x)

let to_json report =
  let open Wfc_io.Json in
  let strings l = List (Stdlib.List.map (fun s -> String s) l) in
  let cell c =
    Assoc
      [
        ("heuristic", String c.heuristic);
        ("ratio", json_ratio c.ratio);
        ("n_ckpt", Number (float_of_int c.n_ckpt));
      ]
  in
  let row r =
    Assoc
      [
        ("workflow", String r.workflow);
        ("format", String r.wf_format);
        ("n", Number (float_of_int r.n));
        ("edges", Number (float_of_int r.n_edges));
        ("total_weight", Number r.total_weight);
        ("scenario", String r.scenario);
        ("mtbf", Number r.mtbf);
        ("cells", List (Stdlib.List.map cell r.cells));
        ("best", String r.best);
        ("best_ratio", json_ratio r.best_ratio);
        ( "exact",
          match r.exact with
          | None -> Null
          | Some (tier, ratio) ->
              Assoc [ ("tier", String tier); ("ratio", json_ratio ratio) ] );
      ]
  in
  Assoc
    [
      ("schema", String "wfc-corpus/1");
      ("backend", String report.backend_name);
      ("scenarios", strings report.scenario_names);
      ("heuristics", strings report.heuristic_names);
      ( "skipped",
        List
          (Stdlib.List.map
             (fun (p, m) ->
               Assoc [ ("path", String p); ("error", String m) ])
             report.skipped) );
      ("rows", List (Stdlib.List.map row report.rows));
    ]
