(** Corpus-scale golden sweeps over real workflow files.

    The figure harness measures the paper's heuristics on generated Pegasus
    workflows; this rig points the same machinery at a {e directory} of
    workflow files in the wild — Pegasus DAX, WfCommons instances, native
    JSON, all ingested through {!Wfc_io.Workflow_io} — and sweeps every
    instance across a grid of failure scenarios and heuristics, in parallel
    over {!Wfc_platform.Domain_pool}.

    Everything is analytic (Theorem 3 expectations, no simulation), so a
    sweep is a pure function of the corpus and the configuration: results
    are byte-identical across runs and across domain counts, and agree
    across evaluation backends up to the last ulps of each ratio (see
    {!diff}). That determinism is what makes the committed mini-corpus
    under [test/corpus/] a golden regression suite: re-run the sweep, diff
    the tables byte for byte. *)

type instance = {
  path : string;  (** where the file was read from *)
  name : string;  (** basename, the key used in tables and reports *)
  format : Wfc_io.Workflow_io.format;
  dag : Wfc_dag.Dag.t;
}

val load_paths :
  ?cost:Wfc_workflows.Cost_model.t ->
  string list ->
  instance list * (string * string) list
(** Load each path through {!Wfc_io.Workflow_io.load_with_format}. Files
    that fail to decode are returned as [(path, message)] in the second
    component (and counted on the [corpus.load_errors] counter) — a corpus
    sweep never dies on one bad file. With [cost], uncosted DAGs (raw
    runtimes only, see {!Wfc_workflows.Cost_model.is_costed}) get their
    checkpoint/recovery costs filled in; files that already carry costs are
    kept as-is. *)

val load_dir :
  ?cost:Wfc_workflows.Cost_model.t ->
  string ->
  (instance list * (string * string) list, string) result
(** Scan a directory (sorted entry order) for
    {!Wfc_io.Workflow_io.is_workflow_file} names and {!load_paths} them.
    [Error] only when the directory itself cannot be read. *)

(** A failure scenario pins the platform model for one instance. *)
type scenario =
  | Relative of float
      (** MTBF as a multiple of the instance's total weight [W] — the
          paper's MTBF/W axis, meaningful across instances of wildly
          different scale. [Relative 0.1] means a failure every tenth of
          the failure-free makespan. *)
  | Law of Wfc_platform.Distribution.t
      (** An absolute inter-arrival law (the [--failures] grammar); the
          analytic model uses its mean as the MTBF. *)

val scenario_name : scenario -> string
(** ["mtbf=0.1W"] or the distribution's name. *)

val scenario_mtbf : scenario -> Wfc_dag.Dag.t -> float
(** The MTBF the scenario induces for this instance; always positive (a
    zero-total-weight instance falls back to the bare ratio). *)

val scenario_model :
  ?downtime:float -> scenario -> Wfc_dag.Dag.t -> Wfc_platform.Failure_model.t

val default_scenarios : scenario list
(** [[Relative 0.1; Relative 1.; Relative 10.]]. *)

type config = {
  scenarios : scenario list;
  heuristics :
    (Wfc_dag.Linearize.strategy * Wfc_core.Heuristics.ckpt_strategy) list;
      (** table columns, in order *)
  search : Wfc_core.Heuristics.search;
  backend : Wfc_core.Eval_engine.backend;
  replication : Wfc_core.Replication.spec;
  replica_cost : float;  (** surcharge per extra replica *)
  downtime : float;
  exact_budget : int;
      (** branch-and-bound node budget for the {!Wfc_resilience.Solver_driver}
          column; [0] disables it *)
  exact_deadline : float option;
      (** optional wall-clock cap per exact attempt. [None] (the default)
          keeps the sweep deterministic; a deadline trades that for bounded
          latency, so golden runs must leave it unset *)
  exact_max_n : int;
      (** instances larger than this skip the exact column *)
  domains : int;  (** parallelism of the sweep; never affects results *)
  seed : int;  (** seeds the RF linearization, per job *)
}

val default_config : config
(** Default scenarios, the paper's six checkpoint strategies under DF,
    [Grid 16] search, flat backend, no replication, no downtime,
    [exact_budget = 0], [exact_max_n = 24], one domain, seed 42. *)

type cell = {
  heuristic : string;
  ratio : float;  (** expected makespan over [T_inf] (Figures 2–7's axis) *)
  n_ckpt : int;
}

type row = {
  workflow : string;
  wf_format : string;
  n : int;
  n_edges : int;
  total_weight : float;
  scenario : string;
  mtbf : float;
  cells : cell list;  (** one per configured heuristic, in order *)
  best : string;  (** heuristic with the lowest ratio (ties: first) *)
  best_ratio : float;
  exact : (string * float) option;
      (** solver-driver tier name and ratio, when enabled *)
}

type report = {
  rows : row list;  (** instance-major, scenario-minor order *)
  skipped : (string * string) list;
  scenario_names : string list;
  heuristic_names : string list;
  backend_name : string;
}

val sweep :
  ?config:config ->
  ?skipped:(string * string) list ->
  instance list ->
  report
(** Evaluate every instance under every scenario. Jobs are distributed over
    [config.domains] with {!Wfc_platform.Domain_pool} in deterministic
    chunks; each job derives its own RF stream from [seed] and the job
    index, so the report is independent of the domain count. [skipped] is
    carried into the report verbatim. *)

val diff : report -> report -> string option
(** [diff a b] is [None] when the two reports agree: every name, tier,
    winner and count exactly, every float within 1e-9 relative
    ({!Wfc_core.Eval_engine.backends_agree}). Otherwise it names the first difference. The backend label is
    not compared — this is how a naive-backend sweep is checked against a
    flat one, whose makespans agree only to the last ulps. *)

val tables : report -> (string * Wfc_reporting.Table.t) list
(** One Figure-style table per scenario: a row per instance, a ratio column
    per heuristic, plus the winner and the exact column when present. *)

val print_report : report -> unit
(** Skipped-file warnings, then every table. *)

val to_json : report -> Wfc_io.Json.t
(** Deterministic JSON encoding of the full report (non-finite ratios are
    encoded as strings to stay valid JSON). *)
