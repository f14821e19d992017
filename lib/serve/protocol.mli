(** Request/response vocabulary of [wfc serve].

    One set of types is shared by the binary codec ({!Codec}), the
    line-oriented text mode and the in-process dispatcher ({!Server.handle}).
    The types themselves carry no semantic invariants — {!validate} is the
    single gate both transports pass through before dispatch, so a bad
    parameter produces the same structured [bad-request] whether it arrived
    as a binary frame or as a text line. *)

type workflow_spec =
  | Generated of {
      family : Wfc_workflows.Pegasus.family;
      n : int;
      seed : int;
      cost : Wfc_workflows.Cost_model.t;
    }
  | Inline of { name : string; text : string; cost : Wfc_workflows.Cost_model.t }
      (** a workflow file shipped inside the request; any format
          {!Wfc_io.Workflow_io.load_string} can sniff *)
  | File of { path : string; cost : Wfc_workflows.Cost_model.t }
      (** a server-side path, loaded like [corpus] directories *)

type solve_params = {
  workflow : workflow_spec;
  mtbf : float;
  downtime : float;
  lin : Wfc_dag.Linearize.strategy;
  ckpt : Wfc_core.Heuristics.ckpt_strategy;
  grid : int;  (** 0 = exhaustive checkpoint-count search *)
  backend : Wfc_core.Eval_engine.backend;
      (** the wire's [engine] slot: always [Flat] (any other name is a
          [bad-request]) and ignored; kept for wfcbench, see ROADMAP
          item 3 *)
  deadline : float option;
      (** compute budget in seconds; mapped deterministically onto the
          solver-driver tiers (never a wall-clock abort, so responses stay
          byte-stable) *)
}

type request =
  | Ping
  | Solve of solve_params
  | Simulate of { params : solve_params; runs : int; mcseed : int }
  | Adapt of {
      params : solve_params;
      true_mtbf : float;
      traces : int;
      mcseed : int;
    }
  | Corpus of { dir : string; ratios : float list; grid : int }
      (** the binary frame still carries an [engine] string after [grid];
          [flat] is its only legal value *)
  | Stats
  | Sleep of float  (** seconds; deterministic load for tests and bench *)
  | Shutdown

type error_code =
  | Bad_request
  | Busy
  | Too_large
  | Internal
  | Stopping
  | Timeout
      (** the per-request watchdog cancelled a runaway compute job —
          distinct from [Busy] (refused at admission, nothing was
          computed): a [Timeout] request was admitted, ran, and was
          aborted mid-compute *)

val error_code_name : error_code -> string
(** "bad-request", "busy", "too-large", "internal", "stopping" or
    "timeout". *)

val error_code_of_string : string -> error_code option

(** Responses deliberately carry no timing, cache or backend fields: a warm
    solve must be byte-identical to a cold one, so everything
    nondeterministic lives in the [Stats] endpoint only. *)
type solved = {
  source : string;
  n_tasks : int;
  heuristic : string;
  tier : string;
  makespan : float;
  ratio : float;
  n_ckpt : int;
  ckpt_tasks : int list;
  evaluations : int;
}

type simulated = {
  solved : solved;
  runs : int;
  sim_mean : float;
  ci_lo : float;
  ci_hi : float;
  failures_mean : float;
}

type adapted = {
  asource : string;
  winner : string;
  policies : (string * float * float * float) list;
      (** policy, mean, cvar\@0.95, worst *)
}

type response =
  | Pong
  | Solved of solved
  | Simulated of simulated
  | Adapted of adapted
  | Corpus_report of { instances : int; scenarios : int; text : string }
  | Stats_report of (string * string) list
  | Slept of float
  | Bye
  | Error of { code : error_code; message : string }

val validate : request -> (unit, string) result
(** Semantic validation (positive MTBF, positive deadline, bounded sleep,
    non-empty ratio lists, …). Both transports call this before dispatch;
    an [Error msg] becomes a [bad-request] response. *)

val max_inline_bytes : int
(** Size cap on [Inline] workflow text (8 MiB). *)

val spec_source : workflow_spec -> string
(** Display name: ["montage-30"], the inline name, or the file path. *)

val default_solve : solve_params
(** Text-mode defaults: montage n=30 seed=42 cost=0.1w mtbf=1000 downtime=0
    lin=DF ckpt=CkptW grid=0 engine=flat, no deadline. *)

val request_of_line : string -> (request, string) result
(** Parse one text-mode line, e.g.
    ["solve family=montage n=30 mtbf=500 ckpt=CkptW grid=8 engine=flat"].
    Unknown commands, unknown keys and unparsable values are [Error]s;
    semantic range checks are left to {!validate}. *)

val render_response : response -> string list
(** Body lines of a response (no header, no ["."] terminator — the server
    frames them). Fixed formats, so cram output is pinnable. *)

val is_error : response -> bool
