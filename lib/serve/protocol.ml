(* Request/response vocabulary of the scheduling service, shared by the
   binary codec, the line-oriented text mode and the in-process dispatcher.

   The types carry no invariants beyond well-formedness of their OCaml
   values: the codec decodes whatever arrives and {!validate} is the single
   semantic gate both transports go through, so a nonsense parameter yields
   the same structured [bad-request] whether it came over the wire or from
   a text line. *)

module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module Lin = Wfc_dag.Linearize
module H = Wfc_core.Heuristics
module E = Wfc_core.Eval_engine

type workflow_spec =
  | Generated of { family : P.family; n : int; seed : int; cost : CM.t }
  | Inline of { name : string; text : string; cost : CM.t }
      (** a workflow file shipped in the request (any sniffable format) *)
  | File of { path : string; cost : CM.t }  (** server-side path *)

type solve_params = {
  workflow : workflow_spec;
  mtbf : float;
  downtime : float;
  lin : Lin.strategy;
  ckpt : H.ckpt_strategy;
  grid : int;  (* 0 = exhaustive checkpoint-count search *)
  backend : E.backend;
  deadline : float option;
      (* compute budget in seconds, mapped deterministically onto the
         solver-driver tiers (see Server) *)
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
  | Corpus of {
      dir : string;
      ratios : float list;
      grid : int;
      backend : E.backend;
    }
  | Stats
  | Sleep of float  (* seconds; a test and bench aid *)
  | Shutdown

type error_code =
  | Bad_request
  | Busy
  | Too_large
  | Internal
  | Stopping
  | Timeout

let error_code_name = function
  | Bad_request -> "bad-request"
  | Busy -> "busy"
  | Too_large -> "too-large"
  | Internal -> "internal"
  | Stopping -> "stopping"
  | Timeout -> "timeout"

let error_code_of_string = function
  | "bad-request" -> Some Bad_request
  | "busy" -> Some Busy
  | "too-large" -> Some Too_large
  | "internal" -> Some Internal
  | "stopping" -> Some Stopping
  | "timeout" -> Some Timeout
  | _ -> None

(* ---- semantic validation (one gate for both transports) --------------- *)

let positive what v =
  if v > 0. && Float.is_finite v then Ok ()
  else Error (Printf.sprintf "%s must be positive (got '%g')" what v)

let nonneg what v =
  if v >= 0. && Float.is_finite v then Ok ()
  else Error (Printf.sprintf "%s must be non-negative (got '%g')" what v)

let ( let* ) = Result.bind

let max_inline_bytes = 8 * 1024 * 1024

let validate_spec = function
  | Generated { n; _ } ->
      if n < 1 then Error "task count must be at least 1"
      else if n > 100_000 then Error "task count must be at most 100000"
      else Ok ()
  | Inline { text; _ } ->
      if String.length text > max_inline_bytes then
        Error "inline workflow too large (8 MiB cap)"
      else Ok ()
  | File { path; _ } ->
      if path = "" then Error "workflow file path must not be empty" else Ok ()

let validate_solve p =
  let* () = validate_spec p.workflow in
  let* () = positive "MTBF" p.mtbf in
  let* () = nonneg "downtime" p.downtime in
  let* () =
    if p.grid >= 0 then Ok () else Error "grid must be non-negative"
  in
  match p.deadline with None -> Ok () | Some d -> positive "deadline" d

let validate = function
  | Ping | Stats | Shutdown -> Ok ()
  | Solve p -> validate_solve p
  | Simulate { params; runs; _ } ->
      let* () = validate_solve params in
      if runs < 1 then Error "run count must be at least 1"
      else if runs > 10_000_000 then Error "run count must be at most 10000000"
      else Ok ()
  | Adapt { params; true_mtbf; traces; _ } ->
      let* () = validate_solve params in
      let* () = positive "true MTBF" true_mtbf in
      if traces < 1 then Error "trace count must be at least 1"
      else if traces > 10_000 then Error "trace count must be at most 10000"
      else Ok ()
  | Corpus { dir; ratios; grid; _ } ->
      let* () = if dir = "" then Error "corpus dir must not be empty" else Ok () in
      let* () =
        if ratios = [] then Error "corpus needs at least one MTBF ratio"
        else Ok ()
      in
      let* () =
        List.fold_left
          (fun acc r ->
            let* () = acc in
            positive "MTBF ratio" r)
          (Ok ()) ratios
      in
      if grid >= 0 then Ok () else Error "grid must be non-negative"
  | Sleep s ->
      if s >= 0. && s <= 10. then Ok ()
      else Error (Printf.sprintf "sleep must be in [0, 10] s (got '%g')" s)

(* ---- text mode --------------------------------------------------------- *)

(* One request per line, `cmd key=value ...`; the response block is written
   by the server as an `ok ID` / `error ID CODE MESSAGE` header, the body
   lines of {!render_response}, and a lone `.` terminator. *)

let spec_source = function
  | Generated { family; n; _ } ->
      Printf.sprintf "%s-%d" (P.family_name family) n
  | Inline { name; _ } -> name
  | File { path; _ } -> path

let default_solve =
  {
    workflow =
      Generated
        { family = P.Montage; n = 30; seed = 42; cost = CM.Proportional 0.1 };
    mtbf = 1000.;
    downtime = 0.;
    lin = Lin.Depth_first;
    ckpt = H.Ckpt_weight;
    grid = 0;
    backend = E.Flat;
    deadline = None;
  }

let kvs_of_tokens tokens =
  List.fold_left
    (fun acc tok ->
      let* acc = acc in
      match String.index_opt tok '=' with
      | Some i when i > 0 ->
          Ok
            ((String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1))
            :: acc)
      | _ -> Error (Printf.sprintf "expected key=value, got %S" tok))
    (Ok []) tokens
  |> Result.map List.rev

let parse_float what v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "invalid %s %S" what v)

let parse_int what v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "invalid %s %S" what v)

let parse_with what of_string v =
  match of_string v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "unknown %s %S" what v)

let parse_ratios v =
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      let* r = parse_float "MTBF ratio" (String.trim part) in
      Ok (r :: acc))
    (Ok [])
    (String.split_on_char ',' v)
  |> Result.map List.rev

(* The generator keys and [file=] are folded into the workflow spec last so
   their order on the line does not matter. *)
type spec_acc = {
  family : P.family;
  sn : int;
  sseed : int;
  scost : CM.t;
  file : string option;
}

let solve_of_kvs kvs =
  let spec =
    { family = P.Montage; sn = 30; sseed = 42;
      scost = CM.Proportional 0.1; file = None }
  in
  let* p, spec, rest =
    List.fold_left
      (fun acc (k, v) ->
        let* p, spec, rest = acc in
        match k with
        | "family" ->
            let* f = parse_with "workflow family" P.family_of_string v in
            Ok (p, { spec with family = f }, rest)
        | "n" ->
            let* n = parse_int "task count" v in
            Ok (p, { spec with sn = n }, rest)
        | "seed" ->
            let* s = parse_int "seed" v in
            Ok (p, { spec with sseed = s }, rest)
        | "cost" ->
            let* c = parse_with "cost model" CM.of_string v in
            Ok (p, { spec with scost = c }, rest)
        | "file" -> Ok (p, { spec with file = Some v }, rest)
        | "mtbf" ->
            let* f = parse_float "MTBF" v in
            Ok ({ p with mtbf = f }, spec, rest)
        | "downtime" ->
            let* f = parse_float "downtime" v in
            Ok ({ p with downtime = f }, spec, rest)
        | "lin" ->
            let* l = parse_with "linearization" Lin.strategy_of_string v in
            Ok ({ p with lin = l }, spec, rest)
        | "ckpt" ->
            let* c =
              parse_with "checkpoint strategy" H.ckpt_strategy_of_string v
            in
            Ok ({ p with ckpt = c }, spec, rest)
        | "grid" ->
            let* g = parse_int "grid" v in
            Ok ({ p with grid = g }, spec, rest)
        | "engine" ->
            let* b = parse_with "engine" E.backend_of_string v in
            Ok ({ p with backend = b }, spec, rest)
        | "deadline" ->
            let* d = parse_float "deadline" v in
            Ok ({ p with deadline = Some d }, spec, rest)
        | _ -> Ok (p, spec, (k, v) :: rest))
      (Ok (default_solve, spec, []))
      kvs
  in
  let workflow =
    match spec.file with
    | Some path -> File { path; cost = spec.scost }
    | None ->
        Generated
          { family = spec.family; n = spec.sn; seed = spec.sseed;
            cost = spec.scost }
  in
  Ok ({ p with workflow }, List.rev rest)

let no_extras cmd rest k =
  match rest with
  | [] -> k ()
  | (key, _) :: _ ->
      Error (Printf.sprintf "unknown %s parameter %S" cmd key)

let request_of_line line =
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "empty request"
  | cmd :: args -> (
      let* kvs = kvs_of_tokens args in
      match cmd with
      | "ping" -> no_extras cmd kvs (fun () -> Ok Ping)
      | "stats" -> no_extras cmd kvs (fun () -> Ok Stats)
      | "shutdown" -> no_extras cmd kvs (fun () -> Ok Shutdown)
      | "sleep" ->
          let* ms, rest =
            List.fold_left
              (fun acc (k, v) ->
                let* ms, rest = acc in
                match k with
                | "ms" ->
                    let* f = parse_float "sleep duration" v in
                    Ok (f, rest)
                | _ -> Ok (ms, (k, v) :: rest))
              (Ok (0., [])) kvs
          in
          no_extras cmd rest (fun () -> Ok (Sleep (ms /. 1000.)))
      | "solve" ->
          let* p, rest = solve_of_kvs kvs in
          no_extras cmd rest (fun () -> Ok (Solve p))
      | "simulate" ->
          let* p, rest = solve_of_kvs kvs in
          let* (runs, mcseed), rest =
            List.fold_left
              (fun acc (k, v) ->
                let* (runs, mcseed), rest = acc in
                match k with
                | "runs" ->
                    let* r = parse_int "run count" v in
                    Ok ((r, mcseed), rest)
                | "mcseed" ->
                    let* s = parse_int "mcseed" v in
                    Ok ((runs, s), rest)
                | _ -> Ok ((runs, mcseed), (k, v) :: rest))
              (Ok ((1000, 42), []))
              rest
          in
          no_extras cmd rest (fun () ->
              Ok (Simulate { params = p; runs; mcseed }))
      | "adapt" ->
          let* p, rest = solve_of_kvs kvs in
          let* (true_mtbf, traces, mcseed), rest =
            List.fold_left
              (fun acc (k, v) ->
                let* (tm, tr, ms), rest = acc in
                match k with
                | "true-mtbf" ->
                    let* f = parse_float "true MTBF" v in
                    Ok ((Some f, tr, ms), rest)
                | "traces" ->
                    let* t = parse_int "trace count" v in
                    Ok ((tm, t, ms), rest)
                | "mcseed" ->
                    let* s = parse_int "mcseed" v in
                    Ok ((tm, tr, s), rest)
                | _ -> Ok ((tm, tr, ms), (k, v) :: rest))
              (Ok ((None, 20, 42), []))
              rest
          in
          no_extras cmd rest (fun () ->
              Ok
                (Adapt
                   {
                     params = p;
                     true_mtbf = Option.value true_mtbf ~default:p.mtbf;
                     traces;
                     mcseed;
                   }))
      | "corpus" ->
          let* (dir, ratios, grid, backend), rest =
            List.fold_left
              (fun acc (k, v) ->
                let* (dir, ratios, grid, backend), rest = acc in
                match k with
                | "dir" -> Ok ((Some v, ratios, grid, backend), rest)
                | "ratios" ->
                    let* rs = parse_ratios v in
                    Ok ((dir, rs, grid, backend), rest)
                | "grid" ->
                    let* g = parse_int "grid" v in
                    Ok ((dir, ratios, g, backend), rest)
                | "engine" ->
                    let* b = parse_with "engine" E.backend_of_string v in
                    Ok ((dir, ratios, grid, b), rest)
                | _ -> Ok ((dir, ratios, grid, backend), (k, v) :: rest))
              (Ok ((None, [ 0.1; 1.; 10. ], 16, E.Flat), []))
              kvs
          in
          no_extras cmd rest (fun () ->
              match dir with
              | None -> Error "corpus needs dir=PATH"
              | Some dir -> Ok (Corpus { dir; ratios; grid; backend }))
      | _ ->
          Error
            (Printf.sprintf
               "unknown command %S (ping, solve, simulate, adapt, corpus, \
                stats, sleep, shutdown)"
               cmd))

type solved = {
  source : string;
  n_tasks : int;
  heuristic : string;
  tier : string;  (* Solver_driver tier that answered *)
  makespan : float;
  ratio : float;  (* makespan / fail-free time *)
  n_ckpt : int;
  ckpt_tasks : int list;  (* checkpointed task ids, execution order *)
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
      (* policy, mean, cvar@0.95, worst *)
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

(* ---- rendering --------------------------------------------------------- *)

let solved_lines s =
  [
    Printf.sprintf "solve %s (%d tasks): %s, tier %s" s.source s.n_tasks
      s.heuristic s.tier;
    Printf.sprintf "  E[makespan] = %.2f s (ratio %.4f)" s.makespan s.ratio;
    Printf.sprintf "  checkpoints = %d (evaluations %d)" s.n_ckpt
      s.evaluations;
  ]

let render_response = function
  | Pong -> [ "pong" ]
  | Solved s -> solved_lines s
  | Simulated r ->
      solved_lines r.solved
      @ [
          Printf.sprintf "  simulated mean = %.2f s (95%% CI [%.2f, %.2f], %d runs)"
            r.sim_mean r.ci_lo r.ci_hi r.runs;
          Printf.sprintf "  failures per run = %.2f" r.failures_mean;
        ]
  | Adapted a ->
      let table =
        Wfc_reporting.Table.create
          ~columns:[ "policy"; "mean"; "cvar@0.95"; "worst" ]
      in
      List.iter
        (fun (name, mean, cvar, worst) ->
          Wfc_reporting.Table.add_row table
            [
              name;
              Printf.sprintf "%.1f" mean;
              Printf.sprintf "%.1f" cvar;
              Printf.sprintf "%.1f" worst;
            ])
        a.policies;
      (Printf.sprintf "adapt %s: winner %s by cvar@0.95" a.asource a.winner
      :: String.split_on_char '\n' (Wfc_reporting.Table.render table))
      |> List.filter (fun l -> l <> "")
  | Corpus_report { instances; scenarios; text } ->
      Printf.sprintf "corpus: %d instances x %d scenarios" instances scenarios
      :: String.split_on_char '\n' text
  | Stats_report rows ->
      let table = Wfc_reporting.Table.create ~columns:[ "stat"; "value" ] in
      List.iter
        (fun (name, value) -> Wfc_reporting.Table.add_row table [ name; value ])
        rows;
      String.split_on_char '\n' (Wfc_reporting.Table.render table)
      |> List.filter (fun l -> l <> "")
  | Slept s -> [ Printf.sprintf "slept %g s" s ]
  | Bye -> [ "stopping" ]
  | Error { code; message } ->
      [ Printf.sprintf "error %s %s" (error_code_name code) message ]

let is_error = function Error _ -> true | _ -> false
