(* The traced run: the workload's requests go once over the real socket (or
   through the real CLI), then are replayed in process twice — untraced
   through the public entry point ([Server.handle], [Corpus.sweep]) and
   traced through the public functions of each layer, with a span around
   every call. Each replayed answer must equal the real process's bytes.
   End-to-end numbers never come from this run. *)

module Pr = Wfc_serve.Protocol
module Server = Wfc_serve.Server
module Codec = Wfc_serve.Codec
module Cache = Wfc_serve.Engine_cache
module Corpus = Wfc_corpus.Corpus
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module FM = Wfc_platform.Failure_model
module PStats = Wfc_platform.Stats
module Lin = Wfc_dag.Linearize
module Dag = Wfc_dag.Dag
module H = Wfc_core.Heuristics
module E = Wfc_core.Eval_engine
module Key = Wfc_core.Engine_key
module Schedule = Wfc_core.Schedule
module Evaluator = Wfc_core.Evaluator
module Driver = Wfc_resilience.Solver_driver
module MC = Wfc_simulator.Monte_carlo
module Metrics = Wfc_obs.Metrics

let span = Spans.span
let now = Unix.gettimeofday

(* Every per-layer metric, in print order, with its unit. A layer a
   workload does not exercise reads 0. *)
let layer_metrics =
  [
    ("replay.requests", "count");
    ("server.handle_ms", "ms");
    ("server.transport_ms", "ms");
    ("server.cpu_ms_per_req", "ms");
    ("codec.us_per_req", "us");
    ("protocol.us_per_req", "us");
    ("pegasus.generate_ms", "ms");
    ("linearize.run_ms", "ms");
    ("engine_key.make_ms", "ms");
    ("engine_cache.hit_ratio", "ratio");
    ("engine_cache.lookups", "count");
    ("engine_cache.evictions", "count");
    ("engine_cache.outstanding", "count");
    ("eval_engine.build_ms", "ms");
    ("heuristics.self_ms", "ms");
    ("heuristics.evaluations", "count");
    ("evaluator.oracle_ms", "ms");
    ("evaluator.oracle_share", "ratio");
    ("eval_engine.flips", "count");
    ("eval_engine.rows_recomputed", "count");
    ("eval_engine.row_reuse_ratio", "ratio");
    ("exact_solver.nodes", "count");
    ("exact_solver.nodes_per_s", "1/s");
    ("monte_carlo.estimate_ms", "ms");
    ("sim.runs_per_s", "1/s");
    ("sim.failures_per_run", "count");
    ("workflow_io.load_ms", "ms");
    ("corpus.sweep_ms", "ms");
    ("corpus.evaluations", "count");
    ("corpus.render_ms", "ms");
    ("gc.minor_mb_per_req", "MB");
    ("gc.major_collections_per_req", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ms");
  ]

let ms s = 1000. *. s
let median = Stats.median

(* ---- span arithmetic ---------------------------------------------------- *)

type traced = {
  by_req : (int, Spans.span * float) Hashtbl.t;  (** spans with self times *)
  by_sid : (int, Spans.span) Hashtbl.t;
}

let collect () =
  let t = { by_req = Hashtbl.create 64; by_sid = Hashtbl.create 1024 } in
  List.iter
    (fun (((s : Spans.span), _) as x) ->
      Hashtbl.add t.by_req s.Spans.req x;
      Hashtbl.replace t.by_sid s.Spans.sid s)
    (Spans.self_times (Spans.recorded ()));
  t

let fold_req t req f = List.fold_left f 0. (Hashtbl.find_all t.by_req req)

(* Self time of the spans named [name] in request [req]. *)
let self_of t name req =
  fold_req t req (fun acc ((s : Spans.span), self) ->
      if s.Spans.name = name then acc +. self else acc)

let duration_of t name req =
  fold_req t req (fun acc ((s : Spans.span), _) ->
      if s.Spans.name = name then acc +. (s.Spans.stop -. s.Spans.start) else acc)

let self_list t name req =
  List.filter_map
    (fun ((s : Spans.span), self) -> if s.Spans.name = name then Some self else None)
    (Hashtbl.find_all t.by_req req)

(* The time the layers account for: self times of the spans below a [root]
   span of request [req], leaving out the [glue] wrappers whose self time is
   code between layers. *)
let layers_under t ~root ?(glue = []) req =
  let rec below (s : Spans.span) =
    match Hashtbl.find_opt t.by_sid s.Spans.parent with
    | None -> false
    | Some p -> p.Spans.name = root || below p
  in
  fold_req t req (fun acc ((s : Spans.span), self) ->
      if below s && not (List.mem s.Spans.name glue) then acc +. self else acc)

let per_req n f = median (List.init n f)
let sum n f = List.fold_left ( +. ) 0. (List.init n f)

let engine_counters ~per =
  let c name = float_of_int (Metrics.counter_value (Metrics.counter name)) in
  let rows = c "engine.rows_recomputed" and hits = c "engine.row_hits" in
  [
    ("eval_engine.flips", c "engine.flips" /. per);
    ("eval_engine.rows_recomputed", rows /. per);
    ("eval_engine.row_reuse_ratio", if rows +. hits > 0. then hits /. (rows +. hits) else 0.);
  ]

(* MB allocated on the minor heap and major collections while [f] runs. *)
let gc_around f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    (g1.Gc.minor_words -. g0.Gc.minor_words) *. float_of_int (Sys.word_size / 8) /. 1048576.,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Spans and the library's counters record only in the traced pass. *)
let tracing on =
  Spans.set_recording on;
  Metrics.set_enabled on

type checks = { mutable failed : int }

let check c ok what =
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.printf "check failed: %s\n" what
  end

(* Winners of the traced requests, re-evaluated through the oracle after
   each request so [Heuristics.run]'s own winner re-evaluation can be split
   out of its time. *)
let oracle_probe (model, g, sched) =
  snd
    (time (fun () ->
         span "evaluator.oracle" (fun () ->
             ignore (Evaluator.expected_makespan model g sched))))

(* ---- the serving path, layer by layer ---------------------------------- *)

(* [Server.handle]'s compute path re-enacted through each layer's public
   function, for what these workloads send: a generated workflow with no
   deadline, so the heuristic tier, on the protocol's default backend. *)
type replica = {
  cache : Cache.t;
  mutable winners : (FM.t * Dag.t * Schedule.t) list;
  mutable evaluations : float list;
  mutable sims : (int * float) list;  (** runs, failures per run *)
}

let replica () =
  { cache = Cache.create ~capacity:Server.default_config.Server.cache_size;
    winners = []; evaluations = []; sims = [] }

let replay_solve r (p : Pr.solve_params) =
  let g =
    span "pegasus.generate" (fun () ->
        match p.Pr.workflow with
        | Pr.Generated { family; n; seed; cost } -> CM.apply cost (P.generate family ~n ~seed)
        | _ -> invalid_arg "replay: only generated workflows")
  in
  let model = FM.of_mtbf ~mtbf:p.Pr.mtbf ~downtime:p.Pr.downtime () in
  let order = span "linearize.run" (fun () -> Lin.run p.Pr.lin g) in
  let search = if p.Pr.grid <= 0 then H.Exhaustive else H.Grid p.Pr.grid in
  let key = span "engine_key.make" (fun () -> Key.make p.Pr.backend model g ~order) in
  let engine =
    match span "engine_cache.take" (fun () -> Cache.take r.cache key) with
    | Some h -> h
    | None -> span "eval_engine.build" (fun () -> E.handle p.Pr.backend model g ~order)
  in
  let o =
    Fun.protect
      ~finally:(fun () -> span "engine_cache.put" (fun () -> Cache.put r.cache key engine))
      (fun () ->
        span "heuristics.run" (fun () ->
            H.run ~search ~backend:p.Pr.backend ~engine model g ~lin:p.Pr.lin ~ckpt:p.Pr.ckpt))
  in
  r.winners <- (model, g, o.H.schedule) :: r.winners;
  r.evaluations <- float_of_int o.H.evaluations :: r.evaluations;
  let tinf = span "evaluator.fail_free_time" (fun () -> Evaluator.fail_free_time g) in
  ( {
      Pr.source = Pr.spec_source p.Pr.workflow;
      n_tasks = Dag.n_tasks g;
      heuristic = H.name p.Pr.lin p.Pr.ckpt;
      tier = Driver.tier_name Driver.Heuristic;
      makespan = o.H.makespan;
      ratio = (if tinf > 0. then o.H.makespan /. tinf else 1.);
      n_ckpt = Schedule.checkpoint_count o.H.schedule;
      ckpt_tasks = Schedule.checkpointed_tasks o.H.schedule;
      evaluations = o.H.evaluations;
    },
    o.H.schedule,
    g,
    model )

let replay_handle r req =
  match span "protocol.validate" (fun () -> Pr.validate req) with
  | Error message -> Pr.Error { code = Pr.Bad_request; message }
  | Ok () -> (
      match req with
      | Pr.Solve p ->
          let solved, _, _, _ = replay_solve r p in
          Pr.Solved solved
      | Pr.Simulate { params; runs; mcseed } ->
          let solved, sched, g, model = replay_solve r params in
          let est =
            span "monte_carlo.estimate" (fun () -> MC.estimate ~runs ~seed:mcseed model g sched)
          in
          span "stats.summary" (fun () ->
              let ci_lo, ci_hi = PStats.confidence95 est.MC.makespan in
              let failures_mean = PStats.mean est.MC.failures in
              r.sims <- (runs, failures_mean) :: r.sims;
              Pr.Simulated
                { Pr.solved; runs; sim_mean = PStats.mean est.MC.makespan; ci_lo; ci_hi;
                  failures_mean })
      | _ -> invalid_arg "replay: only solve and simulate")

(* How a serve workload's requests travel: binary frames (serve-warm) or
   text lines (simulate-cold). *)
type shape = {
  binary : bool;
  prime : string list;  (** set-up requests, answered before timing *)
  wire : int -> string;  (** bytes of timed request [i] *)
}

let warm_shape seed =
  let reqs = Workloads.warm_requests seed in
  let k = Array.length reqs in
  { binary = true; prime = List.init k (Workloads.warm_payload reqs);
    wire = (fun i -> Workloads.warm_payload reqs (i mod k)) }

let cold_shape seed =
  let c = Inputs.cold seed in
  let line s = Inputs.cold_line s ^ "\n" in
  { binary = false;
    prime = List.init Inputs.cold_warmups (fun j -> line (Inputs.cold_warmup_seed c j));
    wire = (fun i -> line (Inputs.cold_seed c i)) }

let decode shape bytes =
  if shape.binary then
    match Codec.read_frame (Codec.reader_of_string bytes) with
    | Ok (Some payload) -> (
        match Codec.decode_request payload with Ok x -> x | Error m -> invalid_arg m)
    | _ -> invalid_arg "replay: bad frame"
  else (1L, Inputs.request_of_line (String.trim bytes))

let encode shape ~id resp =
  if shape.binary then Codec.frame (Codec.encode_response ~id resp)
  else Workloads.text_block ~id resp

(* The requests over the real socket: answers, latencies, daemon CPU and
   the daemon's stats rows afterwards. *)
let socket_phase (env : Workloads.env) shape =
  let d = Workloads.start_daemon env "traced" in
  List.iter
    (fun p -> ignore (Workloads.get "priming" (Daemon.exchange d.Daemon.sock p)))
    shape.prime;
  let cpu0 = Proc.cpu_seconds d.Daemon.pid in
  let answers = ref [] in
  let phase =
    Stats.closed_loop ~clock:now ~seconds:(env.Workloads.seconds /. 3.) (fun i ->
        Result.map
          (fun b -> answers := b :: !answers)
          (Workloads.exchange_or_fatal d (shape.wire i)))
  in
  let cpu = Proc.cpu_seconds d.Daemon.pid -. cpu0 in
  let rows = match Daemon.stats d with Ok rows -> rows | Error _ -> [] in
  ignore (Workloads.stop_daemon d);
  (phase, Array.of_list (List.rev !answers), cpu, rows)

let serve (env : Workloads.env) shape =
  let c = { failed = 0 } in
  let phase, answers, cpu, rows = socket_phase env shape in
  c.failed <- Stats.failed phase.Stats.outcomes;
  let n = Array.length answers in
  let fn = float_of_int (max n 1) in
  let stat = Workloads.stat_int rows in
  check c (stat "cache.outstanding" = Some 0) "daemon cache.outstanding is 0";
  check c (stat "cache.hits" = Some (if shape.binary then n else 0)) "daemon cache.hits";
  let wires = Array.init n shape.wire in
  let primes = List.map (decode shape) shape.prime in
  (* Each request is replayed twice, back to back so both passes see the
     same machine: untraced through the real in-process dispatcher
     (configured like the daemon), then traced layer by layer on a replica
     with its own cache. *)
  let srv = Server.create ~config:{ Server.default_config with Server.workers = 1 } () in
  let r = replica () in
  List.iter (fun (_, req) -> ignore (Server.handle srv req); ignore (replay_handle r req)) primes;
  r.winners <- [];
  r.evaluations <- [];
  r.sims <- [];
  let cs0 = Cache.stats r.cache in
  let handle_s = Array.make n 0. and wire_s = Array.make n 0. and oracle_s = Array.make n 0. in
  let minor_mb = ref 0. and majors = ref 0. in
  let wire_in = if shape.binary then "codec.decode_request" else "protocol.request_of_line" in
  let wire_out = if shape.binary then "codec.encode_response" else "protocol.render_response" in
  Spans.start ();
  Metrics.reset ();
  for i = 0 to n - 1 do
    tracing false;
    let (id, req), t_in =
      time (fun () ->
          let (id, req) as x = decode shape wires.(i) in
          if shape.binary then ignore (Codec.encode_request ~id req);
          x)
    in
    let (resp, t_handle), mb, majs =
      gc_around (fun () -> time (fun () -> Server.handle srv req))
    in
    let bytes, t_out = time (fun () -> encode shape ~id resp) in
    handle_s.(i) <- t_handle;
    wire_s.(i) <- t_in +. t_out;
    minor_mb := !minor_mb +. mb;
    majors := !majors +. majs;
    check c (bytes = answers.(i))
      (Printf.sprintf "Server.handle answer %d equals the daemon's bytes" i);
    tracing true;
    Spans.with_req i (fun () ->
        let bytes =
          span "request" (fun () ->
              let id, req = span wire_in (fun () -> decode shape wires.(i)) in
              if shape.binary then
                span "codec.encode_request" (fun () -> ignore (Codec.encode_request ~id req));
              let resp = span "server.handle" (fun () -> replay_handle r req) in
              span wire_out (fun () -> encode shape ~id resp))
        in
        check c (bytes = answers.(i))
          (Printf.sprintf "replayed answer %d equals the daemon's bytes" i);
        oracle_s.(i) <- oracle_probe (List.hd r.winners))
  done;
  tracing false;
  let cs1 = Cache.stats r.cache in
  let t = collect () in
  let handle_ms = ms (median (Array.to_list handle_s)) in
  let hits = cs1.Cache.hits - cs0.Cache.hits in
  let lookups = hits + (cs1.Cache.misses - cs0.Cache.misses) in
  let oracle_ms = ms (median (Array.to_list oracle_s)) in
  let layer name = ms (per_req n (self_of t name)) in
  let metrics =
    [
      ("replay.requests", float_of_int n);
      ("server.handle_ms", handle_ms);
      ("server.transport_ms",
       ms (median (List.map Stats.latency phase.Stats.outcomes)) -. handle_ms);
      ("server.cpu_ms_per_req", ms cpu /. fn);
      ((if shape.binary then "codec.us_per_req" else "protocol.us_per_req"),
       1e6 *. median (Array.to_list wire_s));
      ("pegasus.generate_ms", layer "pegasus.generate");
      ("linearize.run_ms", layer "linearize.run");
      ("engine_key.make_ms", layer "engine_key.make");
      ("engine_cache.hit_ratio",
       if lookups > 0 then float_of_int hits /. float_of_int lookups else 0.);
      ("engine_cache.lookups", float_of_int lookups);
      ("engine_cache.evictions", float_of_int (cs1.Cache.evictions - cs0.Cache.evictions));
      ("engine_cache.outstanding",
       float_of_int (Option.value ~default:(-1) (stat "cache.outstanding")));
      ("eval_engine.build_ms", layer "eval_engine.build");
      ("heuristics.self_ms",
       ms (per_req n (fun i -> self_of t "heuristics.run" i -. oracle_s.(i))));
      ("heuristics.evaluations", median r.evaluations);
      ("evaluator.oracle_ms", oracle_ms);
      ("evaluator.oracle_share", oracle_ms /. handle_ms);
      ("gc.minor_mb_per_req", !minor_mb /. fn);
      ("gc.major_collections_per_req", !majors /. fn);
      ("trace.coverage",
       sum n (layers_under t ~root:"server.handle") /. Array.fold_left ( +. ) 0. handle_s);
      ("trace.overhead", ms (per_req n (duration_of t "server.handle")) -. handle_ms);
    ]
    @ engine_counters ~per:fn
    @
    match r.sims with
    | [] -> []
    | (runs, _) :: _ ->
        let est = per_req n (self_of t "monte_carlo.estimate") in
        [
          ("monte_carlo.estimate_ms", ms est);
          ("sim.runs_per_s", float_of_int runs /. est);
          ("sim.failures_per_run", median (List.map snd r.sims));
        ]
  in
  (Stats.attempted phase.Stats.outcomes, c.failed, metrics)

(* ---- the corpus sweep, layer by layer ---------------------------------- *)

(* mirrors the corpus report's ratio convention for zero-weight instances *)
let ratio_of ~tinf m = if tinf > 0. then m /. tinf else if m = 0. then 1. else infinity

type sweep_replica = {
  mutable s_winners : (FM.t * Dag.t * Schedule.t) list;
  mutable s_evaluations : int;
  mutable nodes : int;
}

(* [Corpus.sweep] on one domain, job by job through each layer's public
   function. *)
let replay_sweep sr (config : Corpus.config) ~skipped instances =
  let instances = Array.of_list instances in
  let scenarios = Array.of_list config.Corpus.scenarios in
  let n_scen = Array.length scenarios in
  let job k =
    let inst = instances.(k / n_scen) and scen = scenarios.(k mod n_scen) in
    let g = inst.Corpus.dag in
    let model = Corpus.scenario_model ~downtime:config.Corpus.downtime scen g in
    let tinf = span "evaluator.fail_free_time" (fun () -> Evaluator.fail_free_time g) in
    let rng = Wfc_platform.Rng.create (config.Corpus.seed + (7919 * k)) in
    let rand b = Wfc_platform.Rng.int rng b in
    let cells =
      List.map
        (fun (lin, ckpt) ->
          let o =
            span "heuristics.run" (fun () ->
                H.run_replicated ~search:config.Corpus.search ~backend:config.Corpus.backend ~rand
                  ~cost:config.Corpus.replica_cost config.Corpus.replication model g ~lin ~ckpt)
          in
          sr.s_winners <- (model, g, o.H.schedule) :: sr.s_winners;
          sr.s_evaluations <- sr.s_evaluations + o.H.evaluations;
          { Corpus.heuristic = H.name lin ckpt; ratio = ratio_of ~tinf o.H.makespan;
            n_ckpt = o.H.n_ckpt })
        config.Corpus.heuristics
    in
    let best, best_ratio =
      List.fold_left
        (fun (bn, br) (c : Corpus.cell) ->
          if c.Corpus.ratio < br then (c.Corpus.heuristic, c.Corpus.ratio) else (bn, br))
        ("-", infinity) cells
    in
    let exact =
      if config.Corpus.exact_budget <= 0 || Dag.n_tasks g > config.Corpus.exact_max_n then None
      else begin
        let order = span "linearize.run" (fun () -> Lin.run Lin.Depth_first g) in
        let dconf =
          { Driver.default_config with
            Driver.max_nodes = config.Corpus.exact_budget;
            deadline = config.Corpus.exact_deadline;
            search = config.Corpus.search;
            backend = config.Corpus.backend }
        in
        let r = span "exact_solver.solve" (fun () -> Driver.solve ~config:dconf model g ~order) in
        sr.nodes <- sr.nodes + r.Driver.nodes;
        Some (Driver.tier_name r.Driver.tier, ratio_of ~tinf r.Driver.makespan)
      end
    in
    {
      Corpus.workflow = inst.Corpus.name;
      wf_format = Wfc_io.Workflow_io.format_name inst.Corpus.format;
      n = Dag.n_tasks g;
      n_edges = Dag.n_edges g;
      total_weight = Dag.total_weight g;
      scenario = Corpus.scenario_name scen;
      mtbf = Corpus.scenario_mtbf scen g;
      cells;
      best;
      best_ratio;
      exact;
    }
  in
  {
    Corpus.rows = List.init (Array.length instances * n_scen) job;
    skipped;
    scenario_names = List.map Corpus.scenario_name config.Corpus.scenarios;
    heuristic_names = List.map (fun (l, c) -> H.name l c) config.Corpus.heuristics;
    backend_name = E.backend_name config.Corpus.backend;
  }

let workflow_paths dir =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.to_list entries
  |> List.filter Wfc_io.Workflow_io.is_workflow_file
  |> List.map (Filename.concat dir)

(* [Corpus.print_report] writes to stdout; the benchmark's stdout is its
   result, so the report goes to /dev/null while it is timed. *)
let silenced f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      Format.print_flush ();
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let corpus (env : Workloads.env) =
  let c = { failed = 0 } in
  let dir = Workloads.write_corpus env 0 in
  let config = Workloads.corpus_config and cost = Workloads.corpus_cost in
  let reference = ref "" in
  let phase =
    Stats.closed_loop ~clock:now ~seconds:(env.Workloads.seconds /. 3.) (fun _ ->
        let r = Workloads.cli_sweep env ~corpus:dir in
        if r.Workloads.exit.Proc.code <> 0 then Error (`Fatal "wfc corpus failed")
        else begin
          if !reference = "" then reference := r.Workloads.json;
          if r.Workloads.json = !reference then Ok () else Error (`Mismatch "report changed")
        end)
  in
  c.failed <- Stats.failed phase.Stats.outcomes;
  let reps = max 1 (Stats.attempted phase.Stats.outcomes) in
  let fr = float_of_int reps in
  let to_bytes report = Wfc_io.Json.to_string (Corpus.to_json report) ^ "\n" in
  (* as for the serve workloads, each sweep runs untraced through the real
     entry points, then traced layer by layer, back to back *)
  let sr = { s_winners = []; s_evaluations = 0; nodes = 0 } in
  let load_s = Array.make reps 0. and sweep_s = Array.make reps 0. in
  let render_s = Array.make reps 0. and oracle_s = Array.make reps 0. in
  let minor_mb = ref 0. and majors = ref 0. in
  Spans.start ();
  Metrics.reset ();
  for k = 0 to reps - 1 do
    tracing false;
    let (report, t_load, t_sweep), mb, majs =
      gc_around (fun () ->
          let (instances, skipped), t_load =
            time (fun () -> Result.get_ok (Corpus.load_dir ~cost dir))
          in
          let report, t_sweep = time (fun () -> Corpus.sweep ~config ~skipped instances) in
          (report, t_load, t_sweep))
    in
    load_s.(k) <- t_load;
    sweep_s.(k) <- t_sweep;
    minor_mb := !minor_mb +. mb;
    majors := !majors +. majs;
    check c (to_bytes report = !reference) "in-process Corpus.sweep equals the CLI report";
    render_s.(k) <- snd (time (fun () -> silenced (fun () -> Corpus.print_report report)));
    tracing true;
    Spans.with_req k (fun () ->
        sr.s_winners <- [];
        let report =
          span "request" (fun () ->
              let loaded =
                List.map
                  (fun path ->
                    span "workflow_io.load" (fun () -> Corpus.load_paths ~cost [ path ]))
                  (workflow_paths dir)
              in
              let instances = List.concat_map fst loaded in
              let skipped = List.concat_map snd loaded in
              span "corpus.sweep" (fun () -> replay_sweep sr config ~skipped instances))
        in
        check c (to_bytes report = !reference) "replayed sweep equals the CLI report";
        oracle_s.(k) <- List.fold_left (fun acc w -> acc +. oracle_probe w) 0. sr.s_winners)
  done;
  tracing false;
  let untraced_s = median (List.init reps (fun k -> load_s.(k) +. sweep_s.(k))) in
  let t = collect () in
  let exact_s = sum reps (self_of t "exact_solver.solve") in
  let metrics =
    [
      ("replay.requests", fr);
      ("heuristics.self_ms",
       ms (per_req reps (fun k -> self_of t "heuristics.run" k -. oracle_s.(k))));
      ("heuristics.evaluations", float_of_int sr.s_evaluations /. fr);
      ("evaluator.oracle_ms", ms (median (Array.to_list oracle_s)));
      ("evaluator.oracle_share", median (Array.to_list oracle_s) /. untraced_s);
      ("exact_solver.nodes", float_of_int sr.nodes /. fr);
      ("exact_solver.nodes_per_s", if exact_s > 0. then float_of_int sr.nodes /. exact_s else 0.);
      ("linearize.run_ms", ms (per_req reps (self_of t "linearize.run")));
      ("workflow_io.load_ms",
       ms (median (List.concat (List.init reps (self_list t "workflow_io.load")))));
      ("corpus.sweep_ms", ms (median (Array.to_list sweep_s)));
      ("corpus.evaluations", float_of_int sr.s_evaluations /. fr);
      ("corpus.render_ms", ms (median (Array.to_list render_s)));
      ("gc.minor_mb_per_req", !minor_mb /. fr);
      ("gc.major_collections_per_req", !majors /. fr);
      ("trace.coverage",
       sum reps (layers_under t ~root:"request" ~glue:[ "corpus.sweep" ]) /. (untraced_s *. fr));
      ("trace.overhead", ms (per_req reps (duration_of t "request") -. untraced_s));
    ]
    @ engine_counters ~per:fr
  in
  (Stats.attempted phase.Stats.outcomes, c.failed, metrics)

let traced name (env : Workloads.env) =
  let attempted, failed, metrics =
    match name with
    | "serve-warm" -> serve env (warm_shape env.Workloads.seed)
    | "simulate-cold" -> serve env (cold_shape env.Workloads.seed)
    | _ -> corpus env
  in
  let dir = Filename.concat Proc.root "traces" in
  Proc.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" name env.Workloads.seed) in
  Wfc_obs.Trace.write_chrome path;
  Printf.printf "chrome trace: %s\n" path;
  let value m = Option.value ~default:0. (List.assoc_opt m metrics) in
  List.iter (fun (m, u) -> Printf.printf "  %-30s %14.6g %s\n" m (value m) u) layer_metrics;
  Output.print_result ~correct:(failed = 0) ~attempted ~failed
    (List.map (fun (m, u) -> (m, value m, u)) layer_metrics)
