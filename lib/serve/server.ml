(* The scheduling service: a pure request dispatcher (usable in-process by
   tests and the bench) plus the socket serving loop around it.

   Responses must be byte-identical whether the warm-engine cache is on or
   off and across worker/domain counts — that is the regression contract
   the serving tests pin. Consequently:

   - the warm cache only short-circuits the engine {e build}; the search it
     feeds ([Heuristics.run ?engine]) is bit-identical to a cold run;
   - request deadlines map to solver budgets {e deterministically}
     (a node budget at a fixed calibration rate, never a wall-clock abort);
   - everything nondeterministic (latency, uptime, hit rates) is only
     reachable through the [Stats] endpoint. *)

module FM = Wfc_platform.Failure_model
module Stats = Wfc_platform.Stats
module Pool = Wfc_platform.Domain_pool.Pool
module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module Dag = Wfc_dag.Dag
module Lin = Wfc_dag.Linearize
module H = Wfc_core.Heuristics
module E = Wfc_core.Eval_engine
module Key = Wfc_core.Engine_key
module Schedule = Wfc_core.Schedule
module LS = Wfc_core.Local_search
module Driver = Wfc_resilience.Solver_driver
module Robust = Wfc_resilience.Robust
module SA = Wfc_simulator.Sim_adaptive
module MC = Wfc_simulator.Monte_carlo
module Corpus = Wfc_corpus.Corpus
module Table = Wfc_reporting.Table
module Metrics = Wfc_obs.Metrics
module Cancel = Wfc_platform.Cancel
module Pr = Protocol

type config = {
  cache_size : int;  (* warm engines kept; 0 disables the cache *)
  queue_depth : int;  (* admission bound: queued + running compute jobs *)
  workers : int;  (* worker domains draining the queue *)
  domains : int;  (* corpus-sweep parallelism (never affects bytes) *)
  max_frame : int;
  exact_max_n : int;  (* deadline tiering: largest n going exact *)
  nodes_per_second : float;  (* deadline seconds -> node budget *)
  timeout : float option;
      (* per-request wall-clock watchdog (seconds); cancelled requests
         answer a structured [timeout]. None disables the watchdog. *)
}

let default_config =
  {
    cache_size = 32;
    queue_depth = 64;
    workers = 2;
    domains = 1;
    max_frame = Codec.default_max_frame;
    exact_max_n = 24;
    nodes_per_second = 20_000.;
    timeout = None;
  }

(* ---- telemetry: registry handles, looked up once; [stats] reads them -- *)

let endpoints =
  [| "ping"; "solve"; "simulate"; "adapt"; "corpus"; "stats"; "sleep";
     "shutdown" |]

let endpoint_index = function
  | Pr.Ping -> 0
  | Pr.Solve _ -> 1
  | Pr.Simulate _ -> 2
  | Pr.Adapt _ -> 3
  | Pr.Corpus _ -> 4
  | Pr.Stats -> 5
  | Pr.Sleep _ -> 6
  | Pr.Shutdown -> 7

type ep_metrics = {
  requests : Metrics.counter;
  errors : Metrics.counter;
  latency : Metrics.histogram;  (* seconds *)
}

let ep_metrics =
  Array.map
    (fun ep ->
      {
        requests = Metrics.counter ("serve.requests." ^ ep);
        errors = Metrics.counter ("serve.errors." ^ ep);
        latency = Metrics.histogram ("serve.latency." ^ ep);
      })
    endpoints

let m_busy = Metrics.counter "serve.busy"
let m_timeouts = Metrics.counter "serve.timeouts"

(* in name order, the order [stats] lists them in *)
let m_tier_counters =
  List.map
    (fun tier -> (tier, Metrics.counter ("serve.tier." ^ Driver.tier_name tier)))
    Driver.[ Exact; Heuristic; Local_search ]

type t = {
  config : config;
  cache : Engine_cache.t;
  engines_out : int Atomic.t;
      (* warm engines currently checked out of the cache: incremented at
         checkout, decremented in the check-in finalizer, so a non-zero
         value at rest IS a leak — the invariant the chaos soak pins *)
  mutable pool : Pool.t option;  (* attached by [serve] for stats *)
  started : float;
  stop : bool Atomic.t;
}

let create ?(config = default_config) () =
  {
    config;
    cache = Engine_cache.create ~capacity:config.cache_size;
    engines_out = Atomic.make 0;
    pool = None;
    started = Unix.gettimeofday ();
    stop = Atomic.make false;
  }

let cache_stats t = Engine_cache.stats t.cache
let stopping t = Atomic.get t.stop
let engines_outstanding t = Atomic.get t.engines_out

let err code message = Pr.Error { code; message }

(* ---- solve ------------------------------------------------------------ *)

let dag_of_spec = function
  | Pr.Generated { family; n; seed; cost } ->
      if n < P.min_size family then
        Stdlib.Error
          (Printf.sprintf "%s needs at least %d tasks" (P.family_name family)
             (P.min_size family))
      else Ok (CM.apply cost (P.generate family ~n ~seed))
  | Pr.Inline { name; text; cost } ->
      Result.map (CM.ensure cost) (Wfc_io.Workflow_io.load_string ~path:name text)
  | Pr.File { path; cost } ->
      Result.map (CM.ensure cost) (Wfc_io.Workflow_io.load path)

(* Deadline seconds -> solver tier, deterministically: the budget is a node
   count at a fixed calibration rate, so the same request always gets the
   same tier and the same answer — a deliberate trade against wall-clock
   accuracy (an unlucky instance can overrun its deadline; it can never
   return different bytes). *)
let deadline_plan cfg ~n d =
  let nodes = int_of_float (Float.min (d *. cfg.nodes_per_second) 1e9) in
  if nodes >= 500 && n <= cfg.exact_max_n then `Exact nodes
  else if nodes >= 100 then `Local_search (Int.min 2000 nodes)
  else `Heuristic

(* Warm-engine checkout around a solve: [take] removes the cached engine
   (two workers must never share one — a concurrent same-key request just
   builds cold), the solve runs, and check-in re-inserts at MRU.

   Crash-only discipline: the check-in finalizer is installed the moment an
   engine exists and nothing else runs between checkout and [Fun.protect] —
   a handler exception (including a watchdog [Cancelled]), a crashing
   worker or a vanished client can never strand a warm engine. The paired
   [engines_out] counter is the observable pin: it is non-zero only while a
   checkout is live, so [cache.outstanding] in [stats] must read 0 at
   rest. *)
let with_engine t model g ~order f =
  if Engine_cache.capacity t.cache = 0 then f None
  else begin
    let key = Key.make E.Flat model g ~order in
    let engine =
      match Engine_cache.take t.cache key with
      | Some h -> h
      | None -> Wfc_core.Flat_engine.create model g ~order
    in
    Atomic.incr t.engines_out;
    Fun.protect
      ~finally:(fun () ->
        Engine_cache.put t.cache key engine;
        Atomic.decr t.engines_out)
      (fun () -> f (Some engine))
  end

let run_solve t ~cancel (p : Pr.solve_params) =
  match dag_of_spec p.workflow with
  | Stdlib.Error msg -> Stdlib.Error msg
  | Ok g ->
      let model = FM.of_mtbf ~mtbf:p.mtbf ~downtime:p.downtime () in
      let order = Lin.run p.lin g in
      let search = if p.grid <= 0 then H.Exhaustive else H.Grid p.grid in
      let heuristic = H.name p.lin p.ckpt in
      let finish ~tier ~evaluations sched makespan =
        Metrics.incr (List.assoc tier m_tier_counters);
        let tinf = Dag.total_weight g in
        ( {
            Pr.source = Pr.spec_source p.workflow;
            n_tasks = Dag.n_tasks g;
            heuristic;
            tier = Driver.tier_name tier;
            makespan;
            ratio = (if tinf > 0. then makespan /. tinf else 1.);
            n_ckpt = Schedule.checkpoint_count sched;
            ckpt_tasks = Schedule.checkpointed_tasks sched;
            evaluations;
          },
          sched,
          g,
          model )
      in
      let plan =
        match p.deadline with
        | None -> `Heuristic
        | Some d -> deadline_plan t.config ~n:(Dag.n_tasks g) d
      in
      Ok
        (match plan with
        | (`Heuristic | `Local_search _) as plan ->
            with_engine t model g ~order (fun engine ->
                let o =
                  H.run ~search ?engine ~cancel model g ~lin:p.lin ~ckpt:p.ckpt
                in
                match plan with
                | `Heuristic ->
                    finish ~tier:Driver.Heuristic ~evaluations:o.H.evaluations
                      o.H.schedule o.H.makespan
                | `Local_search evals ->
                    let ls =
                      LS.improve ~max_evaluations:evals ~cancel model g
                        o.H.schedule
                    in
                    finish ~tier:Driver.Local_search
                      ~evaluations:(o.H.evaluations + ls.LS.evaluations)
                      ls.LS.schedule ls.LS.makespan)
        | `Exact nodes ->
            (* the only fallback is the requested heuristic: any other
               linearization would answer with another order's schedule
               under this request's heuristic name *)
            let config =
              { Driver.default_config with
                Driver.max_nodes = nodes;
                search;
                fallbacks = [ (p.lin, p.ckpt) ];
              }
            in
            let r = Driver.solve ~config ~cancel model g ~order in
            finish ~tier:r.Driver.tier ~evaluations:r.Driver.nodes
              r.Driver.schedule r.Driver.makespan)

(* ---- the other compute endpoints -------------------------------------- *)

let run_simulate t ~cancel (p : Pr.solve_params) ~runs ~mcseed =
  Result.map
    (fun (solved, sched, g, model) ->
      let est = MC.estimate ~cancel ~runs ~seed:mcseed model g sched in
      let ci_lo, ci_hi = Stats.confidence95 est.MC.makespan in
      {
        Pr.solved;
        runs;
        sim_mean = Stats.mean est.MC.makespan;
        ci_lo;
        ci_hi;
        failures_mean = Stats.mean est.MC.failures;
      })
    (run_solve t ~cancel p)

let run_adapt t ~cancel (p : Pr.solve_params) ~true_mtbf ~traces ~mcseed =
  Result.map
    (fun ((solved : Pr.solved), sched, g, planning) ->
      let truth = FM.of_mtbf ~mtbf:true_mtbf ~downtime:p.downtime () in
      let scenarios = Robust.default_scenarios truth in
      let replanner = Driver.replanner g in
      let config =
        { (SA.default_config planning) with SA.replan = Some replanner }
      in
      let candidates =
        [
          Robust.static ~name:solved.Pr.heuristic g sched;
          Robust.adaptive ~name:"adaptive" config g sched;
        ]
      in
      let min_uptime = 200. *. Dag.total_weight g in
      let r =
        Robust.evaluate ~traces_per_scenario:traces ~seed:mcseed ~min_uptime
          ~criterion:(Robust.CVaR 0.95) ~scenarios candidates
      in
      {
        Pr.asource = solved.Pr.source;
        winner = r.Robust.winner.Robust.candidate;
        policies =
          List.map
            (fun (s : Robust.score) ->
              (s.Robust.candidate, s.Robust.mean, s.Robust.cvar, s.Robust.worst))
            r.Robust.scores;
      })
    (run_solve t ~cancel p)

let run_corpus t ~dir ~ratios ~grid =
  match Corpus.load_dir ~cost:(CM.Proportional 0.1) dir with
  | Stdlib.Error msg -> err Pr.Bad_request msg
  | Ok ([], _) -> err Pr.Bad_request ("no workflow files in " ^ dir)
  | Ok (instances, skipped) ->
      let config =
        { Corpus.default_config with
          Corpus.scenarios = List.map (fun r -> Corpus.Relative r) ratios;
          search = (if grid <= 0 then H.Exhaustive else H.Grid grid);
          domains = t.config.domains;
        }
      in
      let report = Corpus.sweep ~config ~skipped instances in
      let buf = Buffer.create 1024 in
      List.iter
        (fun (path, msg) ->
          Buffer.add_string buf (Printf.sprintf "skipped %s: %s\n" path msg))
        report.Corpus.skipped;
      List.iter
        (fun (name, table) ->
          Buffer.add_string buf (name ^ "\n");
          Buffer.add_string buf (Table.render table);
          Buffer.add_char buf '\n')
        (Corpus.tables report);
      Pr.Corpus_report
        {
          instances = List.length instances;
          scenarios = List.length report.Corpus.scenario_names;
          text = Buffer.contents buf;
        }

(* ---- stats endpoint ---------------------------------------------------- *)

let stats_rows t =
  let cs = Engine_cache.stats t.cache in
  let uptime = Unix.gettimeofday () -. t.started in
  let rows = ref [] in
  let add name value = rows := (name, value) :: !rows in
  let addi name v = add name (string_of_int v) in
  let nonzero name v = if v > 0 then addi name v in
  let count name c = nonzero name (Metrics.counter_value c) in
  (* deterministic rows first: cram output pins these and filters the
     latency/uptime tail *)
  addi "workers" t.config.workers;
  addi "queue.depth" t.config.queue_depth;
  addi "cache.capacity" cs.Engine_cache.capacity;
  addi "cache.size" cs.Engine_cache.size;
  addi "cache.hits" cs.Engine_cache.hits;
  addi "cache.misses" cs.Engine_cache.misses;
  addi "cache.evictions" cs.Engine_cache.evictions;
  addi "cache.puts" cs.Engine_cache.puts;
  (* checked-out engines right now: 0 at rest, or something leaked *)
  addi "cache.outstanding" (Atomic.get t.engines_out);
  Array.iteri (fun i m -> count ("requests." ^ endpoints.(i)) m.requests)
    ep_metrics;
  Array.iteri (fun i m -> count ("errors." ^ endpoints.(i)) m.errors) ep_metrics;
  count "busy" m_busy;
  count "timeouts" m_timeouts;
  nonzero "pool.restarts" (Option.fold ~none:0 ~some:Pool.restarts t.pool);
  m_tier_counters
  |> List.iter (fun (tier, c) -> count ("tier." ^ Driver.tier_name tier) c);
  (* nondeterministic tail *)
  add "uptime_s" (Printf.sprintf "%.1f" uptime);
  let total =
    Array.fold_left (fun acc m -> acc + Metrics.counter_value m.requests) 0
      ep_metrics
  in
  add "qps"
    (Printf.sprintf "%.1f"
       (if uptime > 0. then float_of_int total /. uptime else 0.));
  Array.iteri
    (fun i m ->
      let h = Metrics.hist_value m.latency in
      if h.Metrics.hcount > 0 then begin
        let q p = Printf.sprintf "%.3f" (1000. *. Metrics.hist_quantile h p) in
        add (Printf.sprintf "latency.%s.p50_ms" endpoints.(i)) (q 0.5);
        add (Printf.sprintf "latency.%s.p99_ms" endpoints.(i)) (q 0.99)
      end)
    ep_metrics;
  (* then the rest of the registry: the kernel, search and simulator *)
  let s = Metrics.snapshot () in
  let rest name = not (String.starts_with ~prefix:"serve." name) in
  List.iter (fun (name, v) -> if rest name then nonzero name v)
    s.Metrics.counters;
  List.iter
    (fun (name, h) ->
      if rest name && h.Metrics.hcount > 0 then
        add name (Metrics.hist_summary h))
    s.Metrics.histograms;
  List.rev !rows

(* ---- dispatch ---------------------------------------------------------- *)

(* Ping, Stats and Shutdown are control plane: answered inline by the
   socket layer and never armed with a watchdog. *)
let inline_request = function
  | Pr.Ping | Pr.Stats | Pr.Shutdown -> true
  | Pr.Solve _ | Pr.Simulate _ | Pr.Adapt _ | Pr.Corpus _ | Pr.Sleep _ ->
      false

let dispatch t ~cancel req =
  match Pr.validate req with
  | Stdlib.Error msg -> err Pr.Bad_request msg
  | Ok () -> (
      match req with
      | Pr.Ping -> Pr.Pong
      | Pr.Stats -> Pr.Stats_report (stats_rows t)
      | Pr.Shutdown ->
          Atomic.set t.stop true;
          Pr.Bye
      | Pr.Sleep s ->
          (* sleep in short slices so the watchdog can interrupt; the
             response reports the requested duration, so a non-cancelled
             sleep answers the same bytes as an unsliced one *)
          let rec nap remaining =
            Cancel.check cancel;
            if remaining > 0. then begin
              Unix.sleepf (Float.min 0.01 remaining);
              nap (remaining -. 0.01)
            end
          in
          nap s;
          Pr.Slept s
      | Pr.Solve p -> (
          match run_solve t ~cancel p with
          | Ok (solved, _, _, _) -> Pr.Solved solved
          | Stdlib.Error msg -> err Pr.Bad_request msg)
      | Pr.Simulate { params; runs; mcseed } -> (
          match run_simulate t ~cancel params ~runs ~mcseed with
          | Ok s -> Pr.Simulated s
          | Stdlib.Error msg -> err Pr.Bad_request msg)
      | Pr.Adapt { params; true_mtbf; traces; mcseed } -> (
          match run_adapt t ~cancel params ~true_mtbf ~traces ~mcseed with
          | Ok a -> Pr.Adapted a
          | Stdlib.Error msg -> err Pr.Bad_request msg)
      | Pr.Corpus { dir; ratios; grid } -> run_corpus t ~dir ~ratios ~grid)

let handle ?cancel t req =
  let m = ep_metrics.(endpoint_index req) in
  Metrics.incr m.requests;
  (* the watchdog arms compute requests only; its budget is wall-clock but
     the [timeout] message is deterministic (the budget, never the elapsed
     time), so cancelled responses are pinnable too *)
  let budget = t.config.timeout in
  let cancel =
    match cancel with
    | Some c -> c
    | None -> (
        match budget with
        | Some s when not (inline_request req) -> Cancel.create ~budget:s ()
        | _ -> Cancel.never)
  in
  let resp =
    Metrics.time m.latency (fun () ->
        try dispatch t ~cancel req with
        | Cancel.Cancelled ->
            Metrics.incr m_timeouts;
            err Pr.Timeout
              (match budget with
              | Some s ->
                  Printf.sprintf "request exceeded its %gs compute budget" s
              | None -> "request cancelled by watchdog")
        | exn -> err Pr.Internal (Printexc.to_string exn))
  in
  if Pr.is_error resp then Metrics.incr m.errors;
  resp

(* ---- socket layer ------------------------------------------------------ *)

type listen = Tcp of int | Unix_sock of string

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Tiny buffered reader: lets the first-byte mode sniff push the byte back,
   serves both line reads (text mode) and the Codec read contract. *)
type bufreader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let bufreader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

let refill br =
  let n = Unix.read br.fd br.buf 0 (Bytes.length br.buf) in
  br.pos <- 0;
  br.len <- n;
  n

let read_byte br =
  if br.pos < br.len then begin
    let c = Bytes.get br.buf br.pos in
    br.pos <- br.pos + 1;
    Some c
  end
  else if refill br = 0 then None
  else begin
    let c = Bytes.get br.buf 0 in
    br.pos <- 1;
    Some c
  end

let unread_byte br = br.pos <- br.pos - 1

let reader_fn br buf off len =
  if br.pos < br.len then begin
    let n = Int.min len (br.len - br.pos) in
    Bytes.blit br.buf br.pos buf off n;
    br.pos <- br.pos + n;
    n
  end
  else Unix.read br.fd buf off len

let read_line br =
  let b = Buffer.create 80 in
  let rec go () =
    match read_byte br with
    | None -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | Some '\n' -> Some (Buffer.contents b)
    | Some '\r' -> go ()
    | Some c ->
        Buffer.add_char b c;
        go ()
  in
  go ()

type conn = {
  cfd : Unix.file_descr;
  wmutex : Mutex.t;  (* workers and the reader interleave whole responses *)
  pmutex : Mutex.t;
  done_cond : Condition.t;
  mutable pending : int;  (* jobs admitted for this connection, not yet sent *)
}

let send_binary conn ~id resp =
  Mutex.protect conn.wmutex (fun () ->
      write_all conn.cfd (Codec.frame (Codec.encode_response ~id resp)))

(* Text framing: `ok ID` + body + `.`, or a single `error ID CODE MESSAGE`
   line. The client sorts blocks by ID, so pipelined cram output is
   deterministic even when jobs complete out of order. *)
let send_text conn ~id resp =
  let block =
    match resp with
    | Pr.Error { code; message } ->
        Printf.sprintf "error %Ld %s %s\n" id (Pr.error_code_name code) message
    | _ ->
        let b = Buffer.create 256 in
        Buffer.add_string b (Printf.sprintf "ok %Ld\n" id);
        List.iter
          (fun l ->
            Buffer.add_string b l;
            Buffer.add_char b '\n')
          (Pr.render_response resp);
        Buffer.add_string b ".\n";
        Buffer.contents b
  in
  Mutex.protect conn.wmutex (fun () -> write_all conn.cfd block)

let job_done conn =
  Mutex.protect conn.pmutex (fun () ->
      conn.pending <- conn.pending - 1;
      Condition.signal conn.done_cond)

(* Ping, Stats and Shutdown answer inline from the reader thread — the
   control plane stays responsive while the queue sheds compute load. *)
let process t pool conn ~send ~id req =
  if inline_request req then send ~id (handle t req)
  else if Atomic.get t.stop then
    send ~id (err Pr.Stopping "server is shutting down")
  else begin
    Mutex.protect conn.pmutex (fun () -> conn.pending <- conn.pending + 1);
    let job () =
      Fun.protect
        ~finally:(fun () -> job_done conn)
        (fun () ->
          let resp = handle t req in
          try send ~id resp with _ -> ())
    in
    if not (Pool.try_submit pool job) then begin
      job_done conn;
      Metrics.incr m_busy;
      send ~id
        (err Pr.Busy
           (Printf.sprintf "queue full (%d outstanding, depth %d)"
              (Pool.outstanding pool) (Pool.depth pool)))
    end
  end

let binary_loop t pool conn br =
  let read = reader_fn br in
  let rec loop () =
    match Codec.read_frame ~max_frame:t.config.max_frame read with
    | Ok None -> ()
    | Stdlib.Error msg ->
        (* the stream is no longer frame-aligned: answer once and drop *)
        let code =
          if String.length msg >= 15 && String.sub msg 0 15 = "frame too large"
          then Pr.Too_large
          else Pr.Bad_request
        in
        (try send_binary conn ~id:0L (err code msg) with _ -> ())
    | Ok (Some payload) -> (
        match Codec.decode_request payload with
        | Stdlib.Error msg ->
            (* framing is still aligned: report and keep the connection *)
            send_binary conn ~id:0L (err Pr.Bad_request msg);
            loop ()
        | Ok (id, req) ->
            process t pool conn ~send:(send_binary conn) ~id req;
            loop ())
  in
  loop ()

let text_loop t pool conn br =
  let next_id = ref 0L in
  let rec loop () =
    match read_line br with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
        next_id := Int64.add !next_id 1L;
        let id = !next_id in
        (match Pr.request_of_line line with
        | Stdlib.Error msg -> send_text conn ~id (err Pr.Bad_request msg)
        | Ok req -> process t pool conn ~send:(send_text conn) ~id req);
        loop ()
  in
  loop ()

let handle_conn t pool fd =
  let conn =
    {
      cfd = fd;
      wmutex = Mutex.create ();
      pmutex = Mutex.create ();
      done_cond = Condition.create ();
      pending = 0;
    }
  in
  let br = bufreader fd in
  (try
     match read_byte br with
     | None -> ()
     | Some '\000' ->
         unread_byte br;
         binary_loop t pool conn br
     | Some _ ->
         unread_byte br;
         text_loop t pool conn br
   with _ -> ());
  (* responses may still be in flight on worker domains: close only once
     every admitted job for this connection has sent *)
  Mutex.protect conn.pmutex (fun () ->
      while conn.pending > 0 do
        Condition.wait conn.done_cond conn.pmutex
      done);
  try Unix.close fd with _ -> ()

let bind_listener = function
  | Tcp port -> (
      try
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 64;
        let port =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        Ok (fd, (fun () -> ()), Printf.sprintf "127.0.0.1:%d" port)
      with Unix.Unix_error (e, _, _) ->
        Stdlib.Error
          (Printf.sprintf "cannot listen on port %d: %s" port
             (Unix.error_message e)))
  | Unix_sock path -> (
      if Sys.file_exists path then
        Stdlib.Error (Printf.sprintf "socket path %s already exists" path)
      else
        try
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.listen fd 64;
          Ok (fd, (fun () -> try Sys.remove path with Sys_error _ -> ()), path)
        with Unix.Unix_error (e, _, _) ->
          Stdlib.Error
            (Printf.sprintf "cannot listen on %s: %s" path
               (Unix.error_message e)))

let serve ?(config = default_config) ?(ready = fun _ -> ()) listen_on =
  (* a client vanishing mid-response must be an EPIPE, not a fatal signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match bind_listener listen_on with
  | Stdlib.Error _ as e -> e
  | Ok (sock, cleanup, desc) ->
      let t = create ~config () in
      let pool = Pool.create ~workers:config.workers ~depth:config.queue_depth in
      t.pool <- Some pool;
      (* [stats] reads the process registry: record while the daemon runs *)
      let was_enabled = Metrics.enabled () in
      Metrics.set_enabled true;
      ready desc;
      let rec accept_loop () =
        if not (Atomic.get t.stop) then begin
          (match Unix.select [ sock ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept sock with
              | fd, _ ->
                  ignore (Thread.create (fun () -> handle_conn t pool fd) ())
              | exception Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      (* drain: every admitted job still answers before the process exits *)
      Pool.shutdown ~drain:true pool;
      Metrics.set_enabled was_enabled;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      cleanup ();
      Ok ()
