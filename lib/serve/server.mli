(** The scheduling service behind [wfc serve].

    {!handle} is a pure in-process dispatcher (what unit tests and the
    bench drive directly); {!serve} wraps it in a socket loop with a
    persistent {!Wfc_platform.Domain_pool.Pool} of worker domains, a
    bounded admission queue and the two wire modes of {!Codec} (binary,
    sniffed by a [0x00] first byte) and {!Protocol} (line-oriented text).

    The serving regression contract: responses are byte-identical with the
    warm-engine cache on or off and across worker/domain counts. Every
    search runs on the flat kernel; the wire's [engine] key accepts only
    [flat]. Deadlines therefore map to {e deterministic}
    solver budgets (node counts at a fixed calibration rate) rather than
    wall-clock aborts, and everything nondeterministic — latency
    histograms, uptime, hit rates — is reachable only through the [Stats]
    endpoint. [Stats] is a view of the process registry {!Wfc_obs.Metrics}:
    the server's rows, then every other non-zero counter and non-empty
    histogram ([flat.*], [bnb.*], [search.*], [sim.*], …). *)

type config = {
  cache_size : int;
      (** warm evaluation engines kept in the LRU; 0 disables the cache *)
  queue_depth : int;
      (** admission bound on outstanding (queued + running) compute jobs;
          beyond it requests get a structured [busy] error *)
  workers : int;  (** worker domains draining the queue *)
  domains : int;
      (** parallelism handed to corpus sweeps (never affects result bytes) *)
  timeout : float option;
      (** per-request wall-clock watchdog (seconds): compute requests
          exceeding it are cooperatively cancelled mid-solve and answer a
          structured [timeout] error ([None] disables, the default).
          Distinct from the deterministic [deadline] tiering — the
          watchdog is the abort-of-last-resort for runaway jobs; its
          [timeout] message quotes the budget (never the elapsed time) so
          even cancelled responses are byte-deterministic. Non-cancelled
          responses are bit-for-bit unaffected by the watchdog. *)
}

val default_config : config
(** cache 32, depth 64, 2 workers, 1 domain, no watchdog. *)

type t

val create : ?config:config -> unit -> t

val handle :
  ?cancel:Wfc_platform.Cancel.t -> t -> Protocol.request -> Protocol.response
(** Validate and dispatch. Never raises: an
    escaping exception becomes an [internal] error response, and a
    watchdog cancellation a [timeout] one. Binary frames are capped at
    {!Codec.default_max_frame}. The deadline mapping: budget
    [= deadline * 20 000] nodes (a fixed calibration rate); at least 500
    nodes and at most 24 tasks runs the budgeted
    {!Wfc_resilience.Solver_driver} (tier [exact], degrading itself);
    at least 100 nodes hill-climbs the heuristic winner (tier
    [local-search]); below that, the heuristic sweep alone (tier
    [heuristic], also the no-deadline default).

    [cancel] overrides the watchdog token for this request (tests hand in
    pre-cancelled tokens); without it, a compute request is armed with a
    fresh [config.timeout]-budget token, control-plane requests with
    {!Wfc_platform.Cancel.never}.

    Requests, latencies and errors are counted in the process registry,
    which records only while it is on: {!serve} turns it on, an in-process
    caller that wants counts in [Stats] turns on {!Wfc_obs.Metrics}. *)

val cache_stats : t -> Engine_cache.stats

val engines_outstanding : t -> int
(** Warm engines currently checked out of the cache (the [cache.outstanding]
    stats row). 0 whenever no request is mid-solve; a non-zero value at
    rest is a checkout leak. *)


type listen = Sock_io.listen = Tcp of int | Unix_sock of string
(** TCP binds 127.0.0.1; port 0 picks a free port. The Unix-socket path
    must not already exist and is removed on exit. *)

val serve :
  ?config:config -> ?ready:(string -> unit) -> listen -> (unit, string) result
(** Run the daemon until a [Shutdown] request. [ready] is called once with
    the bound address ("127.0.0.1:PORT" or the socket path) after [listen]
    succeeds. Admitted jobs are drained before returning; [Error] only on
    bind failures. Ping/Stats/Shutdown answer inline from connection
    reader threads (the control plane stays responsive under load);
    everything else goes through the bounded pool. The metrics registry is
    on while the daemon runs. *)
