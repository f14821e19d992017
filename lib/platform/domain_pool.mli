(** Minimal fork-join helper over OCaml 5 domains.

    Callers split deterministic work into per-domain slices (each slice
    deriving its own RNG stream or engine state from the slice index), so
    results are independent of the parallelism degree; this module only
    owns the spawn/join choreography. Used by {!Wfc_simulator.Monte_carlo}
    and by the corpus sweep. *)

val default_domains : unit -> int
(** [recommended_domain_count () - 1] (one domain is the caller), at
    least 1. *)

val chunks : total:int -> domains:int -> (int * int) array
(** [chunks ~total ~domains] splits [0..total-1] into at most [domains]
    contiguous [(start, length)] slices whose lengths differ by at most
    one. Returns fewer slices when [total < domains]; slices are never
    empty unless [total = 0].

    @raise Invalid_argument if [total < 0] or [domains <= 0]. *)

val run : domains:int -> (int -> 'a) -> 'a list
(** [run ~domains worker] evaluates [worker i] for [i = 0..domains-1],
    slice 0 on the calling domain and the rest on spawned domains, and
    returns the results in slice order.

    @raise Invalid_argument if [domains <= 0]. *)

(** Persistent bounded worker pool — the compute side of the serving
    daemon. Unlike {!run} (fork-join, joined per call), a [Pool.t] keeps its
    worker domains alive across submissions and bounds the number of
    {e outstanding} jobs (queued plus running): {!Pool.try_submit} refuses
    work beyond the bound instead of queueing unboundedly, which is the
    admission-control contract the server turns into structured [busy]
    responses. *)
module Pool : sig
  type t

  val create : workers:int -> depth:int -> t
  (** [create ~workers ~depth] spawns [workers] domains that sleep on a
      shared queue. At most [depth] jobs may be outstanding at once.

      @raise Invalid_argument if [workers <= 0] or [depth <= 0]. *)

  val try_submit : t -> (unit -> unit) -> bool
  (** [try_submit t job] enqueues [job] and returns [true], or returns
      [false] without enqueueing when [depth] jobs are already outstanding
      (or the pool is shutting down). A job counts as outstanding from
      admission until it finishes running — even if it raises. An
      exception escaping [job] crashes that worker; the pool supervisor
      immediately restarts it (counted by {!restarts}), so the pool never
      loses capacity and never takes the owner down. *)

  val outstanding : t -> int
  (** Jobs admitted and not yet finished (queued + running). *)

  val depth : t -> int
  (** The admission bound. *)

  val restarts : t -> int
  (** Number of worker crashes survived: how many times a worker died on
      an escaped job exception and was restarted by the supervisor. 0 in
      a healthy pool. *)

  val shutdown : ?drain:bool -> t -> unit
  (** Stop accepting work and join every worker. With [drain] (default
      [true]) queued jobs run to completion first; with [~drain:false]
      queued jobs are dropped. Blocks until all workers exit; running jobs
      are never interrupted. *)
end

val self_schedule :
  domains:int -> total:int -> (worker:int -> int -> unit) -> int
(** [self_schedule ~domains ~total f] runs [f ~worker i] for every item
    [i = 0..total-1], handed out through a shared atomic cursor: idle
    workers steal items their static round-robin owner has not reached,
    so unbalanced item costs never serialize the pool. Returns the number
    of items processed by a worker other than [i mod domains] (the steal
    count). With [domains = 1] items run sequentially in order on the
    calling domain.

    @raise Invalid_argument if [domains <= 0] or [total < 0]. *)
