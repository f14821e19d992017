(** Process-wide metrics registry: counters, gauges and histograms with
    fixed log-scale buckets.

    Recording is lock-free: every metric owns an array of per-domain shards
    (indexed by [Domain.self () mod max_shards], each cell an [Atomic.t]),
    so {!Wfc_platform.Domain_pool} workers record without contention and
    without losing updates even if two live domains hash to the same shard.
    Reads merge the shards. The registry mutex is taken by every lookup by
    name ({!counter}, {!gauge}, {!histogram}, whether it finds or creates),
    and by {!snapshot} and {!reset}; so a hot path looks its handles up
    once, at module load, and records through them.

    The whole layer is off by default. Every record operation starts with a
    single atomic load of the enabled flag and returns immediately when it
    is false, so instrumented hot paths pay one predictable branch. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered metric (the registry itself is kept). Call only
    while no other domain is recording. *)

(** {1 Recording} *)

type counter

val counter : string -> counter
(** Find or create the counter registered under this name.
    @raise Invalid_argument if the name is registered as another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one sample into its log-scale bucket (see {!bucket_of}). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f ()] and records its wall-clock duration in seconds
    into [h] — the per-endpoint latency histograms of the serving layer.
    When the layer is disabled this is exactly [f ()] (no clock read); the
    sample is recorded even when [f] raises. *)

(** {1 Buckets} *)

val n_buckets : int
(** 64 power-of-two buckets: bucket [b] covers [[2^(b-32), 2^(b-31))];
    bucket 0 also absorbs every sample below its lower bound (including
    zero and negatives), bucket [n_buckets - 1] every sample above. *)

val bucket_of : float -> int
val bucket_upper : int -> float

(** {1 Reading} *)

type hist_snapshot = {
  hcount : int;  (** total samples *)
  hsum : float;  (** sum of raw sample values *)
  buckets : int array;  (** length {!n_buckets} *)
}

val hist_empty : hist_snapshot

val hist_merge : hist_snapshot -> hist_snapshot -> hist_snapshot
(** Pointwise sum. On [hcount] and [buckets] this is exactly associative,
    commutative and has {!hist_empty} as unit; [hsum] is a float sum, so it
    is associative only up to rounding. *)

val hist_quantile : hist_snapshot -> float -> float
(** Upper bound of the bucket containing the q-quantile sample (0 when the
    histogram is empty). *)

val hist_summary : hist_snapshot -> string
(** One line: ["n=… mean=… p50<=… p99<=…"], the quantiles as
    {!hist_quantile} bounds. *)

val counter_value : counter -> int
val gauge_value : gauge -> float
val hist_value : histogram -> hist_snapshot

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
(** Merged view of every registered metric, each section sorted by name.
    Values recorded by domains joined before the call are all visible. *)
