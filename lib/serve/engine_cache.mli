(** Bounded LRU of warm evaluation engines, keyed by
    {!Wfc_core.Engine_key}. Thread-safe.

    The cache uses {e checkout} semantics: {!take} removes the entry it
    returns and the caller {!put}s the engine back once done. Engines are
    mutable, so concurrent solves for the same key must never
    share one — a concurrent second taker misses and builds cold, and the
    later check-in wins the slot. [put] inserts at the MRU position;
    when the cache is over capacity the LRU tail is evicted.

    An engine checked in for a generated workflow can also carry the
    request's {!spec} key, a pure function of the request that determines
    the content key. {!checkout} finds such an entry by spec alone, so a
    warm hit derives no DAG, linearization or fingerprint. The spec rides
    on the entry: the LRU is the one bounded table.

    A capacity of 0 disables the cache: every [take] misses and [put] is a
    no-op. *)

type t

type spec = {
  family : Wfc_workflows.Pegasus.family;
  n : int;
  seed : int;
  cost : Wfc_workflows.Cost_model.t;  (** compared by its float's bits *)
  lin : Wfc_dag.Linearize.strategy;
  lambda : int64;  (** IEEE bits of the failure rate *)
  downtime : int64;  (** IEEE bits of the downtime *)
}
(** A generated workflow's request, as far as the engine depends on it:
    the generator's arguments and cost model, the linearization and the
    model bits. Equal specs derive equal content keys. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  puts : int;
      (** check-ins recorded (capacity > 0 only) — the leak pin: at rest,
          every cacheable checkout must have been followed by a [put], so
          [hits <= puts] whenever no engine is currently checked out *)
  size : int;  (** entries currently stored (checked-out engines excluded) *)
  capacity : int;
}

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 0]. *)

val capacity : t -> int

val take : t -> Wfc_core.Engine_key.t -> Wfc_core.Flat_engine.t option
(** Checkout: removes and returns the cached engine for this key, counting
    a hit, or counts a miss and returns [None]. *)

val checkout :
  ?spec:spec ->
  t ->
  (unit -> Wfc_core.Engine_key.t) ->
  Wfc_core.Engine_key.t * Wfc_core.Flat_engine.t option
(** [checkout ?spec t key_of] is one counted lookup. An entry carrying
    [spec] is removed and returned with its content key, and [key_of] is
    never called. Otherwise it is {!take} on [key_of ()], returned with
    that key. Hits and misses count exactly as {!take} on the content key
    would. *)

val put :
  ?spec:spec -> t -> Wfc_core.Engine_key.t -> Wfc_core.Flat_engine.t -> unit
(** Check-in at the MRU position, tagged with [spec] when given (it must be
    the spec the key was derived from). Replaces any entry with the same
    key; evicts from the LRU tail beyond capacity. *)

val keys : t -> Wfc_core.Engine_key.t list
(** Stored keys, MRU first (the eviction order is the reverse). *)

val size : t -> int
val stats : t -> stats
