(** Bounded LRU of warm evaluation engines, keyed by
    {!Wfc_core.Engine_key}. Thread-safe.

    The cache uses {e checkout} semantics: {!take} removes the entry it
    returns and the caller {!put}s the engine back once done. Engines are
    mutable, so concurrent solves for the same key must never
    share one — a concurrent second taker misses and builds cold, and the
    later check-in wins the slot. [put] inserts at the MRU position;
    when the cache is over capacity the LRU tail is evicted.

    A capacity of 0 disables the cache: every [take] misses and [put] is a
    no-op. *)

type t

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

val put : t -> Wfc_core.Engine_key.t -> Wfc_core.Flat_engine.t -> unit
(** Check-in at the MRU position. Replaces any entry with the same key;
    evicts from the LRU tail beyond capacity. *)

val keys : t -> Wfc_core.Engine_key.t list
(** Stored keys, MRU first (the eviction order is the reverse). *)

val size : t -> int
val stats : t -> stats
