(** Evaluation backends for checkpoint search.

    A search scores its candidate flag vectors either through the
    {!Evaluator} oracle, which recomputes the whole Theorem 3 recurrence and
    the {!Lost_work} matrix per call, or on one {!Flat_engine} kernel bound
    to a fixed [(model, dag, order)] triple, whose flag changes cost only
    the suffix they affect. This module names that choice and builds the
    kernel a [Flat] search (or the serving layer's warm-engine cache)
    holds. Replicated schedules are not scored here: their lost work and
    per-attempt terms depend on the replica counts, so they go through
    {!Replication.evaluate} per candidate. *)

type backend = Naive | Flat
(** Selector used by the search modules: [Naive] calls {!Evaluator} per
    candidate (the oracle-backed reference path), [Flat] uses the
    {!Flat_engine} kernel. Each backend reports its own values: a [Flat]
    search never calls {!Evaluator}, and its makespans agree with a
    [Naive] search's to the last ulps, not bit for bit. *)

val backend_name : backend -> string

val backend_of_string : string -> backend option
(** Inverse of {!backend_name}, case-insensitive: ["naive"] or ["flat"]. *)

val rel_diff : float -> float -> float
(** [rel_diff a b] is [|a - b| / max |a| |b|], and [0.] when [a] and [b]
    are equal (infinities and NaNs included). *)

val backends_agree : float -> float -> bool
(** [backends_agree a b] is [rel_diff a b <= 1e-9]: the bound to which a
    [Naive] and a [Flat] search's makespans for the same schedule are
    checked to agree. *)

val handle :
  ?flags:bool array ->
  backend ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  Flat_engine.t
(** [handle Flat model g ~order] is [Flat_engine.create ?flags model g
    ~order]: the engine a [Flat] search holds.

    @raise Invalid_argument on [Naive] (which has no engine state), or on
      the conditions of {!Flat_engine.create}. *)
