(** Evaluation backends and engine handles for checkpoint search.

    {!Evaluator.evaluate} recomputes the full Theorem 3 recurrence — and the
    whole {!Lost_work} matrix — from scratch on every call. The search
    modules instead bind one {!Flat_engine} kernel to a fixed
    [(model, dag, order)] triple and mutate its checkpoint flags, so a
    one-flag change costs only the suffix it can affect. This module selects
    between that kernel and the oracle, and wraps the kernel (or a
    replicated schedule) behind one {!handle} type so every search loop is a
    single code path.

    For a fixed engine, the makespan is a pure function of the current flag
    vector: any interleaving of flips, flag assignments and rollbacks ending
    in the same flags yields bit-identical results, which is what makes
    {!batch_evaluate} deterministic regardless of the domain split. *)

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

(** {1 Engine handles}

    Search loops hold a [handle] instead of a concrete engine so one code
    path serves plain and replicated schedules. *)

type handle

val handle :
  ?flags:bool array ->
  ?replicas:int array ->
  ?replica_cost:float ->
  backend ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  handle
(** Builds the engine the backend selects. When [replicas] (per-task counts)
    contains a count above 1, the handle evaluates the replicated schedule
    through {!Replication.evaluate} (surcharge [replica_cost], default
    {!Replication.default_cost}) with one full evaluation cached per flag
    vector — every [h_*] operation below keeps its meaning, replica counts
    stay fixed for the handle's lifetime. [replicas] absent or all-ones
    builds a plain {!Flat_engine}.

    @raise Invalid_argument on [Naive] (which has no engine state), or on
      the conditions of {!Flat_engine.create}. *)

val h_makespan : handle -> float
val h_prefix_makespan : handle -> upto:int -> float
val h_suffix_makespan : handle -> from:int -> float
val h_flip : handle -> int -> float
val h_set_flag_at : handle -> pos:int -> bool -> unit
val h_set_flags : handle -> bool array -> unit
val h_commit : handle -> unit
val h_rollback : handle -> unit
val h_set_model : handle -> Wfc_platform.Failure_model.t -> unit
val h_order : handle -> int array
val h_flags : handle -> bool array
val h_n_tasks : handle -> int
(** Each [h_*] is the corresponding {!Flat_engine} operation
    ({!Flat_engine.flip}, {!Flat_engine.set_flags}, …). *)

val h_replicas : handle -> int array option
(** The per-task replica counts of a replicated handle, [None] for a plain
    kernel. *)

val batch_evaluate :
  ?domains:int ->
  ?replicas:int array ->
  ?replica_cost:float ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  bool array list ->
  float list
(** [batch_evaluate model g ~order candidates] evaluates each candidate flag
    vector and returns their expected makespans in order, fanning the
    candidates across [domains] OCaml domains ({!Wfc_platform.Domain_pool},
    default {!Wfc_platform.Domain_pool.default_domains}). Each domain walks
    its contiguous slice with a private {!Flat_engine}, so the output is
    bit-identical for every value of [domains]. With replicated [replicas]
    each candidate is scored by {!Replication.evaluate} instead (same
    determinism guarantee); all-ones [replicas] is the unchanged engine
    path.

    @raise Invalid_argument on bad [order], flag sizes, or [domains <= 0]. *)
