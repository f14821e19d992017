(** The one evaluation path of checkpoint search, by name.

    Every search scores its candidate flag vectors on one {!Flat_engine}
    kernel bound to a fixed [(model, dag, order)] triple, whose flag changes
    cost only the suffix they affect. The {!Evaluator} oracle is not a
    search path: it checks this one from the test suites. Replicated
    schedules run on the same kernel, which takes the replica vector.

    [backend], {!backend_name} and {!handle} are always [Flat]; they are
    kept for wfcbench, which links them (see ROADMAP item 3). *)

type backend = Flat
(** Always [Flat]; kept for wfcbench, see ROADMAP item 3. *)

val backend_name : backend -> string
(** ["flat"], the wire's only [engine] value. *)

val backend_of_string : string -> backend option
(** Inverse of {!backend_name}, case-insensitive: [Some Flat] on ["flat"],
    [None] on anything else (the wire's [unknown engine] error). *)

val rel_diff : float -> float -> float
(** [rel_diff a b] is [|a - b| / max |a| |b|], and [0.] when [a] and [b]
    are equal (infinities and NaNs included). *)

val handle :
  ?flags:bool array ->
  backend ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  Flat_engine.t
(** [handle Flat model g ~order] is [Flat_engine.create ?flags model g
    ~order]. Always [Flat]; kept for wfcbench, see ROADMAP item 3.

    @raise Invalid_argument on the conditions of {!Flat_engine.create}. *)
