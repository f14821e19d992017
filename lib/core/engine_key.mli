(** Identity of a warm evaluation engine, the key of the serving layer's
    engine LRU.

    A warm {!Flat_engine} may answer for a request exactly when the
    [(model, dag, order)] triple it was built for matches the request's.
    This key digests each component into 64-bit fingerprints — the DAG via
    {!Wfc_dag.Dag.fingerprint}, the linearization via the same FNV-1a fold,
    the model via the raw IEEE bits of lambda and downtime — so lookups are
    O(1) and the key retains no reference to the DAG. Equal keys mean
    bit-identical evaluation up to the documented fingerprint collision
    risk (2{^-64}-ish per pair). *)

type t = {
  dag : int64;  (** {!Wfc_dag.Dag.fingerprint} of the workflow *)
  order : int64;  (** FNV-1a fold of the linearization *)
  lambda : int64;  (** IEEE bits of the failure rate *)
  downtime : int64;  (** IEEE bits of the downtime *)
}

val make :
  Eval_engine.backend ->
  Wfc_platform.Failure_model.t ->
  Wfc_dag.Dag.t ->
  order:int array ->
  t
(** [make Flat model g ~order]. The backend argument is always [Flat]; it
    is kept for wfcbench, see ROADMAP item 3. *)

val order_fingerprint : int array -> int64
(** The FNV-1a fold used for the [order] component (exposed for tests). *)

val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** Hex rendering, e.g. for cache-debug logs. *)
