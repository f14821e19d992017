(** Deterministic pseudo-random number generator (SplitMix64).

    All stochastic components of the library (workflow generation, random
    linearizations, fault injection) draw from this generator so that every
    experiment is reproducible from an integer seed, independently of the
    OCaml standard library's [Random] implementation. *)

type t

val create : int -> t
(** [create seed] builds a generator; equal seeds yield equal streams. *)

val reseed : t -> int -> unit
(** [reseed t seed] resets [t] in place to [create seed]'s state. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. Use it to
    give each sub-experiment its own stream so adding draws to one component
    does not perturb another. *)

val copy : t -> t
(** Snapshot of the current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** [uniform t] is uniform in [\[0, 1)]. *)

val exponential : t -> rate:float -> float
(** [exponential t ~rate] draws from the exponential distribution of
    parameter [rate] by inversion; mean [1 /. rate].
    @raise Invalid_argument if [rate <= 0]. *)

val exponential_into : t -> rate:float -> float array -> int -> unit
(** [exponential_into t ~rate slot i] stores into [slot.(i)] the draw
    {!exponential} would return, from the same stream, bit for bit. A float
    returned from another module is boxed; a stored one is not, so this
    draw allocates nothing — the simulator's per-attempt draw.
    @raise Invalid_argument if [rate <= 0]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box–Muller normal draw. @raise Invalid_argument if [stddev < 0]. *)

val truncated_gaussian : t -> mean:float -> stddev:float -> lo:float -> float
(** Gaussian draw resampled (then clamped after 64 tries) to be [>= lo]; used
    for task weights, which must stay positive.
    @raise Invalid_argument if [stddev < 0] or [mean < lo]. *)
