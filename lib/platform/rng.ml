(* SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, fast, splittable
   generator with solid statistical quality for simulation purposes. *)

(* The 64-bit state lives in an 8-byte buffer rather than a mutable [int64]
   field: the byte primitives load and store it unboxed, so a draw allocates
   nothing beyond its boxed float result ({!exponential_into} not even
   that). *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let reseed t seed = set_state t 0 (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (bits64 t)
let copy t = Bytes.copy t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let r = Int64.shift_right_logical (bits64 t) 1 (* 63 bits, >= 0 *) in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then
      draw ()
    else Int64.to_int v
  in
  draw ()

let[@inline] uniform t =
  (* 53 uniform bits into [0, 1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. 0x1.0p-53

let float t bound = bound *. uniform t

(* u in [0,1) so 1 - u in (0,1]; log is finite. *)
let[@inline] draw_exponential t rate = -.Float.log (1. -. uniform t) /. rate

let exponential t ~rate =
  if not (rate > 0.) then invalid_arg "Rng.exponential: rate must be positive";
  draw_exponential t rate

(* The draw is stored, not returned: a float returned across a module
   boundary is boxed, a float stored into a float array is not. *)
let exponential_into t ~rate (slot : float array) i =
  if not (rate > 0.) then
    invalid_arg "Rng.exponential_into: rate must be positive";
  slot.(i) <- draw_exponential t rate

let gaussian t ~mean ~stddev =
  if stddev < 0. then invalid_arg "Rng.gaussian: negative stddev";
  let rec nonzero () =
    let u = uniform t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = uniform t in
  let z = Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2) in
  mean +. (stddev *. z)

let truncated_gaussian t ~mean ~stddev ~lo =
  if mean < lo then invalid_arg "Rng.truncated_gaussian: mean below lo";
  let rec try_draw attempts =
    if attempts = 0 then lo
    else
      let x = gaussian t ~mean ~stddev in
      if x >= lo then x else try_draw (attempts - 1)
  in
  try_draw 64
