module FM = Wfc_platform.Failure_model
module Metrics = Wfc_obs.Metrics

let m_evaluations = Metrics.counter "repl.evaluations"

let default_cost = 1.

let effective_weight ~cost ~weight ~r =
  if not (cost >= 0.) then invalid_arg "Replication: negative replica cost";
  if r = 1 then weight else weight *. (1. +. (cost *. float_of_int (r - 1)))

let harmonic r =
  let h = ref 0. in
  for j = 1 to r do
    h := !h +. (1. /. float_of_int j)
  done;
  !h

(* {1 Per-attempt failure algebra}

   A task with [r] replicas runs r independent copies of each attempt, every
   copy exposed to its own exponential failure clock at the platform rate
   [lambda]. The attempt of length [t] is lost only when all r copies fail
   inside it, which happens with probability [(1 - e^{-lambda t})^r]; the
   loss occurs when the last copy dies. [r = 1] recovers the paper's model
   exactly. *)

let attempt_failure_probability ~lambda ~r t =
  if lambda <= 0. || t <= 0. then 0.
  else begin
    let q1 = -.Float.expm1 (-.lambda *. t) in
    let q = ref q1 in
    for _ = 2 to r do
      q := !q *. q1
    done;
    !q
  end

(* tau_bar(t) = E[max of r iid Exp(lambda) | all < t] = t - I(t)/F(t) with
   F(s) = (1 - e^{-lambda s})^r and I = integral of F over [0, t], expanded
   by the binomial theorem. The alternating sum cancels catastrophically for
   lambda t << 1, but the value is always weighted by the attempt failure
   probability F(t) (itself ~ (lambda t)^r there), so clamping to [0, t]
   bounds the absolute error of the product harmlessly. *)
let conditional_mean_elapsed ~lambda ~r t =
  if not (Float.is_finite t) then harmonic r /. lambda
  else begin
    let f = attempt_failure_probability ~lambda ~r t in
    if f <= 0. then t
    else begin
      let integral = ref t in
      let binom = ref 1. in
      for j = 1 to r do
        binom := !binom *. float_of_int (r - j + 1) /. float_of_int j;
        let jf = float_of_int j in
        let em = -.Float.expm1 (-.jf *. lambda *. t) in
        let term = !binom *. em /. (jf *. lambda) in
        if j land 1 = 1 then integral := !integral -. term
        else integral := !integral +. term
      done;
      Float.max 0. (Float.min t (t -. (!integral /. f)))
    end
  end

(* The attempt's survival probability 1 - q, given its loss probability
   q = p^r with p = 1 - e^{-lambda t}. Past q = 1/2 the subtraction cancels
   (lambda t around 16 keeps barely seven digits), so there the survival is
   summed as e^{-lambda t} (1 + p + ... + p^{r-1}), whose terms are all
   positive; below, 1 - q loses nothing and costs no transcendental. *)
let attempt_survival ~lambda ~r t q =
  if q <= 0.5 then 1. -. q
  else begin
    let p = -.Float.expm1 (-.lambda *. t) in
    let sum = ref 1. in
    for _ = 2 to r do
      sum := 1. +. (p *. !sum)
    done;
    Float.exp (-.lambda *. t) *. !sum
  end

(* The exposure e(t) such that exp (-lambda * e(t)) equals the attempt's
   survival probability: accumulating these per separating attempt turns
   the product of per-attempt survivals back into the single-exponential
   form the Theorem 3 recurrences use. r = 1 is the identity. *)
let equivalent_exposure ~lambda ~r t =
  if r = 1 then t
  else if lambda <= 0. then 0.
  else begin
    let q = attempt_failure_probability ~lambda ~r t in
    (* log1p keeps the digits of a small q *)
    if q <= 0.5 then -.Float.log1p (-.q) /. lambda
    else -.Float.log (attempt_survival ~lambda ~r t q) /. lambda
  end

(* Replicated generalization of the paper's Eq (1): a renewal of attempts
   whose first try lasts [work + checkpoint] and whose retries prepend the
   [recovery] read, each attempt lost with probability F(length) at the
   elapsed time tau_bar(length), followed by one repair [downtime]. For
   r = 1 this reduces algebraically to
   e^{lambda recovery} (1/lambda + D) (e^{lambda (work+checkpoint)} - 1). *)
let expected_attempt_time ~lambda ~downtime ~r ~work ~checkpoint ~recovery =
  let a0 = work +. checkpoint in
  if lambda <= 0. then a0
  else begin
    let q0 = attempt_failure_probability ~lambda ~r a0 in
    if q0 <= 0. then a0
    else begin
      let a1 = recovery +. a0 in
      let q1 = attempt_failure_probability ~lambda ~r a1 in
      let s1 = attempt_survival ~lambda ~r a1 q1 in
      if s1 <= 0. then Float.infinity
      else begin
        let t0 = conditional_mean_elapsed ~lambda ~r a0 in
        let t1 = conditional_mean_elapsed ~lambda ~r a1 in
        let retry = ((s1 *. a1) +. (q1 *. (t1 +. downtime))) /. s1 in
        ((1. -. q0) *. a0) +. (q0 *. (t0 +. downtime +. retry))
      end
    end
  end

(* {1 Theorem 3} *)

type result = {
  makespan : float;
  per_position : float array;
  fault_probability : float array;
}

let recurrence ?lost ?(cost = default_cost) model g sched =
  (* replicas change the lost-work weights themselves, so a caller-provided
     unreplicated matrix would silently be wrong *)
  if lost <> None && Schedule.is_replicated sched then
    invalid_arg "Replication.recurrence: ?lost with a replicated schedule";
  let n = Schedule.n_tasks sched in
  let lambda = model.FM.lambda in
  (* effective weights: every extra replica re-executes the task's work,
     priced at [cost] times the original; checkpoint writes and recovery
     reads are shared by the copies and stay unscaled *)
  let weight =
    Array.init n (fun v ->
        effective_weight ~cost
          ~weight:(Wfc_dag.Dag.task g v).Wfc_dag.Task.weight
          ~r:(Schedule.replicas_of sched v))
  in
  (* replayed tasks re-run with their replicas too, so lost work is charged
     at the surcharged rate *)
  let lost =
    match lost with Some l -> l | None -> Lost_work.compute ~weight g sched
  in
  let rows = Array.init n (Lost_work.row lost) in
  let replay k i = if k < 0 then 0. else rows.(k).(i - k) in
  (* segment.(k) holds the failure-free work separating X_k from X_i, in
     survival-equivalent exposure units, updated incrementally as i
     advances; segment_start is the k = -1 ("no failure yet") variant *)
  let segment = Array.make n 0. in
  let segment_start = ref 0. in
  let fault_probability = Array.make n 0. in
  let per_position = Array.make n 0. in
  let makespan = ref 0. in
  for i = 0 to n - 1 do
    let v = Schedule.task_at sched i in
    let r_i = Schedule.replicas_of sched v and w_i = weight.(v) in
    let c_i =
      if Schedule.is_checkpointed sched v then
        (Wfc_dag.Dag.task g v).Wfc_dag.Task.checkpoint_cost
      else 0.
    in
    let replay_full = replay i i in
    let expectation k =
      let l = replay k i in
      let work = l +. w_i and recovery = Float.max 0. (replay_full -. l) in
      if r_i = 1 then
        FM.expected_exec_time model ~work ~checkpoint:c_i ~recovery
      else
        expected_attempt_time ~lambda ~downtime:model.FM.downtime ~r:r_i ~work
          ~checkpoint:c_i ~recovery
    in
    (* probability of each fault epoch k = -1, 0..i-1 (recurrences A and B) *)
    let p_fresh = Float.exp (-.lambda *. !segment_start) in
    let e_xi = ref (if p_fresh > 0. then p_fresh *. expectation (-1) else 0.) in
    let sum_p = ref p_fresh in
    for k = 0 to i - 2 do
      let p = Float.exp (-.lambda *. segment.(k)) *. fault_probability.(k) in
      sum_p := !sum_p +. p;
      if p > 0. then e_xi := !e_xi +. (p *. expectation k)
    done;
    if i >= 1 then begin
      let p_last = Float.max 0. (1. -. !sum_p) in
      fault_probability.(i - 1) <- p_last;
      if p_last > 0. then e_xi := !e_xi +. (p_last *. expectation (i - 1))
    end;
    per_position.(i) <- !e_xi;
    makespan := !makespan +. !e_xi;
    (* advance the separating sums: exp (-lambda * sum of exposures) is
       exactly the probability that every separating attempt kept at least
       one replica alive *)
    for k = 0 to i - 1 do
      segment.(k) <-
        segment.(k)
        +. equivalent_exposure ~lambda ~r:r_i (replay k i +. w_i +. c_i)
    done;
    (* r = 1 keeps the association (s + w) + c the plain oracle has always
       used: its bits are pinned *)
    segment_start :=
      if r_i = 1 then !segment_start +. w_i +. c_i
      else !segment_start +. equivalent_exposure ~lambda ~r:r_i (w_i +. c_i)
  done;
  (* Recurrence (B) defines P(F(X_{i-1})) while processing i; one virtual
     step past the last position fills in the final interval. *)
  if n >= 1 then begin
    let sum_p = ref (Float.exp (-.lambda *. !segment_start)) in
    for k = 0 to n - 2 do
      sum_p :=
        !sum_p +. (Float.exp (-.lambda *. segment.(k)) *. fault_probability.(k))
    done;
    fault_probability.(n - 1) <- Float.max 0. (1. -. !sum_p)
  end;
  { makespan = !makespan; per_position; fault_probability }

let evaluate ?cost model g sched =
  if Metrics.enabled () then Metrics.incr m_evaluations;
  recurrence ?cost model g sched

(* {1 Replication specs (CLI surface)} *)

type spec = Auto | No_replication | Heavy of int | Budget of float

let spec_name = function
  | Auto -> "auto"
  | No_replication -> "none"
  | Heavy k -> Printf.sprintf "k:%d" k
  | Budget f -> Printf.sprintf "budget:%g" f

let spec_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "none" -> Some No_replication
  | s -> (
      match String.index_opt s ':' with
      | Some i -> (
          let key = String.sub s 0 i in
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          match key with
          | "k" -> (
              match int_of_string_opt v with
              | Some k when k >= 1 -> Some (Heavy k)
              | _ -> None)
          | "budget" -> (
              match float_of_string_opt v with
              | Some f when f > 0. && Float.is_finite f -> Some (Budget f)
              | _ -> None)
          | _ -> None)
      | None -> None)
