(* The benchmark's own statistics: latency summaries, the tail rule,
   failure accounting and closed-loop throughput. *)

(* One attempted operation. A failure (error response, busy, timeout,
   connection failure or output mismatch) counts as attempted and as missing
   any latency limit, so it ranks as an infinite latency. *)
type outcome = Done of float  (** seconds *) | Failed of string

let latency = function Done s -> s | Failed _ -> infinity

let sorted_latencies outcomes =
  let a = Array.of_list (List.map latency outcomes) in
  Array.sort Float.compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  median_sorted a

type tail = { value : float; percentile : float; n : int }

(* The highest percentile with at least ten samples beyond it: the
   (n-10)-th smallest of n samples, reported with its percentile
   100 (n-10)/n and n. Fewer than 11 samples have no such percentile. *)
let tail_sorted a =
  let n = Array.length a in
  if n < 11 then None
  else
    let k = n - 10 in
    Some
      {
        value = a.(k - 1);
        percentile = 100. *. float_of_int k /. float_of_int n;
        n;
      }

let attempted outcomes = List.length outcomes

let failed outcomes =
  List.length (List.filter (function Failed _ -> true | Done _ -> false) outcomes)

(* ---- the closed loop -------------------------------------------------- *)

type phase = {
  started : float;
  stopped : float;
  outcomes : outcome list;  (** in issue order *)
  finished : float list;  (** when each outcome was known, in issue order *)
}

(* One client, closed loop: request [i] is issued only after request [i-1]
   answered, until [seconds] have elapsed since the phase started. [send]
   returns [`Fatal] when the target is gone (dead or wedged daemon): the
   loop records the failure and ends instead of hanging on later requests. *)
let closed_loop ~clock ~seconds send =
  let started = clock () in
  let deadline = started +. seconds in
  let rec go i acc =
    if clock () >= deadline then acc
    else
      let t0 = clock () in
      let r = send i in
      let t1 = clock () in
      match r with
      | Ok () -> go (i + 1) ((Done (t1 -. t0), t1) :: acc)
      | Error (`Mismatch msg) -> go (i + 1) ((Failed msg, t1) :: acc)
      | Error (`Fatal msg) -> (Failed msg, t1) :: acc
  in
  let outcomes, finished = List.split (List.rev (go 0 [])) in
  { started; stopped = clock (); outcomes; finished }

(* Completed (non-failed) operations per second of the timed phase; set-up
   and warm-up happen before [started] and never count. *)
let throughput p =
  let ok = attempted p.outcomes - failed p.outcomes in
  let dt = p.stopped -. p.started in
  if dt > 0. then float_of_int ok /. dt else 0.

(* ---- slices: medians over the run ------------------------------------- *)

(* The timed phase cut into [slices] consecutive stretches of equal request
   count. Throughput and the tail are taken per stretch and the median is
   reported, so one stretch disturbed by the host does not decide them. *)
let slices = 5

(* (outcomes, seconds) of each stretch; the stretches tile the phase from
   its start to the last outcome. *)
let stretches p =
  let o = Array.of_list p.outcomes and f = Array.of_list p.finished in
  let n = Array.length o in
  let k = min slices n in
  List.init k (fun j ->
      let a = j * n / k and b = (j + 1) * n / k in
      let t0 = if a = 0 then p.started else f.(a - 1) in
      (Array.to_list (Array.sub o a (b - a)), f.(b - 1) -. t0))

let completed outcomes = attempted outcomes - failed outcomes

(* Median over the stretches of completed requests per second. *)
let median_throughput p =
  match stretches p with
  | [] -> 0.
  | s ->
      median
        (List.map (fun (o, dt) -> if dt > 0. then float_of_int (completed o) /. dt else 0.) s)

(* Stretches shorter than this leave the tail rule below p80, which is no
   tail; the whole phase decides then. *)
let min_stretch = 50

(* The tail rule applied to each stretch, with the median over stretches of
   the values and of the percentiles, and the sample count of the smallest
   stretch; the whole phase when a stretch would hold fewer than
   [min_stretch] samples. Returns the tail and the number of stretches. *)
let median_tail p =
  let s = stretches p in
  let tails = List.map (fun (o, _) -> tail_sorted (sorted_latencies o)) s in
  if List.length s = slices && List.for_all (fun (o, _) -> List.length o >= min_stretch) s
  then
    let tails = List.filter_map Fun.id tails in
    Some
      ( {
          value = median (List.map (fun t -> t.value) tails);
          percentile = median (List.map (fun t -> t.percentile) tails);
          n = List.fold_left (fun m t -> min m t.n) max_int tails;
        },
        slices )
  else Option.map (fun t -> (t, 1)) (tail_sorted (sorted_latencies p.outcomes))
