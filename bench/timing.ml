(* Wall-clock timing shared by every bench figure. *)

(* [once f] runs [f] once and returns its result with the elapsed wall
   seconds. *)
let once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Wall seconds of [repeats] runs of [f]. The major heap is drained before
   each sample so it carries only [f]'s own GC work, not collection debt
   inherited from whatever ran before — short samples are otherwise
   dominated by it. *)
let samples ~repeats f =
  List.init repeats (fun _ ->
      Gc.full_major ();
      snd (once (fun () -> Sys.opaque_identity (f ()))))

(* Median of [repeats] samples, seconds. *)
let median ?(repeats = 3) f =
  List.nth (List.sort compare (samples ~repeats f)) (repeats / 2)

(* Minimum of [repeats] samples, seconds: the min estimator discards
   scheduler preemptions instead of averaging them in, so it is the most
   repeatable point estimate of the true cost. *)
let best ?(repeats = 5) f =
  List.fold_left Float.min infinity (samples ~repeats f)
