(* The benchmark's own machinery: its statistics, its span arithmetic and
   the seed-to-inputs contract. *)

module P = Wfc_workflows.Pegasus
module Pr = Wfc_serve.Protocol

let feq = Alcotest.float 1e-12

(* ---- statistics ------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let test_tail_rule () =
  let tail n =
    Stats.tail_sorted (sorted (List.init n (fun i -> float_of_int (i + 1))))
  in
  (match tail 100 with
  | Some t ->
      Alcotest.check feq "10 beyond x_90" 90. t.Stats.value;
      Alcotest.check feq "named p90" 90. t.Stats.percentile;
      Alcotest.(check int) "n" 100 t.Stats.n
  | None -> Alcotest.fail "100 samples have a tail");
  (match tail 1000 with
  | Some t -> Alcotest.check feq "p99 at n=1000" 99. t.Stats.percentile
  | None -> Alcotest.fail "1000 samples have a tail");
  (match tail 11 with
  | Some t ->
      Alcotest.check feq "smallest of 11" 1. t.Stats.value;
      Alcotest.check feq "p100/11" (100. /. 11.) t.Stats.percentile
  | None -> Alcotest.fail "11 samples have a tail");
  Alcotest.(check bool) "10 samples have none" true (tail 10 = None)

let test_failures () =
  let outcomes = Stats.[ Done 0.010; Failed "busy"; Done 0.020 ] in
  Alcotest.(check int) "attempted" 3 (Stats.attempted outcomes);
  Alcotest.(check int) "failed" 1 (Stats.failed outcomes);
  Alcotest.(check bool) "a failure misses any latency limit" true
    (Stats.latency (Stats.Failed "timeout") > 1e300);
  Alcotest.check feq "the failure ranks last" 0.020
    (Stats.median_sorted (Stats.sorted_latencies outcomes))

(* A fake clock: set-up has used 100 s before the loop starts and every
   request takes 0.5 s. *)
let fake_loop ~seconds send =
  let t = ref 100. in
  Stats.closed_loop ~clock:(fun () -> !t) ~seconds (fun i ->
      t := !t +. 0.5;
      send i)

let test_throughput () =
  let p = fake_loop ~seconds:2. (fun _ -> Ok ()) in
  Alcotest.(check int) "4 requests fit in 2 s" 4 (Stats.attempted p.Stats.outcomes);
  Alcotest.check feq "phase starts after set-up" 100. p.Stats.started;
  Alcotest.check feq "2 per second, set-up excluded" 2. (Stats.throughput p);
  let p = fake_loop ~seconds:2. (fun i -> if i = 1 then Error (`Mismatch "bytes") else Ok ()) in
  Alcotest.(check int) "a mismatch does not stop the loop" 4 (Stats.attempted p.Stats.outcomes);
  Alcotest.check feq "only completed requests count" 1.5 (Stats.throughput p)

(* A stall in one stretch moves the whole-phase rate but not the median
   over stretches: 24 requests of 0.5 s, request 5 taking 5.5 s. *)
let test_median_throughput () =
  let t = ref 100. in
  let p =
    Stats.closed_loop ~clock:(fun () -> !t) ~seconds:17. (fun i ->
        t := !t +. if i = 5 then 5.5 else 0.5;
        Ok ())
  in
  Alcotest.(check int) "24 requests" 24 (Stats.attempted p.Stats.outcomes);
  Alcotest.check feq "whole phase" (24. /. 17.) (Stats.throughput p);
  Alcotest.check feq "median over stretches" 2. (Stats.median_throughput p);
  let p = fake_loop ~seconds:2. (fun i -> if i = 1 then Error (`Mismatch "bytes") else Ok ()) in
  Alcotest.check feq "stretches of one, failed ones count 0" 2. (Stats.median_throughput p)

let phase_of latencies =
  let t = ref 0. in
  let finished = List.map (fun l -> t := !t +. l; !t) latencies in
  { Stats.started = 0.; stopped = !t; outcomes = List.map (fun l -> Stats.Done l) latencies; finished }

let test_median_tail () =
  (* 300 samples, 45 slow ones all in the last stretch of 60 *)
  let p = phase_of (List.init 300 (fun i -> if i >= 240 && i < 285 then 9. else 1.)) in
  (match Stats.tail_sorted (Stats.sorted_latencies p.Stats.outcomes) with
  | Some t -> Alcotest.check feq "whole phase: the tail is slow" 9. t.Stats.value
  | None -> Alcotest.fail "300 samples have a tail");
  (match Stats.median_tail p with
  | Some (t, k) ->
      Alcotest.(check int) "five stretches" 5 k;
      Alcotest.check feq "median of the stretch tails" 1. t.Stats.value;
      Alcotest.check feq "each stretch's 50th of 60" (100. *. 50. /. 60.) t.Stats.percentile;
      Alcotest.(check int) "per-stretch n" 60 t.Stats.n
  | None -> Alcotest.fail "300 samples have a tail");
  (* stretches of 12 would put the rule at p17: the whole phase decides *)
  match Stats.median_tail (phase_of (List.init 60 (fun i -> float_of_int (i + 1)))) with
  | Some (t, k) ->
      Alcotest.(check int) "one stretch" 1 k;
      Alcotest.check feq "50th of 60" 50. t.Stats.value
  | None -> Alcotest.fail "60 samples have a tail"

let test_fatal_stops () =
  let p =
    fake_loop ~seconds:10. (fun i -> if i = 2 then Error (`Fatal "daemon dead") else Ok ())
  in
  Alcotest.(check int) "the fatal request is the last attempted" 3
    (Stats.attempted p.Stats.outcomes);
  Alcotest.(check int) "and is failed" 1 (Stats.failed p.Stats.outcomes)

(* ---- self time ---------------------------------------------------------- *)

let test_self_time () =
  let mk sid parent start stop = { Spans.sid; parent; req = 0; name = "s"; start; stop } in
  let spans =
    [
      mk 1 0 0. 10.;
      (* two overlapping children of 1, one with a grandchild *)
      mk 2 1 1. 4.;
      mk 3 1 3. 6.;
      mk 4 2 2. 3.;
      (* a child reaching past its parent is clipped to it *)
      mk 5 1 8. 12.;
    ]
  in
  let self sid =
    snd (List.find (fun ((s : Spans.span), _) -> s.Spans.sid = sid) (Spans.self_times spans))
  in
  Alcotest.check feq "root: 10 - |[1,6] u [8,10]|" 3. (self 1);
  Alcotest.check feq "nested: 3 - 1" 2. (self 2);
  Alcotest.check feq "leaf" 3. (self 3);
  Alcotest.check feq "grandchild" 1. (self 4);
  Alcotest.check feq "clipped child keeps its own length" 4. (self 5)

let test_recorded_spans () =
  Spans.start ();
  Spans.set_recording true;
  Spans.with_req 7 (fun () -> Spans.span "outer" (fun () -> Spans.span "inner" ignore));
  Spans.set_recording false;
  Spans.set_recording true;
  Spans.with_req 8 (fun () -> Spans.span "later" ignore);
  Spans.set_recording false;
  let spans = Spans.recorded () in
  let find name = List.find (fun (s : Spans.span) -> s.Spans.name = name) spans in
  let outer = find "outer" and inner = find "inner" and later = find "later" in
  Alcotest.(check int) "inner's parent" outer.Spans.sid inner.Spans.parent;
  Alcotest.(check int) "request id" 7 inner.Spans.req;
  Alcotest.(check bool) "one time base across toggles" true
    (later.Spans.start >= outer.Spans.stop)

(* ---- seeds -------------------------------------------------------------- *)

let cold_lines seed =
  let c = Inputs.cold seed in
  List.init (Inputs.cold_warmups + Inputs.cold_fill) (fun j ->
      Inputs.cold_line (Inputs.cold_warmup_seed c j))
  @ List.init 200 (fun i -> Inputs.cold_line (Inputs.cold_seed c i))

let warm_lines seed = Array.to_list (Array.map Inputs.warm_line (Inputs.warm_seeds seed))

let test_same_seed () =
  Alcotest.(check (list string)) "serve-warm requests" (warm_lines 7) (warm_lines 7);
  Alcotest.(check (list string)) "simulate-cold requests" (cold_lines 7) (cold_lines 7);
  Alcotest.(check (list (pair string string))) "corpus files" (Inputs.corpus_files 7)
    (Inputs.corpus_files 7);
  let c = Inputs.cold 7 in
  let timed = List.init 1000 (Inputs.cold_seed c) in
  Alcotest.(check int) "cold seeds never repeat" 1000 (List.length (List.sort_uniq compare timed));
  List.iter
    (fun j ->
      Alcotest.(check bool) "warm-ups outside the timed set" false
        (List.mem (Inputs.cold_warmup_seed c j) timed))
    (List.init (Inputs.cold_warmups + Inputs.cold_fill) Fun.id)

let cache_key line =
  match Inputs.request_of_line line with
  | Pr.Solve p | Pr.Simulate { params = p; _ } -> (
      match p.Pr.workflow with
      | Pr.Generated { family; n; seed; cost } ->
          let g = Wfc_workflows.Cost_model.apply cost (P.generate family ~n ~seed) in
          let model =
            Wfc_platform.Failure_model.of_mtbf ~mtbf:p.Pr.mtbf ~downtime:p.Pr.downtime ()
          in
          let order = Wfc_dag.Linearize.run p.Pr.lin g in
          Wfc_core.Engine_key.to_string (Wfc_core.Engine_key.make p.Pr.backend model g ~order)
      | _ -> Alcotest.fail "generated workflows only")
  | _ -> Alcotest.fail "solve or simulate only"

let test_other_seed () =
  let keys lines = List.map cache_key lines in
  let disjoint a b = List.for_all (fun k -> not (List.mem k b)) a in
  Alcotest.(check bool) "serve-warm keys differ" true
    (disjoint (keys (warm_lines 7)) (keys (warm_lines 8)));
  let first k seed = List.filteri (fun i _ -> i < k) (cold_lines seed) in
  Alcotest.(check bool) "simulate-cold keys differ" true
    (disjoint (keys (first 6 7)) (keys (first 6 8)));
  Alcotest.(check bool) "corpus files differ" true
    (List.map snd (Inputs.corpus_files 7) <> List.map snd (Inputs.corpus_files 8))

let () =
  Alcotest.run "wfcbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "failure accounting" `Quick test_failures;
          Alcotest.test_case "throughput over the timed phase" `Quick test_throughput;
          Alcotest.test_case "median throughput over stretches" `Quick test_median_throughput;
          Alcotest.test_case "median tail over stretches" `Quick test_median_tail;
          Alcotest.test_case "fatal failure ends the loop" `Quick test_fatal_stops;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time, nested and overlapping" `Quick test_self_time;
          Alcotest.test_case "recorded spans" `Quick test_recorded_spans;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "other seed, other cache keys" `Quick test_other_seed;
        ] );
    ]
