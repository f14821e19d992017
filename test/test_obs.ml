(* Observability layer: registry exactness under concurrent recording,
   histogram merge laws, span nesting, and export round-trips — plus the
   end-to-end guarantees the CLI relies on (valid Chrome JSON from a real
   solver run, engine-independent simulator counts). *)

open Wfc_core
module Metrics = Wfc_obs.Metrics
module Trace = Wfc_obs.Trace
module Json = Wfc_io.Json
module Pool = Wfc_platform.Domain_pool

let qtest = Wfc_test_util.qtest

let with_obs = Wfc_test_util.with_obs

(* ---- metrics: counters under concurrency ------------------------------ *)

let test_counter_concurrent =
  qtest ~count:30 "counters are exact under concurrent recording"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 5_000))
    QCheck2.Print.(pair int int)
    (fun (domains, per_domain) ->
      with_obs @@ fun () ->
      let c = Metrics.counter "obs.test.concurrent" in
      ignore
        (Pool.run ~domains (fun i ->
             for _ = 1 to per_domain do
               Metrics.incr c
             done;
             Metrics.add c i));
      Metrics.counter_value c
      = (domains * per_domain) + (domains * (domains - 1) / 2))

(* ---- metrics: histogram bucketing and merge laws ----------------------- *)

(* Reference snapshot computed sequentially, against which the sharded
   implementation must agree however recording was interleaved. *)
let snap_of samples =
  let buckets = Array.make Metrics.n_buckets 0 in
  List.iter
    (fun x ->
      let b = Metrics.bucket_of x in
      buckets.(b) <- buckets.(b) + 1)
    samples;
  {
    Metrics.hcount = List.length samples;
    hsum = List.fold_left ( +. ) 0. samples;
    buckets;
  }

let same_hist a b =
  a.Metrics.hcount = b.Metrics.hcount
  && a.Metrics.buckets = b.Metrics.buckets
  && Wfc_test_util.close ~eps:1e-9 a.Metrics.hsum b.Metrics.hsum

let gen_samples =
  QCheck2.Gen.(list_size (int_range 0 200) (float_range 1e-6 1e6))

let test_hist_merge_assoc =
  qtest ~count:100 "histogram merge is associative and commutative"
    QCheck2.Gen.(triple gen_samples gen_samples gen_samples)
    QCheck2.Print.(triple (list float) (list float) (list float))
    (fun (xs, ys, zs) ->
      let a = snap_of xs and b = snap_of ys and c = snap_of zs in
      let m = Metrics.hist_merge in
      same_hist (m (m a b) c) (m a (m b c))
      && same_hist (m a b) (m b a)
      && same_hist (m a Metrics.hist_empty) a
      && same_hist (m Metrics.hist_empty a) a)

let test_hist_shards_order_invariant =
  qtest ~count:30 "sharded histogram equals sequential reference"
    QCheck2.Gen.(pair (int_range 1 6) gen_samples)
    QCheck2.Print.(pair int (list float))
    (fun (domains, samples) ->
      with_obs @@ fun () ->
      let h = Metrics.histogram "obs.test.hist" in
      let arr = Array.of_list samples in
      let slices = Pool.chunks ~total:(Array.length arr) ~domains in
      (if Array.length slices > 0 then
         ignore
           (Pool.run ~domains:(Array.length slices) (fun i ->
                let start, len = slices.(i) in
                for j = start to start + len - 1 do
                  Metrics.observe h arr.(j)
                done)));
      same_hist (Metrics.hist_value h) (snap_of samples))

let test_hist_quantile () =
  with_obs @@ fun () ->
  let h = Metrics.histogram "obs.test.quantile" in
  List.iter (Metrics.observe h) [ 1.; 2.; 4.; 1000. ];
  let s = Metrics.hist_value h in
  (* quantiles are bucket upper bounds: monotone and bracketing the data *)
  let q50 = Metrics.hist_quantile s 0.5 and q99 = Metrics.hist_quantile s 0.99 in
  Alcotest.(check bool) "p50 <= p99" true (q50 <= q99);
  Alcotest.(check bool) "p50 bounds the median sample" true (q50 >= 2.);
  Alcotest.(check bool) "p99 bounds the top sample" true (q99 >= 1000.);
  Alcotest.(check (float 0.)) "empty histogram quantile" 0.
    (Metrics.hist_quantile Metrics.hist_empty 0.5)

(* ---- trace: span nesting ----------------------------------------------- *)

(* Random span tree, executed under a deterministic strictly-increasing
   clock; every recorded span must sit properly inside its parent. *)
type span_tree = Node of span_tree list

let gen_tree =
  QCheck2.Gen.(
    sized_size (int_range 1 40) @@ fix (fun self n ->
        if n <= 1 then return (Node [])
        else
          let* k = int_range 0 3 in
          let* children = list_size (return k) (self (n / 4)) in
          return (Node children)))

let rec count_nodes (Node children) =
  1 + List.fold_left (fun acc t -> acc + count_nodes t) 0 children

let rec exec_tree (Node children) =
  Trace.with_span "node" (fun () -> List.iter exec_tree children)

let laminar (a : Trace.event) (b : Trace.event) =
  let s1 = a.Trace.ts and e1 = a.Trace.ts +. a.Trace.dur in
  let s2 = b.Trace.ts and e2 = b.Trace.ts +. b.Trace.dur in
  let nested = s2 >= s1 && e2 <= e1 in
  let contains = s1 >= s2 && e1 <= e2 in
  let disjoint = e1 <= s2 || e2 <= s1 in
  nested || contains || disjoint

let properly_nested evs =
  List.for_all
    (fun (e : Trace.event) ->
      e.Trace.depth = 0
      || List.exists
           (fun (p : Trace.event) ->
             p.Trace.depth = e.Trace.depth - 1
             && p.Trace.ts <= e.Trace.ts
             && e.Trace.ts +. e.Trace.dur <= p.Trace.ts +. p.Trace.dur)
           evs)
    evs

let test_span_nesting =
  qtest ~count:100 "spans nest properly under a deterministic clock" gen_tree
    (fun t -> string_of_int (count_nodes t))
    (fun tree ->
      with_obs @@ fun () ->
      let tick = ref 0. in
      Trace.set_clock (fun () -> tick := !tick +. 1.; !tick);
      Trace.reset ();
      exec_tree tree;
      let evs = Trace.events () in
      List.length evs = count_nodes tree
      && List.for_all (fun a -> List.for_all (laminar a) evs) evs
      && properly_nested evs)

let test_span_records_on_raise () =
  with_obs @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite the raise" 1 (Trace.event_count ());
  match Trace.events () with
  | [ e ] -> Alcotest.(check string) "name" "boom" e.Trace.name
  | _ -> Alcotest.fail "expected exactly one event"

(* ---- trace: JSONL round-trip ------------------------------------------- *)

let field name j =
  match Json.member name j with
  | Ok v -> v
  | Error e -> Alcotest.failf "missing %s: %s" name e

let to_str j =
  match Json.to_string_value j with Ok s -> s | Error e -> Alcotest.fail e

let to_num j =
  match Json.to_float j with Ok f -> f | Error e -> Alcotest.fail e

let event_of_jsonl line =
  match Json.of_string line with
  | Error e -> Alcotest.failf "unparsable JSONL line %S: %s" line e
  | Ok j ->
      {
        Trace.name = to_str (field "name" j);
        ts = to_num (field "ts" j);
        dur = to_num (field "dur" j);
        kind =
          (match to_str (field "type" j) with
          | "span" -> `Span
          | "instant" -> `Instant
          | k -> Alcotest.failf "unknown event type %S" k);
        tid = int_of_float (to_num (field "tid" j));
        depth = int_of_float (to_num (field "depth" j));
        args =
          (match Json.member "args" j with
          | Ok (Json.Assoc kvs) -> List.map (fun (k, v) -> (k, to_str v)) kvs
          | _ -> []);
      }

let test_jsonl_round_trip () =
  with_obs @@ fun () ->
  let tick = ref 0. in
  Trace.set_clock (fun () -> tick := !tick +. 0.125; !tick);
  Trace.reset ();
  Trace.with_span "outer" ~args:[ ("k", "v\"quoted\""); ("n", "2") ]
    (fun () ->
      Trace.instant "mark" ~args:[ ("tab", "a\tb") ];
      Trace.with_span "inner" (fun () -> ()));
  let original = Trace.events () in
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl ())
    |> List.filter (fun l -> l <> "")
  in
  let parsed = List.map event_of_jsonl lines in
  Alcotest.(check int) "event count survives" (List.length original)
    (List.length parsed);
  List.iter2
    (fun (a : Trace.event) (b : Trace.event) ->
      Alcotest.(check string) "name" a.Trace.name b.Trace.name;
      Alcotest.(check (float 0.)) "ts exact" a.Trace.ts b.Trace.ts;
      Alcotest.(check (float 0.)) "dur exact" a.Trace.dur b.Trace.dur;
      Alcotest.(check int) "tid" a.Trace.tid b.Trace.tid;
      Alcotest.(check int) "depth" a.Trace.depth b.Trace.depth;
      Alcotest.(check bool) "kind" true (a.Trace.kind = b.Trace.kind);
      Alcotest.(check (list (pair string string))) "args" a.Trace.args b.Trace.args)
    original parsed

let test_jsonl_random_round_trip =
  qtest ~count:50 "JSONL export round-trips random span trees" gen_tree
    (fun t -> string_of_int (count_nodes t))
    (fun tree ->
      with_obs @@ fun () ->
      let tick = ref 0. in
      (* awkward increments so ts/dur exercise full float precision *)
      Trace.set_clock (fun () -> tick := !tick +. 0.1; !tick);
      Trace.reset ();
      exec_tree tree;
      let original = Trace.events () in
      let parsed =
        String.split_on_char '\n' (Trace.to_jsonl ())
        |> List.filter (fun l -> l <> "")
        |> List.map event_of_jsonl
      in
      original = parsed)

(* ---- end to end: Chrome trace of a real solver run --------------------- *)

let genome n =
  Wfc_workflows.Cost_model.apply
    (Wfc_workflows.Cost_model.Proportional 0.1)
    (Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Genome ~n ~seed:7)

let fm = Wfc_platform.Failure_model.make ~lambda:1e-3 ()

let test_chrome_export_valid () =
  with_obs @@ fun () ->
  let g = genome 12 in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let d = Wfc_resilience.Solver_driver.solve fm g ~order in
  ignore
    (Wfc_simulator.Monte_carlo.estimate ~runs:100 ~seed:3 fm g
       d.Wfc_resilience.Solver_driver.schedule);
  (* the exported JSON must parse and carry well-formed events *)
  let json =
    match Json.of_string (Trace.to_chrome ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "Chrome export is not valid JSON: %s" e
  in
  let evs =
    match Json.to_list (field "traceEvents" json) with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "has events" true (List.length evs > 0);
  let last_ts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let ph = to_str (field "ph" e) in
      Alcotest.(check bool) "ph is X or i" true (ph = "X" || ph = "i");
      let tid = int_of_float (to_num (field "tid" e)) in
      let ts = to_num (field "ts" e) in
      Alcotest.(check bool) "ts non-negative" true (ts >= 0.);
      (match Hashtbl.find_opt last_ts tid with
      | Some prev ->
          Alcotest.(check bool) "ts monotone within tid" true (ts >= prev)
      | None -> ());
      Hashtbl.replace last_ts tid ts;
      if ph = "X" then
        Alcotest.(check bool) "dur non-negative" true
          (to_num (field "dur" e) >= 0.))
    evs;
  (* and the recorded spans must form a laminar family per domain *)
  let spans =
    List.filter (fun (e : Trace.event) -> e.Trace.kind = `Span) (Trace.events ())
  in
  Alcotest.(check bool) "driver span present" true
    (List.exists (fun (e : Trace.event) -> e.Trace.name = "driver.solve") spans);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a.Trace.tid = b.Trace.tid && not (laminar a b) then
            Alcotest.failf "spans %s and %s overlap without nesting"
              a.Trace.name b.Trace.name)
        spans)
    spans

let counter_at snapshot name =
  match List.assoc_opt name snapshot.Metrics.counters with
  | Some v -> v
  | None -> 0

let test_solver_counters_nonzero () =
  with_obs @@ fun () ->
  let g = genome 12 in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  let sol, status =
    Exact_solver.optimal_checkpoints_within ~max_nodes:100_000 fm g ~order
  in
  Alcotest.(check bool) "solved" true (status = `Optimal);
  let s = Metrics.snapshot () in
  Alcotest.(check int) "bnb.nodes matches the solver's own count"
    sol.Exact_solver.nodes (counter_at s "bnb.nodes");
  Alcotest.(check bool) "bnb nodes recorded" true (counter_at s "bnb.nodes" > 0);
  Alcotest.(check bool) "kernel rows recorded" true
    (counter_at s "flat.rows_rebuilt" > 0);
  Alcotest.(check bool) "kernel queries recorded" true
    (counter_at s "flat.queries" > 0)

(* ---- end to end: simulator counts are engine-independent --------------- *)

(* The counters are a property of the schedule and the seed, not of the
   search that chose the schedule: the flat search picks the schedule the
   oracle-scored search did before it was retired, and 400 runs on it
   inject exactly the faults measured then (the non-zero sim.* counters). *)
let test_sim_counts_engine_independent () =
  with_obs @@ fun () ->
  Metrics.reset ();
  let g = genome 14 in
  let o =
    Heuristics.run fm g ~lin:Wfc_dag.Linearize.Depth_first
      ~ckpt:Heuristics.Ckpt_weight
  in
  ignore
    (Wfc_simulator.Monte_carlo.estimate ~runs:400 ~seed:5 fm g
       o.Heuristics.schedule);
  let sim =
    List.filter
      (fun (name, v) -> String.starts_with ~prefix:"sim." name && v <> 0)
      (Metrics.snapshot ()).Metrics.counters
  in
  Alcotest.(check (list (pair string int)))
    "replica/failure/recovery counts identical across engines"
    [ ("sim.failures_injected", 728836); ("sim.recoveries", 738617);
      ("sim.replicas", 400) ]
    sim

(* ---- the oracle stays off the flat hot path ---------------------------- *)

(* Every search reports the kernel's own makespan, so no request, sweep
   (replicated or not) or degraded solve may reach the Evaluator; one
   direct oracle call moving the counter by exactly one shows the zero
   means something. *)
let test_oracle_off_flat_paths () =
  with_obs @@ fun () ->
  let module Pr = Wfc_serve.Protocol in
  let module Server = Wfc_serve.Server in
  let module Corpus = Wfc_corpus.Corpus in
  let module Driver = Wfc_resilience.Solver_driver in
  let oracle_calls f =
    Metrics.reset ();
    f ();
    counter_at (Metrics.snapshot ()) "evaluator.evaluations"
  in
  (* no deadline, 200 nodes and 1000 nodes: the heuristic, local-search
     and exact tiers *)
  let serve () =
    let cold =
      Server.create ~config:{ Server.default_config with cache_size = 0 } ()
    in
    let warm = Server.create () in
    List.iter
      (fun deadline ->
        let params = { Pr.default_solve with Pr.deadline } in
        List.iter
          (fun req ->
            List.iter
              (fun server ->
                match Server.handle server req with
                | Pr.Error { message; _ } -> Alcotest.fail message
                | _ -> ())
              [ cold; warm; warm ])
          [ Pr.Solve params; Pr.Simulate { params; runs = 20; mcseed = 1 } ])
      [ None; Some 0.01; Some 0.05 ]
  in
  (* replicated cells are scored by Replication.evaluate, not the oracle *)
  let sweep replication () =
    let cost = Wfc_workflows.Cost_model.Proportional 0.1 in
    match Corpus.load_dir ~cost "corpus" with
    | Error e -> Alcotest.fail e
    | Ok (instances, _) ->
        let report =
          Corpus.sweep
            ~config:
              { Corpus.default_config with replication; exact_budget = 20_000 }
            instances
        in
        Alcotest.(check bool) "exact column present" true
          (List.exists (fun r -> r.Corpus.exact <> None) report.Corpus.rows)
  in
  let exhausted () =
    let g = genome 20 in
    let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
    let config = { Driver.default_config with Driver.max_nodes = 10 } in
    let r = Driver.solve ~config fm g ~order in
    Alcotest.(check bool) "budget exhausted" true
      (r.Driver.tier <> Driver.Exact)
  in
  List.iter
    (fun (name, run) ->
      Alcotest.(check int) (name ^ ": no oracle call on flat") 0
        (oracle_calls run))
    [
      ("server", serve);
      ("corpus sweep", sweep Wfc_core.Replication.No_replication);
      ("replicated corpus sweep", sweep (Wfc_core.Replication.Budget 0.2));
      ("exhausted driver", exhausted);
    ];
  let g = genome 12 in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Depth_first g in
  Alcotest.(check int) "one oracle call counts once" 1
    (oracle_calls (fun () ->
         ignore (Evaluator.evaluate fm g (Schedule.no_checkpoints g ~order))))

(* ---- near-zero disabled cost ------------------------------------------- *)

let test_disabled_records_nothing () =
  Metrics.set_enabled false;
  Trace.set_enabled false;
  Metrics.reset ();
  Trace.reset ();
  let c = Metrics.counter "obs.test.disabled" in
  Metrics.incr c;
  Metrics.add c 41;
  Trace.with_span "ignored" (fun () -> Trace.instant "also ignored");
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "no events" 0 (Trace.event_count ())

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          test_counter_concurrent;
          test_hist_merge_assoc;
          test_hist_shards_order_invariant;
          Alcotest.test_case "histogram quantiles" `Quick test_hist_quantile;
          Alcotest.test_case "disabled layer records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "trace",
        [
          test_span_nesting;
          Alcotest.test_case "span recorded on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "JSONL round-trip (crafted)" `Quick
            test_jsonl_round_trip;
          test_jsonl_random_round_trip;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "Chrome export parses and nests" `Quick
            test_chrome_export_valid;
          Alcotest.test_case "solver counters nonzero" `Quick
            test_solver_counters_nonzero;
          Alcotest.test_case "sim counts engine-independent" `Quick
            test_sim_counts_engine_independent;
          Alcotest.test_case "oracle off the flat paths" `Quick
            test_oracle_off_flat_paths;
        ] );
    ]
