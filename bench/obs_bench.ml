(* Observability overhead guard. Two questions, one run:

   1. With metrics and tracing DISABLED (the default), is the instrumented
      engine still as fast as the pinned BENCH_engine.json baselines? The
      instrumentation must cost one atomic load per flush point, so the
      engine-side timings have to land within noise of the file.
   2. With everything ENABLED, how much does recording actually cost?

   Run with: FIG=obs dune exec bench/main.exe *)

open Wfc_core
module Json = Wfc_io.Json
module Metrics = Wfc_obs.Metrics
module Trace = Wfc_obs.Trace
module P = Wfc_workflows.Pegasus

(* BENCH_engine.json pins medians measured in a separate process; run-to-run
   scheduler noise on shared machines reaches tens of percent, while the
   min-of-N timings below vary by a few. 25% headroom separates
   "instrumentation made the engine slower" from that noise; the on/off
   column, measured back to back in this process, is the precise signal. *)
let tolerance = 0.25

(* the same instances and model as the Engine_bench rows they compare to *)
let model = Engine_bench.model
let instance = Engine_bench.instance

(* The four engine-side workloads of Engine_bench, reduced to thunks whose
   state is identical on every execution so min-of-N compares like with
   like. Names match BENCH_engine.json rows. *)
let workloads () =
  let g200, order200 = instance P.Ligo 200 in
  let g20, order20 = instance P.Genome 20 in
  let n = Array.length order200 in
  let engine = Flat_engine.create model g200 ~order:order200 in
  ignore (Flat_engine.makespan engine);
  let flips = 2 * n * 5 in
  let single_flip () =
    (* an even number of passes over every position leaves the flag vector
       exactly as it started: every execution times the same flip sequence *)
    let i = ref 0 in
    for _ = 1 to flips do
      ignore (Flat_engine.flip engine (!i mod n));
      incr i
    done
  in
  let sweep () =
    Heuristics.run ~search:Heuristics.Exhaustive model g200
      ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight
  in
  let flags =
    Heuristics.checkpoint_flags Heuristics.Ckpt_weight g200 ~order:order200
      ~n_ckpt:50
  in
  let seed_sched = Schedule.make g200 ~order:order200 ~checkpointed:flags in
  let local_search () =
    Local_search.improve model g200 seed_sched
  in
  let exact = Engine_bench.exact_audit_flat g20 ~order:order20 in
  [
    ( "single-flip/Ligo/n=200",
      fun () -> Timing.best single_flip /. float_of_int flips );
    ("ckptw-exhaustive/Ligo/n=200", fun () -> Timing.best sweep);
    ("local-search/Ligo/n=200", fun () -> Timing.best local_search);
    ("exact-bnb/Genome/n=20", fun () -> Timing.best exact);
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* name -> flat_seconds from BENCH_engine.json *)
let baseline () =
  let ( let* ) = Json.( let* ) in
  let decode json =
    let* results = Json.member "results" json in
    let* rows = Json.to_list results in
    List.fold_left
      (fun acc row ->
        let* acc = acc in
        let* name = Json.member "name" row in
        let* name = Json.to_string_value name in
        let* s = Json.member "flat_seconds" row in
        let* s = Json.to_float s in
        Ok ((name, s) :: acc))
      (Ok []) rows
  in
  match Json.of_string (read_file "BENCH_engine.json") with
  | Ok json -> (
      match decode json with
      | Ok rows -> rows
      | Error e -> failwith ("BENCH_engine.json: " ^ e))
  | Error e -> failwith ("BENCH_engine.json: " ^ e)

let run () =
  print_endline "== observability overhead (FIG=obs) ==";
  let pinned = baseline () in
  let ws = workloads () in
  Metrics.set_enabled false;
  Trace.set_enabled false;
  (* one discarded pass so code, data and allocator are warm *)
  List.iter (fun (_, f) -> ignore (f ())) ws;
  let disabled = List.map (fun (name, f) -> (name, f ())) ws in
  Metrics.set_enabled true;
  Trace.set_enabled true;
  let enabled = List.map (fun (name, f) -> (name, f ())) ws in
  Metrics.set_enabled false;
  Trace.set_enabled false;
  Trace.reset ();
  Metrics.reset ();
  let table =
    Wfc_reporting.Table.create
      ~columns:
        [ "benchmark"; "pinned"; "obs off"; "off/pinned"; "obs on"; "on/off" ]
  in
  let worst = ref 0. in
  List.iter2
    (fun (name, off_s) (_, on_s) ->
      let base =
        match List.assoc_opt name pinned with
        | Some s -> s
        | None -> failwith ("no pinned baseline for " ^ name)
      in
      worst := Float.max !worst ((off_s /. base) -. 1.);
      Wfc_reporting.Table.add_row table
        [
          name;
          Printf.sprintf "%.3f ms" (base *. 1e3);
          Printf.sprintf "%.3f ms" (off_s *. 1e3);
          Printf.sprintf "%.3f" (off_s /. base);
          Printf.sprintf "%.3f ms" (on_s *. 1e3);
          Printf.sprintf "%.3f" (on_s /. off_s);
        ])
    disabled enabled;
  Wfc_reporting.Table.print table;
  if !worst > tolerance then begin
    Printf.printf
      "FAIL: disabled-path overhead %.1f%% exceeds the %.0f%% guard — \
       instrumentation is costing the engine throughput\n"
      (!worst *. 100.) (tolerance *. 100.);
    exit 1
  end
  else
    Printf.printf
      "OK: disabled-path timings within %.0f%% of BENCH_engine.json (worst \
       %+.1f%%)\n"
      (tolerance *. 100.) (!worst *. 100.)
