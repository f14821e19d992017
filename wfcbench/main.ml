(* wfcbench: the repository's end-to-end benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1

   Trace 0 prints the end-to-end metrics of workload W, measured on real
   processes; trace 1 prints the per-layer metrics of the traced in-process
   replay. The last line of stdout is one JSON object. *)

let workloads = [ "serve-warm"; "simulate-cold"; "corpus-sweep" ]

let end_to_end name (env : Workloads.env) =
  let r =
    match name with
    | "serve-warm" -> Workloads.serve_warm env
    | "simulate-cold" -> Workloads.simulate_cold env
    | _ -> Workloads.corpus_sweep env
  in
  let phase = r.Workloads.phase in
  let outcomes = phase.Stats.outcomes in
  let lat = Stats.sorted_latencies outcomes in
  let ms s = 1000. *. s in
  let tail = Stats.median_tail phase in
  let attempted = Stats.attempted outcomes in
  let failed = Stats.failed outcomes + List.length r.Workloads.check_failures in
  List.iter
    (function Stats.Failed m -> Printf.printf "failed: %s\n" m | Stats.Done _ -> ())
    outcomes;
  List.iter (Printf.printf "check failed: %s\n") r.Workloads.check_failures;
  (let n = Array.length lat in
   if n > 0 then
     Printf.printf "%s seed %d: %d requests, %.2f/s over the whole phase; ms min %.2f p50 %.2f max %.2f\n"
       name env.Workloads.seed attempted (Stats.throughput phase) (ms lat.(0))
       (ms (Stats.median_sorted lat)) (ms lat.(n - 1)));
  Printf.printf "requests/s per stretch: %s\n"
    (String.concat " "
       (List.map
          (fun (o, dt) -> Printf.sprintf "%.2f" (float_of_int (Stats.completed o) /. dt))
          (Stats.stretches phase)));
  (match tail with
  | Some (t, 1) ->
      Printf.printf "latency_tail_ms is p%.2f of the whole phase (n=%d, 10 beyond)\n"
        t.Stats.percentile t.Stats.n
  | Some (t, k) ->
      Printf.printf
        "latency_tail_ms is the median over %d stretches of each one's p%.2f (n>=%d, 10 beyond)\n"
        k t.Stats.percentile t.Stats.n
  | None -> Printf.printf "only %d requests, no tail percentile\n" attempted);
  Output.print_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("latency_p50_ms", ms (Stats.median_sorted lat), "ms");
      ("latency_tail_ms", ms (match tail with Some (t, _) -> t.Stats.value | None -> infinity), "ms");
      ("throughput_rps", Stats.median_throughput phase, "1/s");
      ("setup_s", r.Workloads.setup_s, "s");
      ("peak_rss_mb", r.Workloads.peak_rss_mb, "MB");
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let wfc = ref "_build/default/bin/wfc.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced per-layer run");
      ("--wfc", Arg.Set_string wfc, " path of the wfc executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "wfcbench: unknown workload %S (%s)\n" !workload (String.concat ", " workloads);
    exit 2
  end;
  if not (Sys.file_exists !wfc) then begin
    Printf.eprintf "wfcbench: no wfc executable at %s\n" !wfc;
    exit 2
  end;
  (* One CPU for the benchmark and everything it starts: the daemon's two
     domains then meet at each stop-the-world minor collection without
     waking a second, possibly descheduled, vCPU. *)
  (match Proc.pin_one_cpu () with
  | -1 -> prerr_endline "wfcbench: could not pin to one CPU; running unpinned"
  | cpu -> Printf.eprintf "wfcbench: pinned to CPU %d\n%!" cpu);
  let dir = Proc.scratch_dir () in
  at_exit (fun () -> Proc.cleanup dir);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let env = { Workloads.wfc = !wfc; dir; seed = !seed; seconds = !seconds } in
  try
    if !trace = 0 then end_to_end !workload env
    else Replay.traced !workload env
  with Workloads.Setup_failed msg ->
    Printf.eprintf "wfcbench: set-up failed: %s\n" msg;
    exit 1
