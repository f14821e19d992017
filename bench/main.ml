(* Benchmark harness: regenerates every figure of the paper's evaluation
   section (Figures 2-7) and runs the Bechamel micro-benchmarks.

   Usage: dune exec bench/main.exe               run everything (fast sweep)
          FIG=3 dune exec bench/main.exe         only Figure 3
          FIG=ablation dune exec bench/main.exe  extension/ablation studies
          FIG=micro dune exec bench/main.exe     only the micro-benchmarks
          FIG=stress dune exec bench/main.exe    resilience stress micro-campaign
          FIG=engine dune exec bench/main.exe    flat kernel timing, oracle baselines
          FIG=scale dune exec bench/main.exe     flat kernel at scale, exact B&B n~30
          FIG=obs dune exec bench/main.exe       observability overhead guard
          FIG=adaptive dune exec bench/main.exe  adaptive vs static, misspecified lambda
          FIG=replication dune exec bench/main.exe  checkpoint-vs-replica CVaR trade-off
          FIG=corpus dune exec bench/main.exe    golden mini-corpus sweep, oracle/domain invariance
          FIG=chaos dune exec bench/main.exe     chaos soak: fault injection, watchdog, crash-only guard
          FULL=1 ...                             full 50..700 task range
          SEEDS=3 ...                            average over 3 workflow seeds
          CSV=out ...                            also dump CSV series
          SEED=7 ...                             workflow generation seed *)

let getenv name = Sys.getenv_opt name

let () =
  let cfg =
    {
      Figures.default_config with
      Figures.full = getenv "FULL" = Some "1";
      csv_dir = getenv "CSV";
      seed =
        (match getenv "SEED" with
        | Some s -> ( try int_of_string s with Failure _ -> 42)
        | None -> 42);
      seeds =
        (match getenv "SEEDS" with
        | Some s -> Int.max 1 (try int_of_string s with Failure _ -> 1)
        | None -> 1);
    }
  in
  let fig = getenv "FIG" in
  let t0 = Unix.gettimeofday () in
  (match fig with
  | Some "micro" -> Micro.run ()
  | Some "ablation" -> Ablation.run cfg
  | Some "stress" -> Stress.run ()
  | Some "engine" -> Engine_bench.run ()
  | Some "scale" -> Scale_bench.run ()
  | Some "obs" -> Obs_bench.run ()
  | Some "adaptive" -> Adaptive_bench.run ()
  | Some "replication" -> Replication_bench.run ()
  | Some "corpus" -> Corpus_bench.run ()
  | Some "chaos" -> Chaos_bench.run ()
  | Some id -> (
      match int_of_string_opt id with
      | Some id -> Figures.run cfg (Some id)
      | None ->
          Printf.eprintf
            "FIG must be 2..7, 'ablation', 'micro', 'stress', 'engine', \
             'scale', 'obs', 'adaptive', 'replication', 'corpus' \
             or 'chaos'\n")
  | None ->
      Figures.run cfg None;
      Ablation.run cfg;
      print_newline ();
      print_endline "== micro-benchmarks (Bechamel) ==";
      Micro.run ());
  Printf.printf "\ntotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
