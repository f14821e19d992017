(* Corpus golden sweep: run the committed mini-corpus through the full
   `wfc corpus` machinery and write BENCH_corpus.json.

   This is a correctness guard, not a timing bench. The whole sweep is
   analytic, so its report must be a pure function of the corpus and the
   configuration; the guard re-runs it on four domains and FAILs unless
   that report is byte-identical to the flat single-domain baseline. It
   also re-runs it on the naive backend, which reports oracle makespans:
   every name, tier, winner and count must match exactly and every ratio
   to 1e-9 relative ({!Corpus.diff}).

   Run with: FIG=corpus dune exec bench/main.exe
   Knobs:    CORPUS_DIR     corpus directory (default test/corpus)
             CORPUS_BUDGET  exact-tier node budget (default 100000) *)

module Corpus = Wfc_corpus.Corpus
module Json = Wfc_io.Json

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string s with Failure _ -> default)
  | None -> default

let config ~budget backend domains =
  {
    Corpus.default_config with
    Corpus.search = Wfc_core.Heuristics.Grid 8;
    backend;
    exact_budget = budget;
    domains;
  }

let run () =
  print_endline "== corpus golden sweep (FIG=corpus) ==";
  let dir = Option.value (Sys.getenv_opt "CORPUS_DIR") ~default:"test/corpus" in
  let budget = getenv_int "CORPUS_BUDGET" 100_000 in
  match Corpus.load_dir ~cost:(Wfc_workflows.Cost_model.Proportional 0.1) dir with
  | Error msg ->
      Printf.printf "FAIL: cannot read %s: %s\n" dir msg;
      exit 1
  | Ok (instances, skipped) ->
      List.iter
        (fun (p, m) -> Printf.printf "FAIL: cannot load %s: %s\n" p m)
        skipped;
      if skipped <> [] then exit 1;
      if instances = [] then begin
        Printf.printf "FAIL: no workflow files in %s\n" dir;
        exit 1
      end;
      let sweep backend domains =
        Corpus.sweep ~config:(config ~budget backend domains) instances
      in
      let base = sweep Wfc_core.Eval_engine.Flat 1 in
      Corpus.print_report base;
      print_newline ();
      let bytes report = Json.to_string (Corpus.to_json report) in
      let four = sweep Wfc_core.Eval_engine.Flat 4 in
      let naive = sweep Wfc_core.Eval_engine.Naive 1 in
      let failures =
        (if bytes four = bytes base then []
         else [ "4 domains sweep is not byte-identical to the baseline" ])
        @
        match Corpus.diff base naive with
        | None -> []
        | Some msg -> [ "naive engine sweep diverges: " ^ msg ]
      in
      List.iter (Printf.printf "FAIL: %s\n") failures;
      if failures <> [] then exit 1;
      let oc = open_out "BENCH_corpus.json" in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Json.to_string (Corpus.to_json base));
          output_char oc '\n');
      Printf.printf
        "PASS: %d instances x %d scenarios byte-identical across domain \
         counts, naive engine within 1e-9 (discrete fields exact); wrote \
         BENCH_corpus.json\n"
        (List.length instances)
        (List.length base.Corpus.scenario_names)
