(* Corpus sweep rig: directory ingestion with per-file error collection,
   scenario semantics, and the determinism contract (engine- and
   domain-invariant reports) that makes the golden cram test meaningful. *)

module Corpus = Wfc_corpus.Corpus
module Dag = Wfc_dag.Dag
module Json = Wfc_io.Json

let corpus_dir = "corpus" (* committed mini-corpus, a declared test dep *)

let mini_corpus () =
  match Corpus.load_dir ~cost:(Wfc_workflows.Cost_model.Proportional 0.1) corpus_dir with
  | Error e -> Alcotest.failf "load_dir: %s" e
  | Ok (instances, skipped) ->
      Alcotest.(check (list (pair string string))) "no skips" [] skipped;
      instances

(* byte-level identity of a report, used across domain counts and runs *)
let fingerprint report = Json.to_string (Corpus.to_json report)

let quick_config =
  {
    Corpus.default_config with
    Corpus.scenarios = [ Corpus.Relative 0.5; Corpus.Law (Wfc_platform.Distribution.exponential ~rate:1e-2) ];
    search = Wfc_core.Heuristics.Grid 5;
    exact_budget = 20_000;
    exact_max_n = 12;
  }

let test_load_dir () =
  let instances = mini_corpus () in
  Alcotest.(check (list string))
    "sorted instances"
    [ "cybershake-12.json"; "diamond.dax"; "epigenomics-7.json"; "montage-20.dax" ]
    (List.map (fun i -> i.Corpus.name) instances);
  Alcotest.(check (list string))
    "formats" [ "json"; "dax"; "wfcommons"; "dax" ]
    (List.map
       (fun i -> Wfc_io.Workflow_io.format_name i.Corpus.format)
       instances);
  (* every instance is schedulable: costs were ensured *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (i.Corpus.name ^ " costed") true
        (Wfc_workflows.Cost_model.is_costed i.Corpus.dag))
    instances

let test_load_dir_errors () =
  let dir = Filename.temp_file "wfc_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "good.json" {|{"tasks": [{"id": 0, "weight": 2}], "edges": []}|};
  write "bad.json" "{ truncated";
  write "cyclic.dax"
    {|<adag><job id="a" runtime="1"/><job id="b" runtime="1"/>
      <child ref="a"><parent ref="b"/></child>
      <child ref="b"><parent ref="a"/></child></adag>|};
  write "notes.txt" "not a workflow, not scanned";
  (match Corpus.load_dir dir with
  | Error e -> Alcotest.failf "load_dir: %s" e
  | Ok (instances, skipped) ->
      Alcotest.(check (list string))
        "loaded" [ "good.json" ]
        (List.map (fun i -> i.Corpus.name) instances);
      Alcotest.(check (list string))
        "skipped files"
        [ Filename.concat dir "bad.json"; Filename.concat dir "cyclic.dax" ]
        (List.map fst skipped);
      List.iter
        (fun (path, msg) ->
          Alcotest.(check bool)
            (path ^ " names itself") true
            (String.length msg > String.length path
            && String.sub msg 0 (String.length path) = path))
        skipped);
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir;
  match Corpus.load_dir "/no/such/dir" with
  | Error (_ : string) -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing directory"

let test_scenarios () =
  let g = Dag.of_weights ~weights:[| 30.; 70. |] ~edges:[ (0, 1) ] () in
  Alcotest.(check string) "relative name" "mtbf=0.5W"
    (Corpus.scenario_name (Corpus.Relative 0.5));
  Wfc_test_util.check_close "relative mtbf" 50.
    (Corpus.scenario_mtbf (Corpus.Relative 0.5) g);
  let law = Wfc_platform.Distribution.weibull ~shape:0.7 ~scale:100. in
  Wfc_test_util.check_close "law mtbf"
    (Wfc_platform.Distribution.mean law)
    (Corpus.scenario_mtbf (Corpus.Law law) g);
  (* zero-weight instance: the relative scenario still yields a model *)
  let z = Dag.of_weights ~weights:[| 0. |] ~edges:[] () in
  Wfc_test_util.check_close "zero-weight fallback" 0.5
    (Corpus.scenario_mtbf (Corpus.Relative 0.5) z)

let test_sweep_shape () =
  let instances = mini_corpus () in
  let report = Corpus.sweep ~config:quick_config instances in
  Alcotest.(check int) "rows = instances x scenarios"
    (List.length instances * 2)
    (List.length report.Corpus.rows);
  Alcotest.(check (list string))
    "scenario names" [ "mtbf=0.5W"; "exp(0.01)" ] report.Corpus.scenario_names;
  List.iter
    (fun row ->
      Alcotest.(check int) "cells" 6 (List.length row.Corpus.cells);
      (* the winner really is the cell minimum *)
      List.iter
        (fun c ->
          if c.Corpus.ratio < row.Corpus.best_ratio then
            Alcotest.failf "%s: best %.17g beaten by %s %.17g" row.Corpus.workflow
              row.Corpus.best_ratio c.Corpus.heuristic c.Corpus.ratio)
        row.Corpus.cells;
      (* ratios are >= 1 up to rounding: failures only slow things down *)
      List.iter
        (fun c ->
          if c.Corpus.ratio < 0.999999 then
            Alcotest.failf "ratio %.17g < 1" c.Corpus.ratio)
        row.Corpus.cells;
      (* the exact column, when present, is never worse than the winner *)
      match row.Corpus.exact with
      | Some (_, r) when r > row.Corpus.best_ratio +. 1e-9 ->
          Alcotest.failf "%s: exact %.17g worse than best %.17g"
            row.Corpus.workflow r row.Corpus.best_ratio
      | _ -> ())
    report.Corpus.rows;
  (* tables render without raising and cover every scenario *)
  Alcotest.(check int) "tables" 2 (List.length (Corpus.tables report));
  (* the JSON report is valid JSON *)
  match Json.of_string (Json.to_string (Corpus.to_json report)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON invalid: %s" e

(* each backend reports its own makespans, which agree to the last ulps:
   names, tiers, winners and counts must match exactly, ratios to 1e-9 *)
let test_engine_invariance () =
  let instances = mini_corpus () in
  let with_backend backend =
    Corpus.sweep ~config:{ quick_config with Corpus.backend } instances
  in
  Alcotest.(check (option string)) "naive = flat" None
    (Corpus.diff
       (with_backend Wfc_core.Eval_engine.Flat)
       (with_backend Wfc_core.Eval_engine.Naive))

let test_domain_invariance () =
  let instances = mini_corpus () in
  let with_domains domains =
    fingerprint
      (Corpus.sweep ~config:{ quick_config with Corpus.domains } instances)
  in
  let base = with_domains 1 in
  Alcotest.(check string) "3 domains = 1 domain" base (with_domains 3);
  Alcotest.(check string) "8 domains = 1 domain" base (with_domains 8)

let test_rf_determinism () =
  (* RF streams are derived from the job index, so even the randomized
     linearization is reproducible run to run *)
  let instances = mini_corpus () in
  let config =
    {
      quick_config with
      Corpus.heuristics =
        [ (Wfc_dag.Linearize.Random_first, Wfc_core.Heuristics.Ckpt_weight) ];
      exact_budget = 0;
    }
  in
  let run () = fingerprint (Corpus.sweep ~config instances) in
  Alcotest.(check string) "reproducible" (run ()) (run ());
  let shifted =
    fingerprint (Corpus.sweep ~config:{ config with Corpus.seed = 43 } instances)
  in
  (* and the seed is actually consulted: RF with another seed may differ;
     we only pin that changing it is safe, not that it changes results *)
  ignore shifted

let () =
  Alcotest.run "corpus"
    [
      ( "ingestion",
        [
          Alcotest.test_case "load_dir" `Quick test_load_dir;
          Alcotest.test_case "load_dir errors" `Quick test_load_dir_errors;
        ] );
      ("scenarios", [ Alcotest.test_case "naming and mtbf" `Quick test_scenarios ]);
      ( "sweep",
        [
          Alcotest.test_case "shape and winners" `Quick test_sweep_shape;
          Alcotest.test_case "engine invariance" `Quick test_engine_invariance;
          Alcotest.test_case "domain invariance" `Quick test_domain_invariance;
          Alcotest.test_case "rf determinism" `Quick test_rf_determinism;
        ] );
    ]
