(* Workflow ingestion front door: format sniffing, round-trip identity
   through both JSON formats, differential DAX vs WfCommons loading, and
   the never-raise contract on hostile bytes. *)

open Wfc_io
module Dag = Wfc_dag.Dag
module Task = Wfc_dag.Task

let dag_equal a b =
  Dag.n_tasks a = Dag.n_tasks b
  && Dag.edges a = Dag.edges b
  && Array.for_all2 Task.equal (Dag.tasks a) (Dag.tasks b)

let load_ok what = function
  | Ok g -> g
  | Error e -> Alcotest.failf "%s failed: %s" what e

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error (_ : string) -> ()

(* ---- sniffing ---- *)

let test_sniff () =
  let check msg expected contents =
    Alcotest.(check (option string))
      msg expected
      (Option.map Workflow_io.format_name (Workflow_io.sniff contents))
  in
  check "dax" (Some "dax") "<adag name=\"x\"/>";
  check "dax bom+ws" (Some "dax") "\xef\xbb\xbf  \n<adag/>";
  check "wfcommons" (Some "wfcommons") {|{"workflow": {"tasks": []}}|};
  check "native" (Some "json") {|{"tasks": [], "edges": []}|};
  check "not json" None "garbage";
  check "empty" None "";
  check "ws only" None " \t\n"

let test_load_with_format () =
  let g = Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Montage ~n:20 ~seed:1 in
  let check_format ext save expected =
    let path = Filename.temp_file "wfc" ext in
    save path g;
    (match Workflow_io.load_with_format path with
    | Error e -> Alcotest.failf "load %s: %s" path e
    | Ok (fmt, g') ->
        Alcotest.(check string) "format" expected (Workflow_io.format_name fmt);
        Alcotest.(check int) "tasks" (Dag.n_tasks g) (Dag.n_tasks g'));
    Sys.remove path
  in
  check_format ".dax" (fun p g -> Dax.save p g) "dax";
  check_format ".json" (fun p g -> Wfcommons.save p g) "wfcommons";
  check_format ".json" (fun p g -> Workflow_format.save_dag p g) "json"

let test_extensions () =
  Alcotest.(check bool) "dax" true (Workflow_io.is_workflow_file "a/b.dax");
  Alcotest.(check bool) "xml" true (Workflow_io.is_workflow_file "b.xml");
  Alcotest.(check bool) "json" true (Workflow_io.is_workflow_file "c.json");
  Alcotest.(check bool) "readme" false (Workflow_io.is_workflow_file "README.md")

(* ---- round-trip identity (satellite 1) ---- *)

let gen_dag = Wfc_test_util.gen_dag ~max_n:12 ()
let print_dag g = Format.asprintf "%a" Dag.pp_stats g

let native_roundtrip =
  Wfc_test_util.qtest ~count:300 "dag -> native JSON -> dag identity" gen_dag
    print_dag (fun g ->
      let j = Workflow_format.dag_to_json ~name:"rt" g in
      match Workflow_format.dag_of_json j with
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e
      | Ok g' -> dag_equal g g')

let wfcommons_roundtrip =
  Wfc_test_util.qtest ~count:300 "dag -> WfCommons JSON -> dag identity"
    gen_dag print_dag (fun g ->
      (* serialize to *text* and back: the float printer is part of the
         contract under test *)
      match Json.of_string (Json.to_string (Wfcommons.to_json g)) with
      | Error e -> QCheck2.Test.fail_reportf "reparse failed: %s" e
      | Ok j -> (
          match Wfcommons.of_json j with
          | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e
          | Ok g' -> dag_equal g g'))

let sniffed_roundtrip =
  Wfc_test_util.qtest ~count:100 "load_string sniffs both JSON formats"
    gen_dag print_dag (fun g ->
      let native = Json.to_string (Workflow_format.dag_to_json g) in
      let wfc = Json.to_string (Wfcommons.to_json g) in
      dag_equal g (load_ok "native" (Workflow_io.load_string native))
      && dag_equal g (load_ok "wfcommons" (Workflow_io.load_string wfc)))

(* ---- differential: DAX vs WfCommons (satellite 3) ---- *)

let test_differential_formats () =
  List.iter
    (fun fam ->
      (* raw generator output: no costs, like real DAX/WfCommons files *)
      let g = Wfc_workflows.Pegasus.generate fam ~n:30 ~seed:11 in
      let dax_path = Filename.temp_file "wfc" ".dax" in
      let wfc_path = Filename.temp_file "wfc" ".json" in
      Dax.save dax_path g;
      Wfcommons.save wfc_path g;
      let from_dax = load_ok "dax" (Workflow_io.load dax_path) in
      let from_wfc = load_ok "wfcommons" (Workflow_io.load wfc_path) in
      Sys.remove dax_path;
      Sys.remove wfc_path;
      Alcotest.(check bool) "bit-identical DAGs" true (dag_equal from_dax from_wfc);
      (* identical E(M) under every heuristic, from the search and from
         the oracle *)
      let cost = Wfc_workflows.Cost_model.Proportional 0.1 in
      let ga = Wfc_workflows.Cost_model.ensure cost from_dax in
      let gb = Wfc_workflows.Cost_model.ensure cost from_wfc in
      let model = Wfc_platform.Failure_model.make ~lambda:1e-3 () in
      List.iter
        (fun ckpt ->
          let run g =
            let o =
              Wfc_core.Heuristics.run ~search:(Wfc_core.Heuristics.Grid 6)
                model g ~lin:Wfc_dag.Linearize.Depth_first ~ckpt
            in
            ( o.Wfc_core.Heuristics.makespan,
              Wfc_core.Evaluator.expected_makespan model g
                o.Wfc_core.Heuristics.schedule )
          in
          let (ma, oa) = run ga and (mb, ob) = run gb in
          if ma <> mb || oa <> ob then
            Alcotest.failf "%s: %.17g <> %.17g (oracle %.17g <> %.17g)"
              (Wfc_core.Heuristics.ckpt_strategy_name ckpt)
              ma mb oa ob)
        Wfc_core.Heuristics.all_ckpt_strategies)
    Wfc_workflows.Pegasus.[ Montage; Genome ]

(* ---- robustness: loaders never raise (satellite 2) ---- *)

let fuzz_never_raises =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          string_size ~gen:char (int_range 0 300);
          string_size ~gen:printable (int_range 0 300);
          (* mutations of near-valid documents reach deeper decoder paths
             than uniform noise *)
          (let* base =
             oneofl
               [
                 {|{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1}]}}|};
                 {|{"tasks": [{"id": 0, "weight": 1}], "edges": []}|};
                 {|<adag><job id="a" runtime="1"/></adag>|};
               ]
           in
           let* cut = int_range 0 (String.length base) in
           let* extra = string_size ~gen:char (int_range 0 8) in
           return (String.sub base 0 cut ^ extra));
        ])
  in
  Wfc_test_util.qtest ~count:2000 "load_string never raises" gen
    (Printf.sprintf "%S") (fun contents ->
      match Workflow_io.load_string ~path:"fuzz" contents with
      | Ok _ | Error _ -> true)

let test_structured_errors () =
  let cases =
    [
      (* truncated documents *)
      ("truncated dax", "<adag><job id=\"a\" runtime=\"1\"");
      ("truncated json", {|{"workflow": {"tasks": [{"name": "a"|});
      (* cyclic edges *)
      ( "wfcommons cycle",
        {|{"workflow": {"tasks": [
            {"name": "a", "runtimeInSeconds": 1, "children": ["b"]},
            {"name": "b", "runtimeInSeconds": 1, "children": ["a"]}]}}|} );
      ("native cycle",
       {|{"tasks": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}],
          "edges": [[0, 1], [1, 0]]}|});
      (* duplicate identifiers *)
      ( "wfcommons duplicate id",
        {|{"workflow": {"tasks": [
            {"name": "a", "runtimeInSeconds": 1},
            {"name": "a", "runtimeInSeconds": 2}]}}|} );
      (* NaN / negative weights *)
      ( "wfcommons nan runtime",
        {|{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": nan}]}}|} );
      ( "wfcommons negative runtime",
        {|{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": -3}]}}|} );
      ("native negative weight", {|{"tasks": [{"id": 0, "weight": -1}], "edges": []}|});
      ("dax negative runtime", {|<adag><job id="a" runtime="-1"/></adag>|});
      (* unresolvable references *)
      ( "wfcommons unknown parent",
        {|{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1,
            "parents": ["ghost"]}]}}|} );
      (* wrong shapes *)
      ("wfcommons tasks not a list", {|{"workflow": {"tasks": 3}}|});
      ( "wfcommons parents not a list",
        {|{"workflow": {"tasks": [{"name": "a", "runtimeInSeconds": 1,
            "parents": "b"}]}}|} );
      ("empty", "");
    ]
  in
  List.iter
    (fun (what, contents) ->
      match Workflow_io.load_string ~path:"input.file" contents with
      | Ok _ -> Alcotest.failf "%s: expected an error" what
      | Error msg ->
          (* every message names the input *)
          if not (String.length msg >= 10 && String.sub msg 0 10 = "input.file")
          then Alcotest.failf "%s: message %S does not name the input" what msg)
    cases

let test_missing_file () =
  expect_error "missing file" (Workflow_io.load "/no/such/file.json");
  expect_error "missing dax" (Dax.load "/no/such/file.dax");
  expect_error "missing wfcommons" (Wfcommons.load "/no/such/file.json");
  expect_error "missing native" (Workflow_format.load_dag "/no/such/file.json")

let test_deep_nesting () =
  (* recursive-descent parsers must cap depth, not blow the stack *)
  let deep_json = String.concat "" (List.init 100_000 (fun _ -> "[")) in
  expect_error "deep json" (Json.of_string deep_json);
  let deep_xml = String.concat "" (List.init 100_000 (fun _ -> "<a>")) in
  expect_error "deep xml" (Xml.of_string deep_xml);
  expect_error "deep via front door" (Workflow_io.load_string deep_xml)

let test_char_references () =
  (* out-of-range character references must not raise (Char.chr) *)
  expect_error "negative" (Xml.of_string "<a>&#-5;</a>");
  expect_error "huge" (Xml.of_string "<a>&#99999999999;</a>");
  (match Xml.of_string "<a>&#65;&#x42;&#955;</a>" with
  | Error e -> Alcotest.failf "valid refs rejected: %s" e
  | Ok x ->
      (* ASCII decodes; astral/non-ASCII degrade to placeholders *)
      Alcotest.(check string) "text" "AB?" (Xml.text_content x));
  expect_error "front door" (Workflow_io.load_string "<adag>&#-5;</adag>")

let () =
  Alcotest.run "workflow_io"
    [
      ( "sniff",
        [
          Alcotest.test_case "formats" `Quick test_sniff;
          Alcotest.test_case "load_with_format" `Quick test_load_with_format;
          Alcotest.test_case "extensions" `Quick test_extensions;
        ] );
      ("roundtrip", [ native_roundtrip; wfcommons_roundtrip; sniffed_roundtrip ]);
      ( "differential",
        [ Alcotest.test_case "dax vs wfcommons" `Quick test_differential_formats ] );
      ( "robustness",
        [
          fuzz_never_raises;
          Alcotest.test_case "structured errors" `Quick test_structured_errors;
          Alcotest.test_case "missing files" `Quick test_missing_file;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "character references" `Quick test_char_references;
        ] );
    ]
