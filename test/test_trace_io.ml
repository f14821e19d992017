module D = Wfc_platform.Distribution
module FM = Wfc_platform.Failure_model
module Rng = Wfc_platform.Rng
module Sim = Wfc_simulator.Sim
module SF = Wfc_simulator.Sim_faults
module Faults = Wfc_test_util.Sim_faults_run
module ST = Wfc_simulator.Sim_trace
module T = Wfc_simulator.Trace_io

let same_run (a : Sim.run) (b : Sim.run) =
  (* exact float equality: replay must be bit-identical, not close *)
  a.Sim.makespan = b.Sim.makespan
  && a.Sim.failures = b.Sim.failures
  && a.Sim.wasted = b.Sim.wasted

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---- record/replay determinism (qcheck differentials) ---- *)

let gen_case = QCheck2.Gen.(pair (Wfc_test_util.gen_dag_and_schedule ~max_n:8 ()) nat)
let print_case ((g, s), seed) =
  Printf.sprintf "%s seed=%d" (Wfc_test_util.print_dag_schedule (g, s)) seed

let prop_record_replay_bit_identical =
  Wfc_test_util.qtest ~count:150 "record_run then replay = Sim.run, bit for bit"
    gen_case print_case
    (fun ((g, s), seed) ->
      List.for_all
        (fun model ->
          let reference = Sim.run ~rng:(Rng.create seed) model g s in
          let recorded, trace = T.record_run ~rng:(Rng.create seed) model g s in
          same_run reference recorded
          && same_run reference (T.replay trace g s))
        Wfc_test_util.models)

let prop_serialization_round_trip =
  Wfc_test_util.qtest ~count:100 "save/load round-trips bit for bit"
    gen_case print_case
    (fun ((g, s), seed) ->
      List.for_all
        (fun model ->
          let reference, trace = T.record_run ~rng:(Rng.create seed) model g s in
          match T.of_string (T.to_string trace) with
          | Error e -> QCheck2.Test.fail_reportf "loader rejected: %s" e
          | Ok trace' ->
              trace = trace' && same_run reference (T.replay trace' g s))
        Wfc_test_util.models)

let prop_renewal_record_replay =
  Wfc_test_util.qtest ~count:100 "renewal record then replay, bit for bit"
    gen_case print_case
    (fun ((g, s), seed) ->
      List.for_all
        (fun failures ->
          let downtime = D.constant 0.3 in
          let reference, trace =
            T.record_renewal ~rng:(Rng.create seed) ~failures ~downtime g s
          in
          let replayed = T.replay trace g s in
          let state = T.replay_source trace in
          let replayed' = Sim.run_with_source state.T.source g s in
          same_run reference replayed
          && same_run reference replayed'
          && not (state.T.exhausted ()))
        [
          D.exponential ~rate:0.05;
          D.weibull ~shape:0.7 ~scale:30.;
          D.hyperexponential ~p:0.1 ~rate1:1. ~rate2:0.01;
        ])

(* Satellite: the Sim_trace event log, converted, replays to the exact
   Sim.run summary on the same stream. *)
let prop_event_log_replay =
  Wfc_test_util.qtest ~count:150 "Sim_trace event log replays bit for bit"
    gen_case print_case
    (fun ((g, s), seed) ->
      List.for_all
        (fun model ->
          let reference = Sim.run ~rng:(Rng.create seed) model g s in
          let traced, events = ST.run ~rng:(Rng.create seed) model g s in
          let trace =
            T.of_events ~downtime:model.FM.downtime events
          in
          same_run reference traced && same_run reference (T.replay trace g s))
        Wfc_test_util.models)

let prop_sim_faults_source_replay =
  Wfc_test_util.qtest ~count:100 "Sim_faults failure process records and replays"
    gen_case print_case
    (fun ((g, s), seed) ->
      (* fault bernoullis off: the rng stream feeds only the failure
         source, so a replayed source reproduces the run exactly *)
      let params =
        {
          SF.failures = D.weibull ~shape:2. ~scale:25.;
          downtime = D.exponential ~rate:2.;
          p_ckpt_fail = 0.;
          p_rec_fail = 0.;
          max_failures = 0;
        }
      in
      let rng = Rng.create seed in
      let r = T.recorder () in
      let src = T.recording_source r (SF.source_of_params ~rng params) in
      let reference = Faults.run ~source:src ~rng params g s in
      let state = T.replay_source (T.recorded r) in
      let replayed = Faults.run ~source:state.T.source ~rng:(Rng.create seed) params g s in
      reference.Faults.makespan = replayed.Faults.makespan
      && reference.Faults.failures = replayed.Faults.failures
      && reference.Faults.wasted = replayed.Faults.wasted)

(* ---- crafted exact cases ---- *)

let single_task () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 5. |]
      ~checkpoint_cost:(fun _ _ -> 1.)
      ~recovery_cost:(fun _ _ -> 1.)
      ()
  in
  let s =
    Wfc_core.Schedule.make g ~order:[| 0 |] ~checkpointed:[| false |]
  in
  (g, s)

let test_closed_form () =
  let g, s = single_task () in
  let trace =
    T.Attempts [| T.Failed { after = 2.; downtime = 1. }; T.Survived 10. |]
  in
  let r = T.replay trace g s in
  Alcotest.(check (float 0.)) "makespan" 8. r.Sim.makespan;
  Alcotest.(check int) "failures" 1 r.Sim.failures;
  Alcotest.(check (float 0.)) "wasted" 3. r.Sim.wasted

let test_divergence () =
  let g, s = single_task () in
  (* the recorded attempt survived 1s, but the executing segment is 5s
     long: the replayed schedule fails where the recorded one survived *)
  let short = T.Attempts [| T.Survived 1. |] in
  (match T.replay short g s with
  | exception T.Divergence _ -> ()
  | _ -> Alcotest.fail "expected Divergence on recorded survival");
  (* recorded a failure at 10s, but the 5s segment completes first *)
  let late = T.Attempts [| T.Failed { after = 10.; downtime = 1. } |] in
  match T.replay late g s with
  | exception T.Divergence _ -> ()
  | _ -> Alcotest.fail "expected Divergence on recorded failure"

let test_exhaustion () =
  let g, s = single_task () in
  (* renewal horizon shorter than the work: past the last uptime the
     platform is failure-free and the run is flagged exhausted *)
  let trace = T.Renewal { uptimes = [| 3. |]; downtimes = [||] } in
  let state = T.replay_source trace in
  let r = Sim.run_with_source state.T.source g s in
  Alcotest.(check (float 0.)) "makespan" 5. r.Sim.makespan;
  Alcotest.(check int) "failures" 0 r.Sim.failures;
  Alcotest.(check bool) "exhausted" true (state.T.exhausted ());
  (* a comfortable horizon is not exhausted *)
  let wide = T.Renewal { uptimes = [| 30. |]; downtimes = [||] } in
  let state = T.replay_source wide in
  ignore (Sim.run_with_source state.T.source g s);
  Alcotest.(check bool) "not exhausted" false (state.T.exhausted ())

let test_draw_renewal () =
  let rng = Rng.create 42 in
  let t =
    T.draw_renewal ~rng ~failures:(D.exponential ~rate:0.1)
      ~downtime:(D.constant 1.) ~min_uptime:500.
  in
  (match t with
  | T.Renewal { uptimes; downtimes } ->
      Alcotest.(check int) "one more uptime than downtime"
        (Array.length downtimes + 1)
        (Array.length uptimes);
      let cum = Array.fold_left ( +. ) 0. uptimes in
      Alcotest.(check bool) "covers the horizon" true (cum >= 500.)
  | T.Attempts _ | T.Replicated _ -> Alcotest.fail "expected a renewal trace");
  expect_invalid (fun () ->
      ignore
        (T.draw_renewal ~rng ~failures:(D.exponential ~rate:0.1)
           ~downtime:(D.constant 1.) ~min_uptime:0.))

let test_accessors () =
  let a =
    T.Attempts [| T.Survived 1.; T.Failed { after = 1.; downtime = 2. } |]
  in
  let r = T.Renewal { uptimes = [| 1.; 2. |]; downtimes = [| 3. |] } in
  Alcotest.(check string) "kind a" "attempts" (T.kind_name a);
  Alcotest.(check string) "kind r" "renewal" (T.kind_name r);
  Alcotest.(check int) "events a" 2 (T.n_events a);
  Alcotest.(check int) "events r" 3 (T.n_events r);
  Alcotest.(check int) "failures a" 1 (T.n_failures a);
  Alcotest.(check int) "failures r" 1 (T.n_failures r)

(* ---- loader validation ---- *)

let expect_load_error what s =
  match T.of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "loader accepted %s" what

let header ?(kind = "attempts") ?(version = 1) () =
  Printf.sprintf "{\"format\":\"wfc-trace\",\"version\":%d,\"kind\":%S}" version
    kind

let test_loader_validation () =
  expect_load_error "empty input" "";
  expect_load_error "garbage" "not json\n";
  expect_load_error "wrong format"
    "{\"format\":\"other\",\"version\":1,\"kind\":\"attempts\"}\n";
  expect_load_error "future version" (header ~version:99 ());
  expect_load_error "unknown kind" (header ~kind:"martian" ());
  expect_load_error "unparseable float"
    (header () ^ "\n{\"s\":\"zebra\"}\n");
  expect_load_error "nan float" (header () ^ "\n{\"s\":\"nan\"}\n");
  expect_load_error "negative downtime"
    (header () ^ "\n{\"f\":\"0x1p+0\",\"d\":\"-0x1p+0\"}\n");
  expect_load_error "infinite failure time"
    (header () ^ "\n{\"f\":\"infinity\",\"d\":\"0x1p+0\"}\n");
  expect_load_error "renewal with no uptime" (header ~kind:"renewal" ());
  expect_load_error "renewal ending on a downtime"
    (header ~kind:"renewal" () ^ "\n{\"u\":\"0x1p+0\"}\n{\"d\":\"0x1p+0\"}\n");
  expect_load_error "renewal with two uptimes in a row"
    (header ~kind:"renewal" () ^ "\n{\"u\":\"0x1p+0\"}\n{\"u\":\"0x1p+0\"}\n");
  (* the empty attempts trace is legitimate: a fail-free platform *)
  match T.of_string (header () ^ "\n") with
  | Ok (T.Attempts [||]) -> ()
  | Ok _ -> Alcotest.fail "expected an empty attempts trace"
  | Error e -> Alcotest.failf "empty attempts trace rejected: %s" e

(* ---- replicated traces ---- *)

let replicated_case () =
  let g =
    Wfc_dag.Builders.chain ~weights:[| 5.; 3. |]
      ~checkpoint_cost:(fun _ _ -> 1.)
      ~recovery_cost:(fun _ _ -> 1.)
      ()
  in
  let s =
    Wfc_core.Schedule.make ~replicas:[| 2; 1 |] g ~order:[| 0; 1 |]
      ~checkpointed:[| true; false |]
  in
  (g, s)

let test_replicated_record_replay () =
  let g, s = replicated_case () in
  let model = FM.make ~lambda:0.3 ~downtime:1. () in
  let reference, trace = T.record_run ~rng:(Rng.create 11) model g s in
  Alcotest.(check string) "kind" "attempts-replicated" (T.kind_name trace);
  Alcotest.(check bool) "replay bit-identical" true
    (same_run reference (T.replay trace g s));
  (* and through the serialized form *)
  match T.of_string (T.to_string trace) with
  | Error e -> Alcotest.failf "loader rejected: %s" e
  | Ok trace' ->
      Alcotest.(check bool) "serialization round-trip" true (trace = trace');
      Alcotest.(check bool) "replay of loaded trace" true
        (same_run reference (T.replay trace' g s))

let expect_divergence what f =
  match f () with
  | exception T.Divergence _ -> ()
  | _ -> Alcotest.failf "expected Divergence on %s" what

let test_replicated_divergence () =
  let g, s = replicated_case () in
  let model = FM.make ~lambda:0.3 ~downtime:1. () in
  let _, trace = T.record_run ~rng:(Rng.create 11) model g s in
  (* same order and flags, different replica counts: the recorded stream
     would be sliced into the wrong copies, so replay must refuse *)
  expect_divergence "replica-count mismatch" (fun () ->
      T.replay trace g (Wfc_core.Schedule.with_replicas s [| 3; 1 |]));
  expect_divergence "unreplicated schedule against a replicated trace"
    (fun () ->
      T.replay trace g (Wfc_core.Schedule.with_replicas s [| 1; 1 |]));
  (* a single-lane trace cannot feed a replicated schedule either way *)
  let attempts = T.Attempts [| T.Survived infinity; T.Survived infinity |] in
  expect_divergence "attempts trace against a replicated schedule" (fun () ->
      T.replay attempts g s);
  let renewal = T.Renewal { uptimes = [| 1e6 |]; downtimes = [||] } in
  expect_divergence "renewal trace against a replicated schedule" (fun () ->
      T.replay renewal g s)

let test_save_load_files () =
  let g, s = single_task () in
  let _, trace =
    T.record_run
      ~rng:(Rng.create 7)
      (FM.make ~lambda:0.3 ~downtime:1. ())
      g s
  in
  let path = Filename.temp_file "wfc_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.save path trace;
      match T.load path with
      | Ok t -> Alcotest.(check bool) "round-trip" true (t = trace)
      | Error e -> Alcotest.failf "load failed: %s" e);
  match T.load "/nonexistent/wfc/trace.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing file"

let () =
  Alcotest.run "trace_io"
    [
      ( "determinism",
        [
          prop_record_replay_bit_identical;
          prop_serialization_round_trip;
          prop_renewal_record_replay;
          prop_event_log_replay;
          prop_sim_faults_source_replay;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "closed form" `Quick test_closed_form;
          Alcotest.test_case "divergence" `Quick test_divergence;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "draw_renewal" `Quick test_draw_renewal;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "replication",
        [
          Alcotest.test_case "record/replay" `Quick
            test_replicated_record_replay;
          Alcotest.test_case "divergence" `Quick test_replicated_divergence;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "loader validation" `Quick test_loader_validation;
          Alcotest.test_case "files" `Quick test_save_load_files;
        ] );
    ]
