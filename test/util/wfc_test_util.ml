(** Shared helpers for the test suites: float comparison, reusable failure
    models, and QCheck generators for random DAGs and schedules. *)

let close ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_close ?eps msg a b =
  if not (close ?eps a b) then
    Alcotest.failf "%s: %.17g <> %.17g" msg a b

(* A search on the flat backend reports the kernel's own value for the
   schedule it returns: bitwise what a fresh engine at those flags
   computes, and within 1e-9 of the oracle. *)
let reported_ok model g (sched : Wfc_core.Schedule.t) m =
  let order = sched.Wfc_core.Schedule.order
  and flags = sched.Wfc_core.Schedule.checkpointed in
  let module F = Wfc_core.Flat_engine in
  Float.equal m (F.makespan (F.create ~flags model g ~order))
  && close m (Wfc_core.Evaluator.expected_makespan model g sched)

(* Arm the observability layer (metrics registry and trace buffer) for one
   test case, then disarm and wipe it, so no case leaves the process-global
   registry recording for the next one. *)
let with_obs f =
  let module Metrics = Wfc_obs.Metrics in
  let module Trace = Wfc_obs.Trace in
  Metrics.set_enabled true;
  Trace.set_enabled true;
  Metrics.reset ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.set_enabled false;
      Trace.set_clock (fun () -> Unix.gettimeofday ());
      Metrics.reset ();
      Trace.reset ())
    f

let model ?(downtime = 0.) lambda =
  Wfc_platform.Failure_model.make ~lambda ~downtime ()

(* A selection of failure regimes: benign, moderate, harsh, with and without
   downtime. *)
let models =
  [ model 0.; model 1e-4; model 0.01; model ~downtime:0.5 0.05;
    model ~downtime:2. 0.2 ]

(* ---- QCheck generators ---- *)

open QCheck2

(* Random DAG: pick n, then for each vertex a random subset of earlier
   vertices as predecessors (possibly none, so multi-source graphs and
   disconnected vertices both occur). Weights and costs are small positive
   floats. *)
let gen_dag ?(max_n = 10) () =
  let open Gen in
  let* n = int_range 1 max_n in
  let* edge_flags =
    array_repeat (n * n) (frequencyl [ (3, false); (1, true) ])
  in
  let* weights = array_repeat n (float_range 0.5 10.) in
  let* ckpt_costs = array_repeat n (float_range 0.0 2.) in
  let* rec_costs = array_repeat n (float_range 0.0 2.) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if edge_flags.((u * n) + v) then edges := (u, v) :: !edges
    done
  done;
  return
    (Wfc_dag.Dag.of_weights
       ~checkpoint_cost:(fun i _ -> ckpt_costs.(i))
       ~recovery_cost:(fun i _ -> rec_costs.(i))
       ~weights ~edges:!edges ())

(* Random schedule for a DAG: a random topological order (random priority
   DF/BF mix via random tie-breaking) plus random checkpoint flags. *)
let gen_schedule_for g =
  let open Gen in
  let n = Wfc_dag.Dag.n_tasks g in
  let* seed = int_range 0 1_000_000 in
  let rng = Wfc_platform.Rng.create seed in
  let order =
    Wfc_dag.Linearize.run
      ~rand:(fun b -> Wfc_platform.Rng.int rng b)
      Wfc_dag.Linearize.Random_first g
  in
  let* flags = array_repeat n bool in
  return (Wfc_core.Schedule.make g ~order ~checkpointed:flags)

let gen_dag_and_schedule ?max_n () =
  let open Gen in
  let* g = gen_dag ?max_n () in
  let* s = gen_schedule_for g in
  return (g, s)

let print_dag_schedule (g, s) =
  Format.asprintf "%a / %a" Wfc_dag.Dag.pp_stats g Wfc_core.Schedule.pp s

(* Run a QCheck property as an alcotest case. *)
let qtest ?(count = 200) name gen print prop =
  QCheck_alcotest.to_alcotest
    (Test.make ~count ~name ~print gen prop)

(* The pre-executor single-source simulator, as an oracle for the lane
   executor. *)
module Sim_reference = Sim_reference

(* Robust selection on pre-drawn, replayed renewal traces, as an oracle for
   its live lanes. *)
module Robust_reference = Robust_reference

(* The replication budget greedy scored by the recurrence, as an oracle for
   the one scored on the flat kernel. *)
module Replication_reference = Replication_reference

(* One fault-injected run on a fresh executor, as the fault engine's tests
   drive it. *)
module Sim_faults_run = Sim_faults_run
