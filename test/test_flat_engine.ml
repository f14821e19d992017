(* Differential harness for the flat kernel, the one evaluation engine behind
   every search. Two contracts, checked after any interleaving of flips,
   batch assignments, rollbacks, commits and prefix queries:

   - against the Evaluator oracle at 1e-9 (the kernel's expm1 rearrangement
     costs a few ulps, not more);
   - against a fresh engine created at the same flags, bit for bit: a
     makespan is a pure function of the flag vector, whatever mutation path
     led there. Warm-engine serving and the domain-split invariance of the
     parallel searches both rest on this. *)

open Wfc_core
module Builders = Wfc_dag.Builders
module FM = Wfc_platform.Failure_model

let rel_close a b = Wfc_test_util.close ~eps:1e-9 a b

let oracle model g ~order flags =
  Evaluator.expected_makespan model g
    (Schedule.make g ~order:(Array.copy order) ~checkpointed:(Array.copy flags))

let oracle_prefix model g ~order flags upto =
  let r =
    Evaluator.evaluate model g
      (Schedule.make g ~order:(Array.copy order)
         ~checkpointed:(Array.copy flags))
  in
  let acc = ref 0. in
  for j = 0 to upto - 1 do
    acc := !acc +. r.Evaluator.per_position.(j)
  done;
  !acc

(* a cold engine at a schedule's flags and replicas *)
let of_schedule ~cost model g (s : Schedule.t) =
  Flat_engine.create ~flags:s.checkpointed ~replicas:s.replicas
    ~replica_cost:cost model g ~order:s.order

(* a cold engine at the current flags of [e] *)
let fresh model g ~order e =
  Flat_engine.create ~flags:(Flat_engine.flags e) model g ~order

(* ---- differential qcheck suite ---- *)

type op =
  | Flip of int
  | Set_all of bool array
  | Rollback
  | Commit
  | Prefix of int
  | Quiet_flip of int

let gen_scenario =
  let open QCheck2.Gen in
  let* g = Wfc_test_util.gen_dag ~max_n:9 () in
  let n = Wfc_dag.Dag.n_tasks g in
  let* model_idx = int_range 0 (List.length Wfc_test_util.models - 1) in
  let* ops =
    list_size (int_range 1 25)
      (frequency
         [
           (5, map (fun v -> Flip v) (int_range 0 (n - 1)));
           (2, map (fun v -> Quiet_flip v) (int_range 0 (n - 1)));
           (2, map (fun f -> Set_all f) (array_repeat n bool));
           (1, return Rollback);
           (1, return Commit);
           (2, map (fun i -> Prefix i) (int_range 0 n));
         ])
  in
  return (g, model_idx, ops)

let print_op = function
  | Flip v -> Printf.sprintf "flip %d" v
  | Quiet_flip v -> Printf.sprintf "qflip %d" v
  | Set_all f ->
      Printf.sprintf "set %s"
        (String.concat ""
           (List.map (fun b -> if b then "1" else "0") (Array.to_list f)))
  | Rollback -> "rollback"
  | Commit -> "commit"
  | Prefix i -> Printf.sprintf "prefix %d" i

let print_scenario (g, model_idx, ops) =
  Format.asprintf "%a model#%d ops[%s]" Wfc_dag.Dag.pp_stats g model_idx
    (String.concat "; " (List.map print_op ops))

let apply flat = function
  | Flip v -> ignore (Flat_engine.flip flat v)
  | Quiet_flip v -> Flat_engine.flip_quiet flat v
  | Set_all f -> Flat_engine.set_flags flat f
  | Rollback -> Flat_engine.rollback flat
  | Commit -> Flat_engine.commit flat
  | Prefix upto -> ignore (Flat_engine.prefix_makespan flat ~upto)

(* warm = cold, bit for bit, on every value an op returns and on the
   makespan after it *)
let run_scenario_fresh (g, model_idx, ops) =
  let model = List.nth Wfc_test_util.models model_idx in
  let order = Wfc_dag.Dag.topological_order g in
  let flat = Flat_engine.create model g ~order in
  List.iter
    (fun op ->
      (match op with
      | Flip v ->
          let mf = Flat_engine.flip flat v in
          let mc = Flat_engine.makespan (fresh model g ~order flat) in
          if mf <> mc then
            Alcotest.failf "flip %d: warm %.17g <> fresh %.17g" v mf mc
      | Quiet_flip v ->
          Flat_engine.flip_quiet flat v;
          let mf = Flat_engine.current_makespan flat in
          let mc = Flat_engine.makespan (fresh model g ~order flat) in
          if mf <> mc then
            Alcotest.failf "quiet flip %d: warm %.17g <> fresh %.17g" v mf mc
      | Prefix upto ->
          let pf = Flat_engine.prefix_makespan flat ~upto in
          let pc =
            Flat_engine.prefix_makespan (fresh model g ~order flat) ~upto
          in
          if pf <> pc then
            Alcotest.failf "prefix %d: warm %.17g <> fresh %.17g" upto pf pc
      | op -> apply flat op);
      let mf = Flat_engine.makespan flat in
      let mc = Flat_engine.makespan (fresh model g ~order flat) in
      if mf <> mc then
        Alcotest.failf "makespan: warm %.17g <> fresh %.17g" mf mc;
      let m' = oracle model g ~order (Flat_engine.flags flat) in
      if not (rel_close mf m') then
        Alcotest.failf "flat %.17g oracle %.17g" mf m')
    ops;
  true

let differential_fresh =
  Wfc_test_util.qtest ~count:500
    "any flip/set/rollback interleaving: flat = fresh engine (bitwise) = \
     oracle"
    gen_scenario print_scenario run_scenario_fresh

(* the oracle side on its own: prefix queries against the oracle's prefix
   sums, and rollback restoring exactly the committed flags *)
let run_scenario_oracle (g, model_idx, ops) =
  let model = List.nth Wfc_test_util.models model_idx in
  let order = Wfc_dag.Dag.topological_order g in
  let flat = Flat_engine.create model g ~order in
  let committed = ref (Array.make (Wfc_dag.Dag.n_tasks g) false) in
  List.iter
    (fun op ->
      (match op with
      | Prefix upto ->
          let p = Flat_engine.prefix_makespan flat ~upto in
          let p' = oracle_prefix model g ~order (Flat_engine.flags flat) upto in
          if not (rel_close p p') then
            Alcotest.failf "prefix %d: engine %.17g oracle %.17g" upto p p'
      | Commit ->
          Flat_engine.commit flat;
          committed := Flat_engine.flags flat
      | Rollback ->
          Flat_engine.rollback flat;
          if Flat_engine.flags flat <> !committed then
            Alcotest.fail "rollback did not restore committed flags"
      | op -> apply flat op);
      let m = Flat_engine.makespan flat in
      let m' = oracle model g ~order (Flat_engine.flags flat) in
      if not (rel_close m m') then
        Alcotest.failf "engine %.17g oracle %.17g" m m')
    ops;
  true

let differential_oracle =
  Wfc_test_util.qtest ~count:500 "any flip/set/rollback interleaving = oracle"
    gen_scenario print_scenario run_scenario_oracle

let vectors_against_oracle =
  Wfc_test_util.qtest ~count:200 "per-position and fault vectors = oracle"
    gen_scenario print_scenario (fun (g, model_idx, ops) ->
      let model = List.nth Wfc_test_util.models model_idx in
      let order = Wfc_dag.Dag.topological_order g in
      let flat = Flat_engine.create model g ~order in
      List.iter (apply flat) ops;
      let r =
        Evaluator.evaluate model g
          (Schedule.make g ~order:(Array.copy order)
             ~checkpointed:(Flat_engine.flags flat))
      in
      let check what got want =
        Array.iteri
          (fun i e ->
            if not (rel_close e want.(i)) then
              Alcotest.failf "%s.(%d): %.17g <> %.17g" what i e want.(i))
          got
      in
      check "per_position" (Flat_engine.per_position flat)
        r.Evaluator.per_position;
      check "fault_probability"
        (Flat_engine.fault_probability flat)
        r.Evaluator.fault_probability;
      true)

let vectors_bitwise =
  Wfc_test_util.qtest ~count:200 "per-position and fault vectors bitwise"
    gen_scenario print_scenario (fun (g, model_idx, ops) ->
      let model = List.nth Wfc_test_util.models model_idx in
      let order = Wfc_dag.Dag.topological_order g in
      let flat = Flat_engine.create model g ~order in
      List.iter (apply flat) ops;
      let cold = fresh model g ~order flat in
      Flat_engine.per_position flat = Flat_engine.per_position cold
      && Flat_engine.fault_probability flat
         = Flat_engine.fault_probability cold
      && Flat_engine.suffix_makespan flat ~from:0
         = Flat_engine.suffix_makespan cold ~from:0)

(* The kernel's replay entries must be Lost_work's, bit for bit, at every
   (k, i) — the rows below a column's stored skyline included, which the
   kernel reports as the structural zeros they are. *)
let check_lost_entries ?(msg = "") flat g flags =
  let n = Wfc_dag.Dag.n_tasks g in
  let order = Flat_engine.order flat in
  let lw = Lost_work.compute g (Schedule.make g ~order ~checkpointed:flags) in
  for i = 0 to n - 1 do
    for k = 0 to i do
      let a = Flat_engine.lost_entry flat ~last_fault:k ~position:i in
      let b = Lost_work.replay_time lw ~last_fault:k ~position:i in
      if a <> b then
        Alcotest.failf "%s entry (%d, %d): kernel %.17g Lost_work %.17g" msg
          k i a b
    done
  done

let lost_entries_bitwise =
  Wfc_test_util.qtest ~count:200 "replay matrix bitwise = Lost_work"
    QCheck2.Gen.(
      pair (Wfc_test_util.gen_dag ~max_n:9 ()) (int_range 0 max_int))
    (fun (g, bits) -> Format.asprintf "%a bits=%d" Wfc_dag.Dag.pp_stats g bits)
    (fun (g, bits) ->
      let n = Wfc_dag.Dag.n_tasks g in
      let order = Wfc_dag.Dag.topological_order g in
      let flags = Array.init n (fun v -> (bits lsr (v mod 30)) land 1 = 1) in
      let model = List.hd Wfc_test_util.models in
      check_lost_entries (Flat_engine.create ~flags model g ~order) g flags;
      true)

(* the same on structured DAGs, across flag vectors reached both cold and
   through the rebuild path (flips after a full build) *)
let test_lost_entries_structured () =
  let chain =
    Builders.chain
      ~weights:[| 6.; 2.; 8.; 4.; 5.; 3. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.15 *. w)
      ()
  in
  let fork_join =
    Builders.fork_join ~source_weight:4. ~middle_weights:[| 2.; 6.; 1.; 3. |]
      ~sink_weight:3.
      ~checkpoint_cost:(fun _ w -> 0.25 *. w)
      ~recovery_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let montage =
    Wfc_workflows.Pegasus.generate Wfc_workflows.Pegasus.Montage ~n:20 ~seed:5
  in
  let model = FM.make ~lambda:0.01 ~downtime:0.5 () in
  List.iter
    (fun (name, g) ->
      let n = Wfc_dag.Dag.n_tasks g in
      let order = Wfc_dag.Dag.topological_order g in
      List.iter
        (fun stride ->
          let flags = Array.init n (fun v -> v mod stride = 0) in
          let msg = Printf.sprintf "%s stride %d" name stride in
          check_lost_entries ~msg
            (Flat_engine.create ~flags model g ~order)
            g flags;
          (* warm: build all-off, then flip into [flags] *)
          let warm = Flat_engine.create model g ~order in
          ignore (Flat_engine.makespan warm);
          Array.iteri
            (fun v b -> if b then Flat_engine.flip_quiet warm v)
            flags;
          check_lost_entries ~msg:(msg ^ " (warm)") warm g flags)
        [ 1; 2; 3; n + 1 ])
    [ ("chain", chain); ("fork-join", fork_join); ("montage-20", montage) ]

(* ---- structured fixed cases ---- *)

let flip_walk model g =
  let order = Wfc_dag.Dag.topological_order g in
  let n = Wfc_dag.Dag.n_tasks g in
  let flat = Flat_engine.create model g ~order in
  let check msg =
    let mf = Flat_engine.makespan flat in
    let mc = Flat_engine.makespan (fresh model g ~order flat) in
    if mf <> mc then Alcotest.failf "%s: warm %.17g <> fresh %.17g" msg mf mc;
    let m' = oracle model g ~order (Flat_engine.flags flat) in
    if not (rel_close mf m') then
      Alcotest.failf "%s: flat %.17g oracle %.17g" msg mf m'
  in
  check "initial";
  (* walk every single flip on, then every one off again *)
  for v = 0 to n - 1 do
    Flat_engine.flip_quiet flat v;
    check (Printf.sprintf "flip on %d" v)
  done;
  for v = n - 1 downto 0 do
    Flat_engine.flip_quiet flat v;
    check (Printf.sprintf "flip off %d" v)
  done

let test_chain () =
  let g =
    Builders.chain
      ~weights:[| 6.; 2.; 8.; 4.; 5.; 3. |]
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.15 *. w)
      ()
  in
  List.iter (fun model -> flip_walk model g) Wfc_test_util.models

let test_fork_and_join () =
  let fork =
    Builders.fork ~source_weight:5. ~sink_weights:[| 1.; 2.; 3.; 4. |]
      ~checkpoint_cost:(fun _ w -> 0.3 *. w)
      ~recovery_cost:(fun _ w -> 0.3 *. w)
      ()
  in
  let join =
    Builders.join
      ~source_weights:[| 4.; 3.; 2.; 1. |]
      ~sink_weight:6.
      ~checkpoint_cost:(fun _ w -> 0.1 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ()
  in
  List.iter
    (fun model ->
      flip_walk model fork;
      flip_walk model join)
    Wfc_test_util.models

let test_single_task () =
  let g = Builders.chain ~weights:[| 7. |] ~checkpoint_cost:(fun _ _ -> 1.5) () in
  List.iter (fun model -> flip_walk model g) Wfc_test_util.models

let test_lambda_zero () =
  (* failure-free platform: makespan is exactly the flagged work sum *)
  let g =
    Builders.chain
      ~weights:[| 2.; 3.; 4. |]
      ~checkpoint_cost:(fun _ _ -> 0.5)
      ()
  in
  let model = FM.make ~lambda:0. () in
  let engine = Flat_engine.create model g ~order:[| 0; 1; 2 |] in
  Alcotest.(check (float 1e-12)) "no flags" 9. (Flat_engine.makespan engine);
  ignore (Flat_engine.flip engine 1);
  Alcotest.(check (float 1e-12)) "one flag" 9.5 (Flat_engine.makespan engine);
  Flat_engine.set_flags engine [| true; true; true |];
  Alcotest.(check (float 1e-12)) "all flags" 10.5 (Flat_engine.makespan engine)

let test_rollback_is_bitwise () =
  (* same flags reached by different paths give bit-identical makespans *)
  let g =
    Builders.fork_join ~source_weight:4. ~middle_weights:[| 2.; 6. |]
      ~sink_weight:3.
      ~checkpoint_cost:(fun _ w -> 0.25 *. w)
      ()
  in
  let model = FM.make ~lambda:0.05 ~downtime:0.3 () in
  let order = Wfc_dag.Dag.topological_order g in
  let engine = Flat_engine.create model g ~order in
  let m0 = Flat_engine.makespan engine in
  Flat_engine.commit engine;
  ignore (Flat_engine.flip engine 0);
  ignore (Flat_engine.flip engine 2);
  Flat_engine.rollback engine;
  Alcotest.(check (float 0.)) "rollback restores bitwise" m0
    (Flat_engine.makespan engine);
  let cold = Flat_engine.create model g ~order in
  ignore (Flat_engine.flip cold 3);
  ignore (Flat_engine.flip engine 3);
  Alcotest.(check (float 0.)) "path-independent" (Flat_engine.makespan cold)
    (Flat_engine.makespan engine)

let test_prefix_cursor () =
  (* the branch-and-bound access pattern: assign flags left to right asking
     only for prefix costs, with backtracking; every horizon must match the
     oracle's prefix sums and a fresh engine's prefix bit for bit *)
  let g =
    let rng = Wfc_platform.Rng.create 11 in
    Builders.layered
      ~rand:(fun b -> Wfc_platform.Rng.int rng b)
      ~n_layers:3
      ~layer_width:(fun l -> if l = 1 then 3 else 2)
      ~weight:(fun i -> 2. +. float_of_int (i mod 3))
      ~checkpoint_cost:(fun _ _ -> 0.7)
      ~recovery_cost:(fun _ _ -> 0.4)
      ()
  in
  let model = FM.make ~lambda:0.08 ~downtime:0.1 () in
  let order = Wfc_dag.Dag.topological_order g in
  let n = Array.length order in
  let flat = Flat_engine.create model g ~order in
  let check_prefix upto =
    let p = Flat_engine.prefix_makespan flat ~upto in
    let pc = Flat_engine.prefix_makespan (fresh model g ~order flat) ~upto in
    if p <> pc then
      Alcotest.failf "prefix %d: warm %.17g <> fresh %.17g" upto p pc;
    let p' = oracle_prefix model g ~order (Flat_engine.flags flat) upto in
    if not (rel_close p p') then
      Alcotest.failf "prefix %d: engine %.17g oracle %.17g" upto p p'
  in
  let rec walk i =
    if i < n then begin
      List.iter
        (fun b ->
          Flat_engine.set_flag_at flat ~pos:i b;
          check_prefix (i + 1);
          if i < 3 then walk (i + 1))
        [ true; false ]
    end
  in
  walk 0;
  check_prefix n

(* ---- model rebinding ---- *)

let test_set_model () =
  let g =
    Builders.fork_join ~source_weight:2. ~middle_weights:[| 3.; 1.; 4. |]
      ~sink_weight:2.
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let order = Wfc_dag.Dag.topological_order g in
  let m0 = FM.make ~lambda:1e-3 ~downtime:1. () in
  let m1 = FM.make ~lambda:0.07 ~downtime:0.4 () in
  let flat = Flat_engine.create m0 g ~order in
  let cold model = Flat_engine.makespan (fresh model g ~order flat) in
  ignore (Flat_engine.flip flat 1);
  Flat_engine.set_model flat m1;
  ignore (Flat_engine.flip flat 3);
  Alcotest.(check (float 0.)) "post-rebind bitwise" (cold m1)
    (Flat_engine.makespan flat);
  (* and a rebind to lambda = 0 and back *)
  let free = FM.make ~lambda:0. () in
  Flat_engine.set_model flat free;
  Alcotest.(check (float 0.)) "lambda 0 bitwise" (cold free)
    (Flat_engine.makespan flat);
  Flat_engine.set_model flat m1;
  Alcotest.(check (float 0.)) "back again" (cold m1) (Flat_engine.makespan flat)

(* ---- engine handles ---- *)

let test_flat_handle () =
  (* [Eval_engine.handle Flat] is [Flat_engine.create]: same bits at build
     and after the same mutations *)
  let g =
    Builders.fork_join ~source_weight:3. ~middle_weights:[| 2.; 5.; 1. |]
      ~sink_weight:4.
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let model = FM.make ~lambda:0.04 ~downtime:0.2 () in
  let order = Wfc_dag.Dag.topological_order g in
  let n = Array.length order in
  let flags = Array.init n (fun v -> v mod 2 = 1) in
  let h = Eval_engine.handle ~flags Eval_engine.Flat model g ~order in
  let e = Flat_engine.create ~flags model g ~order in
  let same msg a b = Alcotest.(check (float 0.)) msg a b in
  same "initial" (Flat_engine.makespan e) (Flat_engine.makespan h);
  same "flip" (Flat_engine.flip e 1) (Flat_engine.flip h 1);
  let m1 = FM.make ~lambda:0.1 () in
  Flat_engine.set_model h m1;
  Flat_engine.set_model e m1;
  same "set_model" (Flat_engine.makespan e) (Flat_engine.makespan h);
  Alcotest.(check (array bool)) "flags" (Flat_engine.flags e)
    (Flat_engine.flags h);
  Alcotest.(check (array int)) "order" order (Flat_engine.order h)

let test_replicated_handle () =
  (* replicated schedules are scored on the kernel too: the replication
     heuristic and the replica-aware local search report bitwise a fresh
     engine's value for the schedule they return, and the recurrence's to
     1e-12 *)
  let g =
    Builders.fork_join ~source_weight:3. ~middle_weights:[| 2.; 5.; 1. |]
      ~sink_weight:4.
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ~recovery_cost:(fun _ w -> 0.1 *. w)
      ()
  in
  let model = FM.make ~lambda:0.04 ~downtime:0.2 () in
  let cost = 0.3 in
  let same msg sched m =
    Alcotest.(check (float 0.)) msg
      (Flat_engine.makespan (of_schedule ~cost model g sched))
      m;
    Wfc_test_util.check_close ~eps:1e-12 (msg ^ " vs recurrence")
      (Replication.recurrence ~cost model g sched).Replication.makespan m
  in
  let o =
    Heuristics.run_replicated ~cost (Replication.Heavy 2) model g
      ~lin:Wfc_dag.Linearize.Depth_first ~ckpt:Heuristics.Ckpt_weight
  in
  Alcotest.(check bool) "replicated" true
    (Schedule.is_replicated o.Heuristics.schedule);
  same "Heuristics.replicate" o.Heuristics.schedule o.Heuristics.makespan;
  let ls =
    Local_search.improve ~replica_cost:cost ~max_evaluations:60 model g
      o.Heuristics.schedule
  in
  same "Local_search.improve" ls.Local_search.schedule ls.Local_search.makespan;
  let seed =
    Schedule.with_replicas o.Heuristics.schedule
      (Array.make (Wfc_dag.Dag.n_tasks g) 1)
  in
  let grown =
    Local_search.improve ~replica_cost:cost ~max_replicas:3
      ~max_evaluations:60 model g seed
  in
  same "improve ~max_replicas" grown.Local_search.schedule
    grown.Local_search.makespan;
  same "initial" seed grown.Local_search.initial_makespan

(* ---- replicated schedules ---- *)

module P = Wfc_workflows.Pegasus

(* a Pegasus workflow with random flags, replica counts in 1..4 on about a
   quarter of the tasks, a surcharge in [0, 1] (0 one time in four) and an
   MTBF between one mean task and about three hundred *)
let gen_replicated_case =
  let open QCheck2.Gen in
  let* family = oneofl P.all in
  let* n = int_range (P.min_size family) 300 in
  let* seed = int_range 0 1000 in
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (P.generate family ~n ~seed)
  in
  let* flags = array_repeat n bool in
  let* reps =
    array_repeat n (frequency [ (3, return 1); (1, int_range 2 4) ])
  in
  let* cost = frequency [ (1, return 0.); (3, float_range 0. 1.) ] in
  let* tasks = float_range 0. 2.5 in
  let* downtime = float_range 0. 2. in
  let mtbf = (10. ** tasks) *. Wfc_dag.Dag.total_weight g /. float_of_int n in
  let model = FM.make ~lambda:(1. /. mtbf) ~downtime () in
  let order = Wfc_dag.Dag.topological_order g in
  return (g, model, cost, Schedule.make ~replicas:reps g ~order ~checkpointed:flags)

let print_replicated_case (g, model, cost, s) =
  Format.asprintf "%a %a cost=%g extra=%d" Wfc_dag.Dag.pp_stats g FM.pp model
    cost (Schedule.extra_replicas s)

let replicated_vs_recurrence =
  Wfc_test_util.qtest ~count:40 "replicated kernel = recurrence within 1e-12"
    gen_replicated_case print_replicated_case (fun (g, model, cost, s) ->
      let e = of_schedule ~cost model g s in
      let r = Replication.recurrence ~cost model g s in
      let check what got want =
        Array.iteri
          (fun i x ->
            if not (Wfc_test_util.close ~eps:1e-12 x want.(i)) then
              Alcotest.failf "%s.(%d): kernel %.17g recurrence %.17g" what i x
                want.(i))
          got
      in
      check "makespan" [| Flat_engine.makespan e |] [| r.Replication.makespan |];
      check "per_position" (Flat_engine.per_position e)
        r.Replication.per_position;
      check "fault_probability" (Flat_engine.fault_probability e)
        r.Replication.fault_probability;
      true)

type rop = Op of op | Replicas of int * int

let gen_replicated_scenario =
  let open QCheck2.Gen in
  let* g, model_idx, ops = gen_scenario in
  let n = Wfc_dag.Dag.n_tasks g in
  let* cost = oneofl [ 0.; 0.3; 1. ] in
  let* reps =
    list_size (int_range 1 12)
      (map2 (fun v r -> Replicas (v, r)) (int_range 0 (n - 1)) (int_range 1 4))
  in
  let* ops = shuffle_l (List.map (fun o -> Op o) ops @ reps) in
  return (g, model_idx, cost, ops)

let print_replicated_scenario (g, model_idx, cost, ops) =
  Format.asprintf "%a model#%d cost=%g ops[%s]" Wfc_dag.Dag.pp_stats g
    model_idx cost
    (String.concat "; "
       (List.map
          (function
            | Replicas (v, r) -> Printf.sprintf "replicas %d %d" v r
            | Op o -> print_op o)
          ops))

let replicated_interleavings =
  Wfc_test_util.qtest ~count:300
    "any set_replicas/flip/set_flags interleaving = fresh engine (bitwise)"
    gen_replicated_scenario print_replicated_scenario
    (fun (g, model_idx, cost, ops) ->
      let model = List.nth Wfc_test_util.models model_idx in
      let order = Wfc_dag.Dag.topological_order g in
      let warm = Flat_engine.create ~replica_cost:cost model g ~order in
      List.for_all
        (fun op ->
          (match op with
          | Replicas (v, r) -> Flat_engine.set_replicas warm v r
          | Op o -> apply warm o);
          let cold =
            Flat_engine.create ~flags:(Flat_engine.flags warm)
              ~replicas:(Flat_engine.replicas warm) ~replica_cost:cost model g
              ~order
          in
          Flat_engine.per_position warm = Flat_engine.per_position cold
          && Flat_engine.fault_probability warm
             = Flat_engine.fault_probability cold
          && Float.equal (Flat_engine.makespan warm) (Flat_engine.makespan cold))
        ops)

let all_ones_replicas =
  Wfc_test_util.qtest ~count:200
    "all-ones replicas = create without, bitwise"
    (QCheck2.Gen.pair (Wfc_test_util.gen_dag_and_schedule ~max_n:9 ())
       (QCheck2.Gen.float_range 0. 2.))
    (fun (gs, cost) ->
      Printf.sprintf "%s cost=%g" (Wfc_test_util.print_dag_schedule gs) cost)
    (fun ((g, s), cost) ->
      let order = s.Schedule.order and flags = s.Schedule.checkpointed in
      List.for_all
        (fun model ->
          let plain = Flat_engine.create ~flags model g ~order in
          let ones =
            Flat_engine.create ~flags
              ~replicas:(Array.make (Array.length order) 1)
              ~replica_cost:cost model g ~order
          in
          Flat_engine.per_position plain = Flat_engine.per_position ones
          && Flat_engine.fault_probability plain
             = Flat_engine.fault_probability ones)
        Wfc_test_util.models)

(* ---- reported makespans ---- *)

(* Every search reports the kernel's own value for the schedule it
   returns (the server's answers are checked in test_serve). *)
let reported_ok = Wfc_test_util.reported_ok

module Driver = Wfc_resilience.Solver_driver

let gen_search_case =
  let open QCheck2.Gen in
  let* g = Wfc_test_util.gen_dag ~max_n:9 () in
  let n = Wfc_dag.Dag.n_tasks g in
  let models = Array.of_list Wfc_test_util.models in
  let* m = int_range 0 (Array.length models - 1)
  and* stale_m = int_range 0 (Array.length models - 1)
  and* stale = array_repeat n bool
  and* lin =
    oneofl Wfc_dag.Linearize.[ Depth_first; Breadth_first; Depth_first_blevel ]
  in
  return (g, models.(m), models.(stale_m), stale, lin)

let print_search_case (g, _, _, _, lin) =
  Format.asprintf "%a (%s)" Wfc_dag.Dag.pp_stats g
    (Wfc_dag.Linearize.strategy_name lin)

let prop_heuristics_report_kernel =
  Wfc_test_util.qtest ~count:100
    "Heuristics.run reports the kernel's value, cold and warm" gen_search_case
    print_search_case (fun (g, model, stale_model, stale, lin) ->
      let order = Wfc_dag.Linearize.run lin g in
      List.for_all
        (fun ckpt ->
          let cold = Heuristics.run model g ~lin ~ckpt in
          (* a warm engine left holding other flags under another model *)
          let engine = Flat_engine.create ~flags:stale stale_model g ~order in
          let warm = Heuristics.run ~engine model g ~lin ~ckpt in
          reported_ok model g cold.Heuristics.schedule cold.Heuristics.makespan
          && Float.equal warm.Heuristics.makespan cold.Heuristics.makespan
          && warm.Heuristics.schedule = cold.Heuristics.schedule)
        Heuristics.extended_ckpt_strategies)

let prop_searches_report_kernel =
  Wfc_test_util.qtest ~count:60
    "local search, B&B and driver tiers report the kernel's value"
    gen_search_case print_search_case (fun (g, model, _, stale, lin) ->
      let order = Wfc_dag.Linearize.run lin g in
      let seed = Schedule.make g ~order ~checkpointed:stale in
      let ls = Local_search.improve model g seed in
      let bnb domains =
        fst
          (Exact_solver.optimal_checkpoints_within ~domains
            (Flat_engine.create model g ~order))
      in
      let one = bnb 1 and four = bnb 4 in
      let driver config = Driver.solve ~config model g ~order in
      let tiers =
        [
          driver Driver.default_config;
          driver { Driver.default_config with Driver.max_nodes = 1 };
          driver
            { Driver.default_config with Driver.max_nodes = 1; fallbacks = [] };
        ]
      in
      reported_ok model g seed ls.Local_search.initial_makespan
      && reported_ok model g ls.Local_search.schedule ls.Local_search.makespan
      && reported_ok model g one.Exact_solver.schedule one.Exact_solver.makespan
      && reported_ok model g four.Exact_solver.schedule
           four.Exact_solver.makespan
      && List.for_all
           (fun r ->
             reported_ok model g r.Driver.schedule r.Driver.makespan)
           tiers)

(* the qcheck above cannot force the heuristic tier; these instances pin
   one of each *)
let test_driver_tiers_report_kernel () =
  let module P = Wfc_workflows.Pegasus in
  let g =
    Wfc_workflows.Cost_model.apply (Wfc_workflows.Cost_model.Proportional 0.1)
      (P.generate P.Genome ~n:12 ~seed:1)
  in
  let model = FM.of_mtbf ~mtbf:50. () in
  let order = Wfc_dag.Linearize.run Wfc_dag.Linearize.Breadth_first g in
  let tight = { Driver.default_config with Driver.max_nodes = 1 } in
  List.iter
    (fun (config, tier) ->
      let r = Driver.solve ~config model g ~order in
      Alcotest.(check string) "tier" (Driver.tier_name tier)
        (Driver.tier_name r.Driver.tier);
      Alcotest.(check bool)
        (Driver.tier_name tier ^ " reports the kernel's value")
        true
        (reported_ok model g r.Driver.schedule r.Driver.makespan))
    [
      (Driver.default_config, Driver.Exact);
      ({ tight with Driver.fallbacks = [] }, Driver.Local_search);
      ({ tight with Driver.ls_evaluations = 1 }, Driver.Heuristic);
    ]

(* ---- candidate batches ---- *)

let test_batch_matches_oracle_and_split () =
  (* a batch of candidates scored on one engine via [set_flags] gets the
     bits of a fresh engine per candidate, and the oracle's value to 1e-9 *)
  let g =
    Builders.fork_join ~source_weight:2. ~middle_weights:[| 3.; 1.; 4. |]
      ~sink_weight:2.
      ~checkpoint_cost:(fun _ w -> 0.2 *. w)
      ()
  in
  let model = FM.make ~lambda:0.06 ~downtime:0.2 () in
  let order = Wfc_dag.Dag.topological_order g in
  let n = Array.length order in
  let rng = Wfc_platform.Rng.create 7 in
  let candidates =
    List.init 23 (fun _ ->
        Array.init n (fun _ -> Wfc_platform.Rng.int rng 2 = 0))
  in
  let e = Flat_engine.create model g ~order in
  List.iter
    (fun flags ->
      Flat_engine.set_flags e flags;
      let m = Flat_engine.makespan e in
      let cold =
        Flat_engine.makespan (Flat_engine.create ~flags model g ~order)
      in
      if not (Float.equal m cold) then
        Alcotest.failf "shared engine vs fresh: %.17g <> %.17g" m cold;
      let m' = oracle model g ~order flags in
      if not (rel_close m m') then
        Alcotest.failf "batch vs oracle: %.17g <> %.17g" m m')
    candidates

(* ---- allocation guard ---- *)

let test_flip_allocates_nothing () =
  (* the whole steady-state move — flip_quiet + full revalidation — must not
     touch the minor heap. Only meaningful under ocamlopt; the bytecode
     runtime boxes freely. *)
  if Sys.backend_type <> Sys.Native then ()
  else begin
    let rng = Wfc_platform.Rng.create 3 in
    let g =
      Builders.layered
        ~rand:(fun b -> Wfc_platform.Rng.int rng b)
        ~n_layers:5
        ~layer_width:(fun _ -> 6)
        ~weight:(fun i -> 1. +. float_of_int (i mod 7))
        ~checkpoint_cost:(fun _ w -> 0.2 *. w)
        ~recovery_cost:(fun _ w -> 0.1 *. w)
        ()
    in
    let model = FM.make ~lambda:0.02 ~downtime:0.5 () in
    let order = Wfc_dag.Dag.topological_order g in
    let n = Array.length order in
    let engine = Flat_engine.create model g ~order in
    ignore (Flat_engine.makespan engine);
    (* warm every code path once (rebuilds, transforms, steps) *)
    for v = 0 to n - 1 do
      Flat_engine.flip_quiet engine v
    done;
    let rounds = 1000 in
    let before = Gc.minor_words () in
    for j = 0 to rounds - 1 do
      Flat_engine.flip_quiet engine (j mod n)
    done;
    let after = Gc.minor_words () in
    let per_flip = (after -. before) /. float_of_int rounds in
    if per_flip > 0.5 then
      Alcotest.failf "flip_quiet allocates %.2f minor words per flip" per_flip
  end

(* ---- validation ---- *)

let test_validation () =
  let g = Builders.chain ~weights:[| 1.; 2. |] () in
  let model = FM.make ~lambda:0.1 () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Flat_engine.create model g ~order:[| 1; 0 |]);
  expect_invalid (fun () ->
      Flat_engine.create ~flags:[| true |] model g ~order:[| 0; 1 |]);
  let engine = Flat_engine.create model g ~order:[| 0; 1 |] in
  expect_invalid (fun () -> Flat_engine.flip engine 2);
  expect_invalid (fun () -> Flat_engine.flip_quiet engine (-1));
  expect_invalid (fun () -> Flat_engine.prefix_makespan engine ~upto:3);
  expect_invalid (fun () -> Flat_engine.suffix_makespan engine ~from:(-1));
  expect_invalid (fun () -> Flat_engine.set_flag_at engine ~pos:(-1) false);
  expect_invalid (fun () -> Flat_engine.set_flags engine [| true |]);
  expect_invalid (fun () ->
      Flat_engine.lost_entry engine ~last_fault:1 ~position:0);
  expect_invalid (fun () ->
      Eval_engine.handle Eval_engine.Flat model g ~order:[| 1; 0 |])

let () =
  Alcotest.run "flat_engine"
    [
      ( "differential",
        [
          differential_fresh;
          differential_oracle;
          vectors_against_oracle;
          vectors_bitwise;
          lost_entries_bitwise;
          Alcotest.test_case "replay matrix on chain, fork-join, montage"
            `Quick test_lost_entries_structured;
        ] );
      ( "structures",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "fork and join" `Quick test_fork_and_join;
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "lambda = 0" `Quick test_lambda_zero;
        ] );
      ( "state",
        [
          Alcotest.test_case "rollback bitwise" `Quick test_rollback_is_bitwise;
          Alcotest.test_case "prefix cursor" `Quick test_prefix_cursor;
          Alcotest.test_case "set_model" `Quick test_set_model;
        ] );
      ( "handles",
        [
          Alcotest.test_case "flat handle = kernel" `Quick test_flat_handle;
          Alcotest.test_case "replicated handle ops" `Quick
            test_replicated_handle;
        ] );
      ( "replicated",
        [
          replicated_vs_recurrence;
          replicated_interleavings;
          all_ones_replicas;
        ] );
      ( "reported",
        [
          prop_heuristics_report_kernel;
          prop_searches_report_kernel;
          Alcotest.test_case "every driver tier" `Quick
            test_driver_tiers_report_kernel;
        ] );
      ( "batch",
        [
          Alcotest.test_case "oracle + split invariance" `Quick
            test_batch_matches_oracle_and_split;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "flip_quiet is allocation-free" `Quick
            test_flip_allocates_nothing;
        ] );
      ("validation", [ Alcotest.test_case "arguments" `Quick test_validation ]);
    ]
