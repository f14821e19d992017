(* The blocking-checkpoint engine as it stood before the simulator was
   folded into one lane executor, kept verbatim as a test oracle: one
   failure source, a list of restored outputs, a fresh [seen] array per
   replay walk and a recursive walk. The production executor must match it
   bit for bit on every unreplicated schedule. *)

module Sim = Wfc_simulator.Sim

type state = {
  g : Wfc_dag.Dag.t;
  in_memory : bool array;
  on_disk : bool array;
  seen : bool array;
  mutable restored : int list;
  mutable recoveries : int;
}

let make_state g ~n =
  {
    g;
    in_memory = Array.make n false;
    on_disk = Array.make n false;
    seen = Array.make n false;
    restored = [];
    recoveries = 0;
  }

let weight st v = (Wfc_dag.Dag.task st.g v).Wfc_dag.Task.weight
let ckpt_cost st v = (Wfc_dag.Dag.task st.g v).Wfc_dag.Task.checkpoint_cost
let rec_cost st v = (Wfc_dag.Dag.task st.g v).Wfc_dag.Task.recovery_cost

let replay_cost st v =
  st.restored <- [];
  Array.fill st.seen 0 (Array.length st.seen) false;
  let cost = ref 0. in
  let rec visit v =
    Array.iter
      (fun u ->
        if (not st.in_memory.(u)) && not st.seen.(u) then begin
          st.seen.(u) <- true;
          st.restored <- u :: st.restored;
          if st.on_disk.(u) then begin
            st.recoveries <- st.recoveries + 1;
            cost := !cost +. rec_cost st u
          end
          else begin
            cost := !cost +. weight st u;
            visit u
          end
        end)
      (Wfc_dag.Dag.preds_array st.g v)
  in
  visit v;
  !cost

let commit st v ~checkpointing =
  List.iter (fun u -> st.in_memory.(u) <- true) st.restored;
  st.in_memory.(v) <- true;
  if checkpointing then st.on_disk.(v) <- true

let wipe_memory st = Array.fill st.in_memory 0 (Array.length st.in_memory) false

let run_with_source (source : Sim.source) g sched =
  if Wfc_core.Schedule.is_replicated sched then
    invalid_arg "Sim_reference.run_with_source: replicated schedule";
  let n = Wfc_core.Schedule.n_tasks sched in
  let st = make_state g ~n in
  let time = ref 0. and failures = ref 0 and wasted = ref 0. in
  for p = 0 to n - 1 do
    let v = Wfc_core.Schedule.task_at sched p in
    let checkpointing = Wfc_core.Schedule.is_checkpointed sched v in
    let finished = ref false in
    while not !finished do
      let replay = replay_cost st v in
      let segment =
        replay +. weight st v +. (if checkpointing then ckpt_cost st v else 0.)
      in
      let fail_after = source.Sim.time_to_failure () in
      if fail_after >= segment then begin
        time := !time +. segment;
        wasted := !wasted +. replay;
        source.Sim.consume segment;
        commit st v ~checkpointing;
        finished := true
      end
      else begin
        let downtime = source.Sim.next_downtime () in
        time := !time +. fail_after +. downtime;
        wasted := !wasted +. fail_after +. downtime;
        incr failures;
        wipe_memory st;
        source.Sim.after_failure ()
      end
    done
  done;
  { Sim.makespan = !time; failures = !failures; wasted = !wasted }
