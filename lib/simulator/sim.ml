type run = { makespan : float; failures : int; wasted : float }

module Metrics = Wfc_obs.Metrics
module Rng = Wfc_platform.Rng
module Distribution = Wfc_platform.Distribution
module Schedule = Wfc_core.Schedule

(* The sim.* family, declared once: every run of the executor flushes into
   these, whichever wrapper (Sim, Sim_faults, Sim_adaptive, Sim_trace,
   Sim_breakdown, Trace_io) started it. *)
let m_replicas = Metrics.counter "sim.replicas"
let m_failures = Metrics.counter "sim.failures_injected"
let m_recoveries = Metrics.counter "sim.recoveries"
let h_lost_work = Metrics.histogram "sim.lost_work"

(* Task-replication counters: extra copies a replicated run placed, and
   attempts that lost at least one copy but survived on a sibling. *)
let m_replicas_placed = Metrics.counter "sim.replicas_placed"
let m_replica_saves = Metrics.counter "sim.replica_saves"

(* Injected checkpoint/recovery faults (Sim_faults). *)
let m_corrupt = Metrics.counter "sim.faults.corrupt_ckpt_detected"
let m_failed_rec = Metrics.counter "sim.faults.failed_recoveries"
let m_truncated = Metrics.counter "sim.faults.truncated_runs"

(* One failure lane; the mli documents the call order. The floats of
   [memoryless] are boxed fields, so the executor hands [lambda] to
   [Rng.exponential_into] and reads [downtime] without allocating; the
   executor ages a renewal countdown in its one-slot float array. *)
type memoryless = { rng : Rng.t; lambda : float; downtime : float }

type renewal = {
  rng : Rng.t;
  failures : Distribution.t;
  downtime : Distribution.t;
  countdown : float array;
}

type law = Memoryless of memoryless | Renewal of renewal | Closures

type source = {
  time_to_failure : unit -> float;
  consume : float -> unit;
  next_downtime : unit -> float;
  after_failure : unit -> unit;
  law : law;
}

let custom_source ~time_to_failure ~consume ~next_downtime ~after_failure =
  { time_to_failure; consume; next_downtime; after_failure; law = Closures }

(* The one draw rule of a memoryless lane: its time to failure, stored
   into [slot.(0)]. The executor draws into its own slot; the lane's
   closure, for wrappers, into one of its own. *)
let[@inline] draw_memoryless m slot =
  if m.lambda = 0. then Array.unsafe_set slot 0 infinity
  else Rng.exponential_into m.rng ~rate:m.lambda slot 0

let source_of_model ~rng model =
  let m =
    {
      rng;
      lambda = model.Wfc_platform.Failure_model.lambda;
      downtime = model.Wfc_platform.Failure_model.downtime;
    }
  in
  let slot = Array.make 1 0. in
  {
    (* memoryless: a fresh draw per attempt is exact for exponential *)
    time_to_failure =
      (fun () ->
        draw_memoryless m slot;
        Array.unsafe_get slot 0);
    consume = (fun _ -> ());
    next_downtime = (fun () -> m.downtime);
    after_failure = (fun () -> ());
    law = Memoryless m;
  }

(* The renewal rules, shared by the executor and the lane's closures: the
   repair's downtime is drawn first, then the next countdown. *)
let[@inline] renewal_downtime r = Distribution.sample r.downtime r.rng

let[@inline] renew_countdown r =
  Array.unsafe_set r.countdown 0 (Distribution.sample r.failures r.rng)

let renewal_source ~rng ~failures ~downtime =
  (* countdown to the next failure: consumed by successful segments, redrawn
     after each repair (the repair renews the process) *)
  let r = { rng; failures; downtime; countdown = Array.make 1 0. } in
  renew_countdown r;
  {
    time_to_failure = (fun () -> Array.unsafe_get r.countdown 0);
    consume =
      (fun dt ->
        Array.unsafe_set r.countdown 0 (Array.unsafe_get r.countdown 0 -. dt));
    next_downtime = (fun () -> renewal_downtime r);
    after_failure = (fun () -> renew_countdown r);
    law = Renewal r;
  }

(* {1 The executor} *)

type faults = {
  p_ckpt_fail : float;
  p_rec_fail : float;
  max_failures : int;
  rng : Rng.t;
}

(* Every float the loop updates lives in this all-float record, so the
   stores are unboxed. [death] and [death_downtime] track the attempt's
   last copy to die, until the attempt is lost and they become [lost] and
   [downtime]. *)
type clock = {
  mutable time : float;
  mutable wasted : float;
  mutable start : float;
  mutable replay : float;
  mutable recovery : float;
  mutable segment : float;
  mutable lost : float;
  mutable downtime : float;
  mutable exposure : float;
  mutable downtime_total : float;
  mutable death : float;
  mutable death_downtime : float;
}

type exec = {
  n : int;
  sched : Schedule.t;
  preds : int array array;
  work : float array;  (* effective weight: replicated copies surcharged *)
  ckpt_cost : float array;
  rec_cost : float array;
  replicas : int array;
  extra_replicas : int;  (* copies beyond the first, over all tasks *)
  faults : faults;
  (* the plan; an observer may rewrite its suffix ({!replan}) *)
  order : int array;
  flags : bool array;
  (* platform state. [mem.(u) = life] means u's output is in memory, so a
     failure wipes memory by bumping [life]; [copies.(u) > 0] means u's
     checkpoint copies sit on disk, bit j of [corrupt.(u)] marking copy j
     silently corrupt. *)
  mem : int array;
  mutable life : int;
  copies : int array;
  corrupt : int array;
  (* replay-walk scratch: [seen.(u) = epoch] marks u visited by the current
     walk; [restored] holds the outputs it brings back; [stack]/[next] are
     the explicit DFS frames (node, next predecessor index) *)
  seen : int array;
  mutable epoch : int;
  restored : int array;
  mutable n_restored : int;
  stack : int array;
  next : int array;
  clock : clock;
  draw : float array;  (* the attempt's time to failure, stored unboxed *)
  (* the position in flight and the run's counters *)
  mutable position : int;
  mutable failures : int;
  mutable lane_failures : int;
  mutable losses : int;  (* copies of the attempt in flight lost so far *)
  mutable recoveries : int;
  mutable corrupt_reads : int;
  mutable failed_recoveries : int;
  mutable saves : int;
  mutable truncated : bool;
}

let no_faults () =
  { p_ckpt_fail = 0.; p_rec_fail = 0.; max_failures = 0; rng = Rng.create 0 }

let exec ?(replica_cost = Wfc_core.Replication.default_cost) ?faults g sched =
  let n = Schedule.n_tasks sched in
  (* the walk indexes by predecessor ids unchecked *)
  if Wfc_dag.Dag.n_tasks g <> n then
    invalid_arg "Sim.exec: schedule and DAG differ in size";
  let task v = Wfc_dag.Dag.task g v in
  let replicas = Array.init n (Schedule.replicas_of sched) in
  let work =
    (* an unreplicated run never prices copies, so it never validates
       [replica_cost] either *)
    if Schedule.is_replicated sched then
      Array.init n (fun v ->
          Wfc_core.Replication.effective_weight ~cost:replica_cost
            ~weight:(task v).Wfc_dag.Task.weight ~r:replicas.(v))
    else Array.init n (fun v -> (task v).Wfc_dag.Task.weight)
  in
  {
    n;
    sched;
    preds = Array.init n (Wfc_dag.Dag.preds_array g);
    work;
    ckpt_cost = Array.init n (fun v -> (task v).Wfc_dag.Task.checkpoint_cost);
    rec_cost = Array.init n (fun v -> (task v).Wfc_dag.Task.recovery_cost);
    replicas;
    extra_replicas = Schedule.extra_replicas sched;
    faults = (match faults with Some f -> f | None -> no_faults ());
    order = Array.init n (Schedule.task_at sched);
    flags = Array.init n (Schedule.is_checkpointed sched);
    mem = Array.make n 0;
    life = 1;
    copies = Array.make n 0;
    corrupt = Array.make n 0;
    seen = Array.make n 0;
    epoch = 0;
    restored = Array.make n 0;
    n_restored = 0;
    stack = Array.make n 0;
    next = Array.make n 0;
    clock =
      {
        time = 0.; wasted = 0.; start = 0.; replay = 0.; recovery = 0.;
        segment = 0.; lost = 0.; downtime = 0.; exposure = 0.;
        downtime_total = 0.; death = 0.; death_downtime = 0.;
      };
    draw = Array.make 1 0.;
    position = 0;
    failures = 0;
    lane_failures = 0;
    losses = 0;
    recoveries = 0;
    corrupt_reads = 0;
    failed_recoveries = 0;
    saves = 0;
    truncated = false;
  }

(* A fresh run: nothing in memory, nothing on disk. *)
let reset ex =
  ex.life <- ex.life + 1;
  Array.fill ex.copies 0 ex.n 0;
  let c = ex.clock in
  c.time <- 0.;
  c.wasted <- 0.;
  c.exposure <- 0.;
  c.downtime_total <- 0.;
  ex.position <- 0;
  ex.failures <- 0;
  ex.lane_failures <- 0;
  ex.recoveries <- 0;
  ex.corrupt_reads <- 0;
  ex.failed_recoveries <- 0;
  ex.saves <- 0;
  ex.truncated <- false

let[@inline] bernoulli ex p = p > 0. && Rng.uniform ex.faults.rng < p

(* The replay walk for task [v]: recover lost checkpointed ancestors,
   recompute lost plain ones, recursively, depth first in predecessor order
   (the float sum depends on that order). A recovery read retries on
   transient failure; the checkpoint copies are tried in write order, and
   only when every copy is corrupt are they discarded and the task
   recomputed from its own ancestors. A discovery persists even if the
   attempt later fails. Fills [restored] with the outputs a successful
   attempt brings back to memory. Sums into the clock's [replay] and
   [recovery], so no float is boxed.

   The walk and the attempt loop index the executor's arrays unchecked:
   every index is a task of its DAG (from the plan or a predecessor list)
   or a DFS depth, which stays below n because the walk visits each task
   at most once. *)
let search ex v =
  ex.epoch <- ex.epoch + 1;
  let epoch = ex.epoch in
  let p_rec = ex.faults.p_rec_fail in
  let c = ex.clock in
  Array.unsafe_set ex.stack 0 v;
  Array.unsafe_set ex.next 0 0;
  let sp = ref 1 in
  while !sp > 0 do
    let top = !sp - 1 in
    let ps = Array.unsafe_get ex.preds (Array.unsafe_get ex.stack top) in
    let i = Array.unsafe_get ex.next top in
    if i >= Array.length ps then decr sp
    else begin
      Array.unsafe_set ex.next top (i + 1);
      let u = Array.unsafe_get ps i in
      if
        Array.unsafe_get ex.mem u <> ex.life
        && Array.unsafe_get ex.seen u <> epoch
      then begin
        Array.unsafe_set ex.seen u epoch;
        Array.unsafe_set ex.restored ex.n_restored u;
        ex.n_restored <- ex.n_restored + 1;
        let recompute =
          if Array.unsafe_get ex.copies u > 0 then begin
            let rc = Array.unsafe_get ex.rec_cost u in
            let found = ref false and j = ref 0 in
            while (not !found) && !j < ex.copies.(u) do
              while bernoulli ex p_rec do
                ex.failed_recoveries <- ex.failed_recoveries + 1;
                c.replay <- c.replay +. rc;
                c.recovery <- c.recovery +. rc
              done;
              ex.recoveries <- ex.recoveries + 1;
              c.replay <- c.replay +. rc;
              c.recovery <- c.recovery +. rc;
              if ex.corrupt.(u) land (1 lsl !j) <> 0 then
                ex.corrupt_reads <- ex.corrupt_reads + 1
              else found := true;
              incr j
            done;
            if not !found then ex.copies.(u) <- 0;
            not !found
          end
          else true
        in
        if recompute then begin
          c.replay <- c.replay +. Array.unsafe_get ex.work u;
          Array.unsafe_set ex.stack !sp u;
          Array.unsafe_set ex.next !sp 0;
          incr sp
        end
      end
    end
  done

(* Most attempts find every input of [v] in memory, with nothing to
   search. *)
let[@inline] walk ex v =
  let c = ex.clock in
  c.replay <- 0.;
  c.recovery <- 0.;
  ex.n_restored <- 0;
  let ps = Array.unsafe_get ex.preds v and mem = ex.mem and life = ex.life in
  let k = ref 0 in
  while
    !k < Array.length ps && Array.unsafe_get mem (Array.unsafe_get ps !k) = life
  do
    incr k
  done;
  if !k < Array.length ps then search ex v

let[@inline] restore ex v =
  for k = 0 to ex.n_restored - 1 do
    Array.unsafe_set ex.mem (Array.unsafe_get ex.restored k) ex.life
  done;
  Array.unsafe_set ex.mem v ex.life

let[@inline] store ex v =
  let r = Array.unsafe_get ex.replicas v in
  Array.unsafe_set ex.copies v r;
  let mask = ref 0 in
  for j = 0 to r - 1 do
    if bernoulli ex ex.faults.p_ckpt_fail then mask := !mask lor (1 lsl j)
  done;
  Array.unsafe_set ex.corrupt v !mask

let wipe ex = ex.life <- ex.life + 1

type observer = {
  on_attempt : exec -> unit;
  on_success : exec -> unit;
  on_failure : exec -> unit;
}

let ignore_exec (_ : exec) = ()

let silent =
  { on_attempt = ignore_exec; on_success = ignore_exec; on_failure = ignore_exec }

let flush ex =
  if Metrics.enabled () then begin
    Metrics.incr m_replicas;
    Metrics.add m_failures ex.failures;
    Metrics.add m_recoveries ex.recoveries;
    Metrics.observe h_lost_work ex.clock.wasted;
    Metrics.add m_corrupt ex.corrupt_reads;
    Metrics.add m_failed_rec ex.failed_recoveries;
    if ex.truncated then Metrics.incr m_truncated;
    if ex.extra_replicas > 0 then begin
      Metrics.add m_replicas_placed ex.extra_replicas;
      Metrics.add m_replica_saves ex.saves
    end
  end

(* A copy died [draw.(0)] seconds into the attempt, and its repair takes
   [down]: charge it, and keep the death and repair of the last copy to
   die, which a lost attempt is charged. *)
let lose ex down =
  let c = ex.clock in
  let fail_after = Array.unsafe_get ex.draw 0 in
  if ex.losses = 0 then begin
    c.death <- neg_infinity;
    c.death_downtime <- 0.
  end;
  ex.losses <- ex.losses + 1;
  ex.lane_failures <- ex.lane_failures + 1;
  c.exposure <- c.exposure +. fail_after;
  c.downtime_total <- c.downtime_total +. down;
  if fail_after > c.death then begin
    c.death <- fail_after;
    c.death_downtime <- down
  end

exception Capped

(* [cancel] is polled at the start of every run and at every 16th failure
   within it: an armed token reads the clock, which at every failure would
   cost a run that fails every few attempts a tenth of its time. Many runs
   with few failures each stop at the next run, and a diverging run within
   sixteen failures. *)
let poll_mask = 15

(* The attempt loop: the paper's recovery semantics, implemented once (the
   mli states the lane protocol). Memoryless and renewal lanes are drawn
   here, into [ex.draw], and hooks left at [silent] are not called, so an
   attempt on such lanes under [silent] makes no indirect call and
   allocates nothing. *)
let execute ?(observer = silent) ?(cancel = Wfc_platform.Cancel.never) ex lanes
    =
  if Array.length lanes < Schedule.max_replica_count ex.sched then
    invalid_arg "Sim.execute: fewer lanes than replicas";
  reset ex;
  Wfc_platform.Cancel.check cancel;
  let c = ex.clock in
  let cap = ex.faults.max_failures in
  let on_attempt = observer.on_attempt != ignore_exec in
  let on_success = observer.on_success != ignore_exec in
  let on_failure = observer.on_failure != ignore_exec in
  let order = ex.order and flags = ex.flags and draw = ex.draw in
  (try
     while ex.position < ex.n do
       (* re-read after every attempt: a replan may have changed both *)
       let v = Array.unsafe_get order ex.position in
       let checkpointing = Array.unsafe_get flags v in
       walk ex v;
       let segment =
         c.replay +. Array.unsafe_get ex.work v
         +. if checkpointing then Array.unsafe_get ex.ckpt_cost v else 0.
       in
       c.start <- c.time;
       c.segment <- segment;
       if on_attempt then observer.on_attempt ex;
       let copies = Array.unsafe_get ex.replicas v in
       ex.losses <- 0;
       for j = 0 to copies - 1 do
         let lane = Array.unsafe_get lanes j in
         match lane.law with
         | Memoryless m ->
             draw_memoryless m draw;
             if Array.unsafe_get draw 0 >= segment then
               c.exposure <- c.exposure +. segment
             else lose ex m.downtime
         | Renewal r ->
             let left = Array.unsafe_get r.countdown 0 in
             Array.unsafe_set draw 0 left;
             if left >= segment then begin
               Array.unsafe_set r.countdown 0 (left -. segment);
               c.exposure <- c.exposure +. segment
             end
             else begin
               lose ex (renewal_downtime r);
               renew_countdown r
             end
         | Closures ->
             Array.unsafe_set draw 0 (lane.time_to_failure ());
             if Array.unsafe_get draw 0 >= segment then begin
               lane.consume segment;
               c.exposure <- c.exposure +. segment
             end
             else begin
               lose ex (lane.next_downtime ());
               lane.after_failure ()
             end
       done;
       if ex.losses < copies then begin
         c.time <- c.time +. segment;
         c.wasted <- c.wasted +. c.replay;
         restore ex v;
         if checkpointing then store ex v;
         if ex.losses > 0 then ex.saves <- ex.saves + 1;
         if on_success then observer.on_success ex;
         ex.position <- ex.position + 1
       end
       else begin
         c.lost <- c.death;
         c.downtime <- c.death_downtime;
         c.time <- c.time +. c.death +. c.death_downtime;
         c.wasted <- c.wasted +. c.death +. c.death_downtime;
         ex.failures <- ex.failures + 1;
         wipe ex;
         if on_failure then observer.on_failure ex;
         if ex.failures land poll_mask = 0 then
           Wfc_platform.Cancel.check cancel;
         if cap > 0 && ex.failures >= cap then raise_notrace Capped
       end
     done
   with Capped -> ex.truncated <- true);
  flush ex

let result ex =
  { makespan = ex.clock.time; failures = ex.failures; wasted = ex.clock.wasted }

(* Read-only views for observers and wrappers. *)
let position ex = ex.position
let task ex = ex.order.(ex.position)
let checkpointing ex = ex.flags.(task ex)
let time ex = ex.clock.time
let start ex = ex.clock.start
let replay_time ex = ex.clock.replay
let recovery_time ex = ex.clock.recovery
let segment ex = ex.clock.segment
let work ex v = ex.work.(v)
let lost ex = ex.clock.lost
let downtime ex = ex.clock.downtime
let failures ex = ex.failures
let lane_failures ex = ex.lane_failures
let exposure ex = ex.clock.exposure
let downtime_total ex = ex.clock.downtime_total
let corrupt_reads ex = ex.corrupt_reads
let failed_recoveries ex = ex.failed_recoveries
let truncated ex = ex.truncated
let order ex = Array.copy ex.order
let flags ex = Array.copy ex.flags

(* The replay walk for engines with their own time advance. These entry
   points check [v]; the executor's own calls index unchecked. *)
let check_task ex v =
  if v < 0 || v >= ex.n then invalid_arg "Sim: task out of range"

let replay ex v =
  check_task ex v;
  walk ex v;
  ex.clock.replay

let restore ex v =
  check_task ex v;
  restore ex v

let store ex v =
  check_task ex v;
  store ex v

let replan ex ~order ~flags =
  Array.iter (check_task ex) order;
  Array.blit order 0 ex.order 0 ex.n;
  Array.blit flags 0 ex.flags 0 ex.n

(* {1 Entry points} *)

let run_with_lanes ?replica_cost lanes g sched =
  let ex = exec ?replica_cost g sched in
  execute ex lanes;
  result ex

let run_with_source source g sched =
  if Schedule.is_replicated sched then
    invalid_arg
      "Sim.run_with_source: replicated schedule needs failure lanes \
       (run_with_lanes)";
  run_with_lanes [| source |] g sched

(* One source per lane: sequential creation on a shared rng gives
   independent draws, and the memoryless source draws nothing before its
   first attempt. *)
let lanes sched make =
  Array.init (Schedule.max_replica_count sched) (fun _ -> make ())

let model_lanes ~rng model sched =
  lanes sched (fun () -> source_of_model ~rng model)

let run ?replica_cost ~rng model g sched =
  run_with_lanes ?replica_cost (model_lanes ~rng model sched) g sched

let renew lanes =
  Array.iter
    (fun lane ->
      match lane.law with Renewal r -> renew_countdown r | _ -> ())
    lanes

