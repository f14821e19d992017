type solution = { schedule : Schedule.t; makespan : float; nodes : int }

exception Node_budget_exceeded

module Metrics = Wfc_obs.Metrics
module Trace = Wfc_obs.Trace
module FM = Wfc_platform.Failure_model

(* B&B observability: search-local plain ints flushed once per solve, so
   the node loop carries no instrumentation cost at all. *)
let m_nodes = Metrics.counter "bnb.nodes"
let m_pruned = Metrics.counter "bnb.pruned"
let m_incumbents = Metrics.counter "bnb.incumbent_updates"
let m_completed = Metrics.counter "bnb.completed"
let m_exhausted = Metrics.counter "bnb.budget_exhausted"
let m_dominance = Metrics.counter "bnb.dominance_pruned"
let m_memo_hits = Metrics.counter "bnb.memo_hits"
let m_steals = Metrics.counter "bnb.steals"

(* Warm-start candidates, in a fixed order: the all-off and all-on
   vectors, then the CkptW and CkptC grids. With pruning off (the parity
   configuration), the node walk starts from the incumbent they give and is
   pinned node for node by the test suite. *)
let warm_candidates g ~order =
  let n = Array.length order in
  Array.make n false :: Array.make n true
  :: List.concat_map
       (fun ckpt ->
         List.map
           (fun n_ckpt -> Heuristics.checkpoint_flags ckpt g ~order ~n_ckpt)
           (Heuristics.candidate_counts (Heuristics.Grid 16) ~n))
       [ Heuristics.Ckpt_weight; Heuristics.Ckpt_cost ]

(* admissible tail bound: each remaining interval costs at least its own
   failure-free-retry expectation *)
let tail_bound model g ~order =
  let n = Array.length order in
  let tail = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    tail.(i) <-
      tail.(i + 1)
      +. FM.expected_exec_time model
           ~work:(Wfc_dag.Dag.weight g order.(i))
           ~checkpoint:0. ~recovery:0.
  done;
  tail

(* ---- dominance-pruned, memoized, parallel search ----------------------- *)

(* Everything a search domain owns privately; only the incumbent, the node
   budget and the stop flag are shared. *)
type flat_worker = {
  eng : Flat_engine.t;
  wflags : bool array; (* mirror of the engine's flag vector, by task *)
  tbl : (int, float * int) Hashtbl.t; (* sig -> (suffix cost, suffix bits) *)
  mutable w_pruned : int;
  mutable w_dom : int;
  mutable w_memo : int;
  mutable w_inc : int;
}

let memo_min_suffix = 8

let optimal_checkpoints_within ?(max_nodes = 1_000_000)
    ?(should_stop = fun () -> false)
    ?(cancel = Wfc_platform.Cancel.never) ?(domains = 1) ?(dominance = true)
    ?(memo = true) scorer =
  if domains < 1 then
    invalid_arg "Exact_solver.optimal_checkpoints: domains < 1";
  let model = Flat_engine.model scorer and g = Flat_engine.dag scorer in
  let order = Flat_engine.order scorer in
  let n = Array.length order in
  Trace.with_span "exact.bnb"
    ~args:
      [ ("n", string_of_int n);
        ("backend", "flat");
        ("domains", string_of_int domains) ]
  @@ fun () ->
  let tail = tail_bound model g ~order in
  let pos = Array.make n (-1) in
  Array.iteri (fun p v -> pos.(v) <- p) order;
  (* suffix completions are stored as position bitmasks *)
  let memo = memo && n <= 62 in
  (* warm start: the heuristic sweep, scored on the caller's engine, which
     later climbs the warm start and scores the reported optimum too *)
  let score flags =
    Flat_engine.set_flags scorer flags;
    Flat_engine.makespan scorer
  in
  let inc0_flags = ref (Array.make n false) in
  let inc0 = ref infinity in
  let try_inc cand =
    Wfc_platform.Cancel.check cancel;
    let m = score cand in
    if m < !inc0 then begin
      inc0 := m;
      inc0_flags := Array.copy cand
    end
  in
  List.iter try_inc (warm_candidates g ~order);
  (* hill-climb the warm start on the flat engine: a tight incumbent is the
     strongest pruner. Skipped when both pruning features are disabled so a
     parity run keeps the plain depth-first node walk. *)
  if dominance || memo then begin
    let ls =
      Local_search.improve
        ~max_evaluations:(Int.min 4000 (Int.max 256 (8 * n)))
        ~engine:scorer ~cancel model g
        (Schedule.make g ~order ~checkpointed:!inc0_flags)
    in
    if ls.Local_search.makespan < !inc0 then begin
      inc0 := ls.Local_search.makespan;
      inc0_flags := Array.copy ls.Local_search.schedule.Schedule.checkpointed
    end
  end;
  (* static flag-dominance facts per position (see DESIGN.md section 10):
     R1 — a task with no strict descendants is never replayed by any fault
     row, so its checkpoint only adds cost and exposure: never checkpoint;
     R2 — a zero-cost checkpoint with recovery <= weight makes every replay
     of the task pointwise cheaper at zero added exposure: always
     checkpoint. *)
  let skip_true = Array.make n false in
  let skip_false = Array.make n false in
  if dominance then
    for p = 0 to n - 1 do
      let v = order.(p) in
      let task = Wfc_dag.Dag.task g v in
      if Array.length (Wfc_dag.Dag.succs_array g v) = 0 then
        skip_true.(p) <- true
      else if
        task.Wfc_dag.Task.checkpoint_cost = 0.
        && task.Wfc_dag.Task.recovery_cost <= task.Wfc_dag.Task.weight
      then skip_false.(p) <- true
    done;
  (* last position over strict descendants, for the memo's frontier
     signature: a flag at position p is replay-relevant to the suffix from i
     only when some descendant sits at position >= i *)
  let last_strict = Array.make n (-1) in
  if memo then
    for p = n - 1 downto 0 do
      let v = order.(p) in
      let m = ref (-1) in
      Array.iter
        (fun y ->
          if pos.(y) > !m then m := pos.(y);
          if last_strict.(y) > !m then m := last_strict.(y))
        (Wfc_dag.Dag.succs_array g v);
      last_strict.(v) <- !m
    done;
  (* shared search state: incumbent value is read lock-free on every bound
     check; value and flags only change together under the mutex, so the
     reported optimum always matches the reported flags *)
  let incumbent = Atomic.make !inc0 in
  let inc_mu = Mutex.create () in
  let best_flags = ref !inc0_flags in
  let update_incumbent m fl =
    if m < Atomic.get incumbent then begin
      Mutex.lock inc_mu;
      if m < Atomic.get incumbent then begin
        Atomic.set incumbent m;
        best_flags := Array.copy fl
      end;
      Mutex.unlock inc_mu
    end
  in
  let node_total = Atomic.make 0 in
  let stopped = Atomic.make false in
  (* root splitting: with one domain the split depth is 0 — a single root
     explored as a plain depth-first search. With more, enumerate all
     flag prefixes of a depth giving ~4 subtrees per domain, self-scheduled
     so slow subtrees are stolen. *)
  let rec clog2 x = if x <= 1 then 0 else 1 + clog2 ((x + 1) / 2) in
  let split_depth =
    if domains = 1 then 0 else Int.min n (Int.min 10 (clog2 (4 * domains)))
  in
  let n_roots = 1 lsl split_depth in
  (* worker 0 searches on the caller's engine, which is free until the final
     score rebinds every flag: a node's cost is a prefix makespan, which
     reads only the flags the walk has set, so stale suffix flags left by
     the warm start cannot change it *)
  let states =
    Array.init (Int.min domains n_roots) (fun w ->
        {
          eng = (if w = 0 then scorer else Flat_engine.create model g ~order);
          wflags = Array.make n false;
          tbl = Hashtbl.create 256;
          w_pruned = 0;
          w_dom = 0;
          w_memo = 0;
          w_inc = 0;
        })
  in
  let set_flag st p b =
    st.wflags.(order.(p)) <- b;
    Flat_engine.set_flag_at st.eng ~pos:p b
  in
  let sig_at st i =
    let h = ref (i * 0x9E3779B1) in
    for p = 0 to i - 1 do
      let v = order.(p) in
      if last_strict.(v) >= i then
        h := (!h * 131) + if st.wflags.(v) then (2 * p) + 1 else 2 * p
    done;
    !h land max_int
  in
  let record_completions st leaf_cost =
    for i = Int.max 1 split_depth to n - memo_min_suffix do
      let h = sig_at st i in
      let scost = leaf_cost -. Flat_engine.prefix_makespan st.eng ~upto:i in
      let bits = ref 0 in
      for p = i to n - 1 do
        if st.wflags.(order.(p)) then bits := !bits lor (1 lsl (p - i))
      done;
      Hashtbl.replace st.tbl h (scost, !bits)
    done
  in
  let exception Stop in
  (* the deadline predicate and the cancellation token are polled every 1024
     expansions; the stop flag broadcasts
     exhaustion (or cancellation) to the pool. Cancellation is remembered
     separately so it can re-raise as [Cancelled] once every domain has
     wound down and joined. *)
  let was_cancelled = Atomic.make false in
  let count_node () =
    let nd = Atomic.fetch_and_add node_total 1 + 1 in
    if nd land 1023 = 0 && Wfc_platform.Cancel.cancelled cancel then begin
      Atomic.set was_cancelled true;
      Atomic.set stopped true;
      raise Stop
    end;
    if nd > max_nodes || (nd land 1023 = 0 && should_stop ()) then begin
      Atomic.set stopped true;
      raise Stop
    end;
    if Atomic.get stopped then raise Stop
  in
  let child st i b =
    set_flag st i b;
    Flat_engine.prefix_makespan st.eng ~upto:(i + 1)
  in
  let rec go st i cost =
    count_node ();
    if i = n then begin
      if cost < Atomic.get incumbent then begin
        update_incumbent cost st.wflags;
        st.w_inc <- st.w_inc + 1;
        if memo then record_completions st cost
      end
    end
    else begin
      (* memo: a previously recorded completion of an equal checkpoint
         frontier is re-evaluated under this prefix as an incumbent
         candidate. The probability state entering position i depends on
         more than the frontier, so the stored completion is a warm start,
         never a pasted bound — sound even on hash collisions. *)
      if memo && n - i >= memo_min_suffix then begin
        match Hashtbl.find_opt st.tbl (sig_at st i) with
        | Some (scost, bits)
          when cost +. scost < Atomic.get incumbent -. 1e-9 ->
            st.w_memo <- st.w_memo + 1;
            for p = i to n - 1 do
              Flat_engine.set_flag_at st.eng ~pos:p
                ((bits lsr (p - i)) land 1 = 1)
            done;
            let m = Flat_engine.makespan st.eng in
            if m < Atomic.get incumbent then begin
              let fl = Array.copy st.wflags in
              for p = i to n - 1 do
                fl.(order.(p)) <- (bits lsr (p - i)) land 1 = 1
              done;
              update_incumbent m fl;
              st.w_inc <- st.w_inc + 1
            end
        | _ -> ()
      end;
      let try_child b c =
        if c +. tail.(i + 1) < Atomic.get incumbent -. 1e-12 then begin
          set_flag st i b;
          go st (i + 1) c
        end
        else st.w_pruned <- st.w_pruned + 1
      in
      if dominance && skip_true.(i) then begin
        st.w_dom <- st.w_dom + 1;
        try_child false (child st i false)
      end
      else if dominance && skip_false.(i) then begin
        st.w_dom <- st.w_dom + 1;
        try_child true (child st i true)
      end
      else begin
        (* evaluate both children, then explore the cheaper one first: good
           incumbents early tighten the pruning *)
        let cost_true = child st i true in
        let cost_false = child st i false in
        if cost_false <= cost_true then begin
          try_child false cost_false;
          try_child true cost_true
        end
        else begin
          try_child true cost_true;
          try_child false cost_false
        end
      end;
      set_flag st i false
    end
  in
  let process st r =
    for p = 0 to split_depth - 1 do
      set_flag st p ((r lsr p) land 1 = 1)
    done;
    if split_depth = 0 then go st 0 (Flat_engine.prefix_makespan st.eng ~upto:0)
    else begin
      let cost = Flat_engine.prefix_makespan st.eng ~upto:split_depth in
      if cost +. tail.(split_depth) < Atomic.get incumbent -. 1e-12 then
        go st split_depth cost
      else st.w_pruned <- st.w_pruned + 1
    end
  in
  let steals =
    Wfc_platform.Domain_pool.self_schedule ~domains:(Array.length states)
      ~total:n_roots (fun ~worker r ->
        if not (Atomic.get stopped) then
          try process states.(worker) r with Stop -> ())
  in
  (* every domain has joined: safe to abort the request *)
  if Atomic.get was_cancelled then raise Wfc_platform.Cancel.Cancelled;
  let status =
    if Atomic.get stopped then `Budget_exhausted else `Optimal
  in
  let nodes = Atomic.get node_total in
  if Metrics.enabled () then begin
    Metrics.add m_nodes nodes;
    Array.iter
      (fun st ->
        Metrics.add m_pruned st.w_pruned;
        Metrics.add m_dominance st.w_dom;
        Metrics.add m_memo_hits st.w_memo;
        Metrics.add m_incumbents st.w_inc)
      states;
    Metrics.add m_steals steals;
    Metrics.incr
      (match status with
      | `Optimal -> m_completed
      | `Budget_exhausted -> m_exhausted)
  end;
  (* leaf costs are prefix sums, which may differ from the full makespan in
     the last ulps: the reported value is the engine's makespan of the
     reported flags, whichever domain found them *)
  let makespan = score !best_flags in
  let schedule = Schedule.make g ~order ~checkpointed:!best_flags in
  ({ schedule; makespan; nodes }, status)

let optimal_checkpoints ?max_nodes ?cancel ?domains ?dominance ?memo engine =
  match
    optimal_checkpoints_within ?max_nodes ?cancel ?domains ?dominance ?memo
      engine
  with
  | sol, `Optimal -> sol
  | _, `Budget_exhausted -> raise Node_budget_exceeded
