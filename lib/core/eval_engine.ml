module FM = Wfc_platform.Failure_model

type backend = Naive | Flat

let backend_name = function Naive -> "naive" | Flat -> "flat"

let backend_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Some Naive
  | "flat" -> Some Flat
  | _ -> None

let rel_diff a b =
  if Float.equal a b then 0.
  else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)

let backends_agree a b = rel_diff a b <= 1e-9

(* ---- engine handles --------------------------------------------------- *)

(* Search loops hold a handle so one code path covers the plain kernel and
   replicated schedules. A replicated schedule re-derives the lost-work
   matrix from surcharged weights, so none of the kernel's incremental
   structure applies yet: the replicated handle caches one full
   [Replication.evaluate] per flag vector and replays the kernel's prefix
   accounting on top. Replica counts are fixed for the handle's lifetime,
   like the order. *)
type repl = {
  mutable p_model : FM.t;
  p_g : Wfc_dag.Dag.t;
  p_n : int;
  p_order : int array;
  p_replicas : int array; (* by task *)
  p_cost : float;
  p_flags : bool array; (* by task, current (possibly uncommitted) *)
  p_committed : bool array;
  p_pp : float array; (* E[X_i] per position *)
  p_ms : float array; (* prefix sums, length n + 1 *)
  mutable p_valid : bool;
}

let repl_ensure p =
  if not p.p_valid then begin
    let sched =
      Schedule.make ~replicas:p.p_replicas p.p_g ~order:p.p_order
        ~checkpointed:p.p_flags
    in
    let r = Replication.evaluate ~cost:p.p_cost p.p_model p.p_g sched in
    Array.blit r.Replication.per_position 0 p.p_pp 0 p.p_n;
    p.p_ms.(0) <- 0.;
    for i = 0 to p.p_n - 1 do
      p.p_ms.(i + 1) <- p.p_ms.(i) +. p.p_pp.(i)
    done;
    p.p_valid <- true
  end

let repl_makespan p =
  repl_ensure p;
  p.p_ms.(p.p_n)

type handle = H_flat of Flat_engine.t | H_repl of repl

let all_ones = Array.for_all (fun r -> r = 1)

let handle ?flags ?replicas ?replica_cost backend model g ~order =
  let replicated =
    match replicas with Some r when not (all_ones r) -> true | _ -> false
  in
  match backend with
  | Naive -> invalid_arg "Eval_engine.handle: the naive backend has no engine"
  | _ when replicated ->
      let replicas = Option.get replicas in
      let n = Wfc_dag.Dag.n_tasks g in
      if Array.length replicas <> n then
        invalid_arg "Eval_engine.handle: replica counts have the wrong size";
      let flags =
        match flags with
        | None -> Array.make n false
        | Some f ->
            if Array.length f <> n then
              invalid_arg "Eval_engine.handle: flags have the wrong size";
            Array.copy f
      in
      let p =
        {
          p_model = model;
          p_g = g;
          p_n = n;
          p_order = Array.copy order;
          p_replicas = Array.copy replicas;
          p_cost =
            Option.value replica_cost ~default:Replication.default_cost;
          p_flags = flags;
          p_committed = Array.copy flags;
          p_pp = Array.make n 0.;
          p_ms = Array.make (n + 1) 0.;
          p_valid = false;
        }
      in
      (* validate the order eagerly, like [Flat_engine.create] *)
      repl_ensure p;
      H_repl p
  | Flat -> H_flat (Flat_engine.create ?flags model g ~order)

let h_makespan = function
  | H_flat e -> Flat_engine.makespan e
  | H_repl p -> repl_makespan p

let h_prefix_makespan h ~upto =
  match h with
  | H_flat e -> Flat_engine.prefix_makespan e ~upto
  | H_repl p ->
      if upto < 0 || upto > p.p_n then
        invalid_arg "Eval_engine.prefix_makespan: position out of range";
      repl_ensure p;
      p.p_ms.(upto)

let h_suffix_makespan h ~from =
  match h with
  | H_flat e -> Flat_engine.suffix_makespan e ~from
  | H_repl p ->
      if from < 0 || from > p.p_n then
        invalid_arg "Eval_engine.suffix_makespan: position out of range";
      repl_ensure p;
      p.p_ms.(p.p_n) -. p.p_ms.(from)

let h_flip h v =
  match h with
  | H_flat e -> Flat_engine.flip e v
  | H_repl p ->
      if v < 0 || v >= p.p_n then
        invalid_arg "Eval_engine.flip: task out of range";
      p.p_flags.(v) <- not p.p_flags.(v);
      p.p_valid <- false;
      repl_makespan p

let h_set_flag_at h ~pos b =
  match h with
  | H_flat e -> Flat_engine.set_flag_at e ~pos b
  | H_repl p ->
      if pos < 0 || pos >= p.p_n then
        invalid_arg "Eval_engine.set_flag_at: position out of range";
      let v = p.p_order.(pos) in
      if p.p_flags.(v) <> b then begin
        p.p_flags.(v) <- b;
        p.p_valid <- false
      end

let h_set_flags h target =
  match h with
  | H_flat e -> Flat_engine.set_flags e target
  | H_repl p ->
      if Array.length target <> p.p_n then
        invalid_arg "Eval_engine.set_flags: flags have the wrong size";
      if target <> p.p_flags then begin
        Array.blit target 0 p.p_flags 0 p.p_n;
        p.p_valid <- false
      end

let h_commit = function
  | H_flat e -> Flat_engine.commit e
  | H_repl p -> Array.blit p.p_flags 0 p.p_committed 0 p.p_n

let h_rollback = function
  | H_flat e -> Flat_engine.rollback e
  | H_repl p ->
      if p.p_committed <> p.p_flags then begin
        Array.blit p.p_committed 0 p.p_flags 0 p.p_n;
        p.p_valid <- false
      end

let h_set_model h m =
  match h with
  | H_flat e -> Flat_engine.set_model e m
  | H_repl p ->
      p.p_model <- m;
      p.p_valid <- false

let h_order = function
  | H_flat e -> Flat_engine.order e
  | H_repl p -> Array.copy p.p_order

let h_flags = function
  | H_flat e -> Flat_engine.flags e
  | H_repl p -> Array.copy p.p_flags

let h_n_tasks = function
  | H_flat e -> Flat_engine.n_tasks e
  | H_repl p -> p.p_n

let h_replicas = function
  | H_flat _ -> None
  | H_repl p -> Some (Array.copy p.p_replicas)

(* ---- batch evaluation ------------------------------------------------- *)

let batch_evaluate ?domains ?replicas ?replica_cost model g ~order candidates =
  let cands = Array.of_list candidates in
  let total = Array.length cands in
  if total = 0 then []
  else begin
    let domains =
      match domains with
      | Some d ->
          if d <= 0 then invalid_arg "Eval_engine.batch_evaluate: domains <= 0";
          d
      | None -> Wfc_platform.Domain_pool.default_domains ()
    in
    let replicas =
      match replicas with Some r when not (all_ones r) -> Some r | _ -> None
    in
    let slices = Wfc_platform.Domain_pool.chunks ~total ~domains in
    (* each domain owns a private engine; a makespan is a pure function of
       the flag vector (whatever flip path led there), so the result is
       independent of the split *)
    let parts =
      Wfc_platform.Domain_pool.run ~domains:(Array.length slices) (fun s ->
          let start, len = slices.(s) in
          match replicas with
          | None ->
              let e = Flat_engine.create model g ~order in
              Array.init len (fun j ->
                  Flat_engine.set_flags e cands.(start + j);
                  Flat_engine.makespan e)
          | Some r ->
              Array.init len (fun j ->
                  let sched =
                    Schedule.make ~replicas:r g ~order
                      ~checkpointed:cands.(start + j)
                  in
                  Replication.expected_makespan ?cost:replica_cost model g
                    sched))
    in
    List.concat_map Array.to_list parts
  end
